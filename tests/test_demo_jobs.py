"""Golden sha256 digests of every file each demo job writes, with and without
--trace, and of each demo script's stdout: any change to the bytes of a
report, a CSV or a demo's printout fails here."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from germradius.cli import COMMANDS, load_job, run_job

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
JOBS = DEMOS / "jobs"

PLAIN = {
    "compose_blowup": {
        "report.json":
            "76318b5b769349b2785cdfa8940ef44e2917f0eeda1e7e02f9dbc52137c726b7",
    },
    "profile_square": {
        "report.json":
            "62020b7356441d7509f3f084568139182a9d2e921b840a81269d342c99ff3f05",
    },
    "radius_geometric": {
        "report.json":
            "481447a684c86bdf4166a9cce221bfc953e575b0209d5758f5819df885f97bb1",
        "shells.csv":
            "0a220b13a6c0abfeb4d353a38ec4b6b6e99a65bde824da1dce7e51b301f10654",
    },
    "recover_geometric": {
        "report.json":
            "76bf829034d9d31afc7b14a4d9ec920f1b3f52abb291a304b2a80d2600d5f91c",
    },
    "recover_sqrt_offcenter": {
        "report.json":
            "911fa2647367d9c52986599f6b63eb6635bbdbeeee5ee6125d93f807f22df0a5",
    },
    "stratify_blowup": {
        "report.json":
            "b997a036e234b74c9a116d4bbfaab2ffbb2975a891dd3d02c8e41d0a341dab9e",
        "strata.csv":
            "32a6cbc2be28547dea8e6421e5aa4739126bf1d380dc7e0496a093c32d35c986",
    },
    "verify_blowup": {
        "report.json":
            "abd5440820b362dfddd1c77b893da8d0a19c29a3cb21fa4b384a493f179c4b4f",
    },
}

# --trace changes the recover reports and adds verify's table.json
TRACED = {
    **PLAIN,
    "recover_geometric": {
        "report.json":
            "bb79b35e37ea43d644ff603f6cf9d677cc58ae6c0e8d30739b34eee3ac045250",
    },
    "recover_sqrt_offcenter": {
        "report.json":
            "54e521442e8249df68a70123e498cfef357ac34fe700022a5028f83c82f2bd34",
    },
    "verify_blowup": {
        **PLAIN["verify_blowup"],
        "table.json":
            "2007f63a8088675a094d0c40bd284b13a0fea9bbbe2254414765b3e7e1c75ba3",
    },
}


def test_every_demo_job_is_pinned():
    assert sorted(path.stem for path in JOBS.glob("*.json")) == sorted(PLAIN)


def test_every_command_has_a_demo_job():
    commands = {json.loads(path.read_text())["command"]
                for path in JOBS.glob("*.json")}
    assert commands == set(COMMANDS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("job", sorted(PLAIN))
def test_demo_job_output_bytes(tmp_path, job, trace):
    run_job(load_job(JOBS / f"{job}.json"), tmp_path, trace=trace)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == (TRACED if trace else PLAIN)[job]


DEMO_STDOUT = {
    "01_recover_composite":
        "751907ddec638585d0fffa0598747f9b1227c879cca7419848d89f8990777d62",
    "02_sqrt_off_center":
        "dda787f3ec78f5a52767538be37a08e70c0160d1c9abad70be51796d164d970b",
    "03_blowup_strata":
        "4dc4468c221eabaea5c92e7a853b706b2285fa3740b5e3968af7dd1f0c0b94b0",
    "04_radius_scaling":
        "d604630e8e4070a9124e6edf8a6a2f4cab74fc6dfd641156b84a3bc5e594b3ec",
}


def test_every_demo_script_is_pinned():
    assert sorted(path.stem for path in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_script_stdout(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo]
