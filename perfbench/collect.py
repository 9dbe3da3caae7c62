#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads sqrt_law,cli_jobs]
                                 [--trace 0] [--out FILE]

Runs one ``run.py`` process at a time with the settings in BENCHMARK.json,
then prints, per workload and metric, the median, the quartiles and the
distance between the quartiles as a share of the median (the spread that the
metric's bound must cover).  ``--out`` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        failures = "\n".join(line for line in lines if line.startswith("# FAILED"))
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{failures}\n{proc.stderr}")
    stamp = dict(field.split("=", 1) for field in lines[0].split()[2:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported correct: false")
    return result, stamp


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in names:
        runs = [run_once(spec, workload, seed, args.trace)
                for seed in args.seeds]
        results = [result for result, _ in runs]
        stamp = {k: runs[0][1][k] for k in ("git", "python", "nproc", "seconds")}
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summarise(values) if len(values) > 1 else {
                "median": values[0], "values": values}
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        summary[workload] = {
            "stamp": stamp,
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed={summary[workload]['failed']} "
              f"attempted={summary[workload]['attempted']}")
        for name, m in metrics.items():
            spread = m.get("spread")
            bound = bounds.get(name)
            flag = ""
            if spread is not None and bound:
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:36s} median {m['median']:.6g} {m['unit']:6s}"
                  + (f" spread {spread:.3f} (bound {bound}) {flag}"
                     if spread is not None else ""))
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
