#!/usr/bin/env python3
"""Benchmark for germradius: one workload, one closed-loop client.

    python3 perfbench/run.py --workload sqrt_law --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` next to
this directory.  One client runs operations back to back in this process (no
threads): the next operation starts when the previous one has returned and
its output has been checked.  Inputs come from ``--seed`` only.

With ``--trace 0`` the run times whole rounds of operations (one input of
each shape) until ``--seconds`` seconds have passed, and prints the
end-to-end metrics.  Set-up is timed before the first operation and again
between rounds, spread over the run, with the loop's clocks stopped.  With
``--trace 1`` it wraps the library's public entry points (see spans.py),
runs one round of the workload's inputs traced and the same round untraced,
alternately, for ``--seconds`` seconds, and prints the per-layer metrics.  Either way the last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
status is 0 only if every operation and every check of the run passed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import pstats
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import spans
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_FIRST = 5  # set-ups timed before the first operation
SETUP_SPREAD = 20  # set-ups timed between rounds, evenly over the run
TAIL_BEYOND = 10  # operations beyond the reported tail percentile
# Wall time of a traced operation its spans may leave unaccounted for: the
# call into the root span and its own entry and exit take microseconds; the
# rest is room for the process being descheduled in between.
UNTRACED_S = 5e-3


def import_library():
    """A fresh import of germradius from this checkout's sources."""
    for name in [m for m in sys.modules
                 if m == "germradius" or m.startswith("germradius.")]:
        del sys.modules[name]
    gr = importlib.import_module("germradius")
    importlib.import_module("germradius.cli")
    if Path(gr.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"germradius imported from {gr.__file__}, not {SRC}")
    return gr


def set_up(workload, seed, workdir, index):
    """One timed set-up: a fresh import of the library, then the seeded
    inputs and their job files.  Returns (seconds, library, pool)."""
    gc.collect()
    start = perf_counter()
    gr = import_library()
    setup_dir = workdir / f"setup{index}"
    setup_dir.mkdir()
    pool = workload.generate(gr, random.Random(f"{workload.name}:{seed}"),
                             setup_dir)
    return perf_counter() - start, gr, pool


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """(value, percentile, operations beyond) for the highest percentile that
    leaves at least TAIL_BEYOND operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Client:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload, gr):
        self.workload = workload
        self.gr = gr
        self.attempted = 0
        self.failed = 0
        self.run_failures = 0
        self.errors = []

    def fail(self, inp, exc):
        self.failed += 1
        if len(self.errors) < 5:
            kind = "mismatch" if isinstance(exc, Mismatch) else type(exc).__name__
            self.errors.append(f"{inp.describe()}: {kind}: {exc}")

    def one(self, inp, run=None):
        """Run and check one operation; returns (latency, passed, the value
        the check extracted)."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = (run or self.workload.operate)(self.gr, inp)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            latency = perf_counter() - start
            self.fail(inp, exc)
            return latency, False, None
        latency = perf_counter() - start
        try:
            return latency, True, self.workload.check(inp, out)
        except Exception as exc:  # a wrong output is counted, the loop goes on
            self.fail(inp, exc)
            return latency, False, None

    def closing(self, completed):
        try:
            return self.workload.closing(self.gr, completed)
        except Exception as exc:  # reported as a failed check of the run
            self.fail_run(exc)
            return None

    def fail_run(self, exc):
        """A check of the whole run failed, not one operation."""
        self.run_failures += 1
        self.errors.append(f"run check: {type(exc).__name__}: {exc}")


def timed_run(client, pool, round_size, seconds, set_up_again):
    """Run whole rounds of the pool back to back until ``seconds`` have
    passed, so every run sees the same mix of shapes.  Every
    ``seconds / SETUP_SPREAD`` a set-up is timed between two rounds, with
    the loop's clocks stopped, so set-up is sampled over the same spell of
    the machine as the operations."""
    latencies = []
    completed = []
    wall = cpu = 0.0
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    next_setup = start + seconds / SETUP_SPREAD
    rounds = 0
    while not rounds or perf_counter() < deadline:
        first = rounds * round_size % len(pool)
        cpu0 = process_time()
        t0 = perf_counter()
        for inp in pool[first:first + round_size]:
            latency, passed, value = client.one(inp)
            latencies.append(latency)
            if passed:
                completed.append((inp, value))
        wall += perf_counter() - t0
        cpu += process_time() - cpu0
        rounds += 1
        if perf_counter() >= next_setup:
            set_up_again()
            next_setup += seconds / SETUP_SPREAD
    note = client.closing(completed)
    return latencies, wall, cpu, note


def end_to_end(latencies, wall, cpu, setups, client):
    n = len(latencies)
    value, pct, beyond = tail(latencies)
    rows = [
        ("ops_per_s", n / wall, "op/s", f"n={n} ops in {wall:.3f} s"),
        ("op_p50_s", statistics.median(latencies), "s", f"n={n} ops"),
        ("op_tail_s", value, "s", f"p{pct:.2f}, {beyond} ops beyond, n={n} ops"),
        ("cpu_per_op_s", cpu / n, "s", f"n={n} ops, {cpu:.3f} s CPU"),
        ("setup_s", statistics.median(setups), "s",
         f"median of n={len(setups)} set-ups"),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "n=1 process"),
    ]
    failed, attempted = client.failed, client.attempted
    return rows, ("fail_ratio", failed / attempted, "1",
                  f"{failed}/{attempted} operations")


def self_check(client, small):
    """Trace one small operation under cProfile too: the span counts of
    mul, derive and compose must equal cProfile's call counts."""
    gr = client.gr
    originals = {"pseries.mul": gr.pseries.TruncatedSeries.mul,
                 "pseries.derive": gr.pseries.TruncatedSeries.derive,
                 "pseries.compose": gr.pseries.compose}
    tracer = spans.Tracer()
    undo = spans.install(tracer, gr)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        try:
            client.one(small, lambda g, inp: tracer.run_op(
                client.workload.operate, g, inp))
        finally:
            profiler.disable()
    finally:
        spans.uninstall(undo)
    stats = pstats.Stats(profiler).stats
    lines = []
    for name, fn in originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        lines.append(f"{name}: spans {tracer.calls[name]}, cProfile {profiled}")
        if tracer.calls[name] != profiled:
            client.fail_run(Mismatch(f"span count differs: {lines[-1]}"))
    return lines


def check_coverage(client, tracer, wall):
    """The self times of the operation just traced must account for its wall
    time ``wall``, measured outside the tracer, to within UNTRACED_S.
    Returns the time they leave unaccounted for."""
    gap = wall - tracer.op_self_s
    if not 0 <= gap <= UNTRACED_S:
        client.fail_run(Mismatch(
            f"span self times sum to {tracer.op_self_s:.6f} s, "
            f"the operation took {wall:.6f} s"))
    return gap


def traced_run(client, pool, seconds):
    """Alternate a traced and an untraced pass over the workload's trace set
    until ``seconds`` have passed; per-layer figures are medians over the
    passes, counts must repeat exactly."""
    workload, gr = client.workload, client.gr
    ops = workload.trace_set(pool)
    notes = self_check(client, workload.small(pool))
    passes = []
    worst_gap = 0.0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        tracer = spans.Tracer()
        undo = spans.install(tracer, gr)
        try:
            report_bytes = 0
            completed = []
            t0 = perf_counter()
            for inp in ops:
                latency, passed, value = client.one(
                    inp, lambda g, i: tracer.run_op(workload.operate, g, i))
                worst_gap = max(worst_gap,
                                check_coverage(client, tracer, latency))
                if passed:
                    completed.append((inp, value))
                    if workload.writes_reports:
                        report_bytes += value
            t1 = perf_counter()
            tracer.run_op(client.closing, completed)
            worst_gap = max(worst_gap, check_coverage(
                client, tracer, perf_counter() - t1))
            traced = perf_counter() - t0
        finally:
            spans.uninstall(undo)
        if tracer.stack:
            client.fail_run(Mismatch(f"spans left open: {tracer.stack}"))
        t0 = perf_counter()
        completed = []
        for inp in ops:
            _, passed, value = client.one(inp)
            if passed:
                completed.append((inp, value))
        client.closing(completed)
        untraced = perf_counter() - t0
        metrics = spans.layer_metrics(tracer, report_bytes)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        passes.append(metrics)
    merged = {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "s":
            merged[name] = (statistics.median(values), unit)
        else:
            if any(v != value for v in values):
                client.fail_run(Mismatch(f"{name} differs between passes"))
            merged[name] = (value, unit)
    notes.append(f"{len(passes)} passes of {len(ops)} operations each")
    notes.append(f"span self times cover each traced operation's wall time "
                 f"to within {worst_gap * 1e6:.1f} us")
    return merged, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "germradius" / "__init__.py").is_file():
        print(f"perfbench: no germradius sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        setups = []
        for i in range(SETUP_FIRST):
            seconds, gr, pool = set_up(workload, args.seed, workdir, i)
            setups.append(seconds)
        library = {name: module for name, module in sys.modules.items()
                   if name.partition(".")[0] == "germradius"}

        def set_up_again():
            """Time one more set-up, then put back the library the client
            runs and free what the set-up made."""
            index = len(setups)
            seconds, _, _ = set_up(workload, args.seed, workdir, index)
            sys.modules.update(library)
            shutil.rmtree(workdir / f"setup{index}")
            gc.collect()
            setups.append(seconds)

        workload.prepare_oracles(pool)
        # Keep the benchmark's own inputs and oracles out of the collector's
        # scans, so garbage collection costs what the library's objects cost.
        gc.collect()
        gc.freeze()
        print(f"# perfbench workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} git={git_sha()} "
              f"python={platform.python_version()} "
              f"nproc={len(os.sched_getaffinity(0))}")
        print(f"# why: {workload.why}")
        print(f"# pool: {len(pool)} inputs, cycled in order")
        for k, inp in enumerate(pool):
            print(f"# input {k}: {inp.describe()}")
        client = Client(workload, gr)
        # One untimed operation first: in a fresh process the first call ran
        # about twice as long as the same call repeated.
        client.one(workload.small(pool))
        if args.trace:
            merged, notes = traced_run(client, pool, args.seconds)
            for note in notes:
                print(f"# trace: {note}")
            for name, (value, unit) in merged.items():
                print(f"{name:40s} {value:.6g} {unit}")
            metrics = merged
        else:
            latencies, wall, cpu, note = timed_run(
                client, pool, len(workload.trace_set(pool)), args.seconds,
                set_up_again)
            if note:
                print(f"# {note}")
            print("# set-ups (s): " + " ".join(f"{t:.4f}" for t in setups))
            rows, fail_row = end_to_end(latencies, wall, cpu, setups, client)
            for name, value, unit, samples in rows + [fail_row]:
                print(f"{name:14s} {value:.6g} {unit:5s} ({samples})")
            metrics = {name: (value, unit) for name, value, unit, _ in rows}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run's directory is still there
            pass
    for error in client.errors:
        print(f"# FAILED {error}")
    correct = client.failed == 0 and client.run_failures == 0
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
