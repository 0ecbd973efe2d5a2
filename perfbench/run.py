#!/usr/bin/env python3
"""Benchmark of kempe-edge: seeded workloads, every output checked.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src``.
Each workload runs in its own process (perfbench/worker.py), closed loop,
one op at a time, for whole passes of its fixed op list, for about
``--seconds``.  Set-up (import plus input generation) is timed in
SETUP_REPS fresh processes and the median reported.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of perfbench/layers.py.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it holds the record of the run: backend,
Python version, nproc, the sha256 of every op's transcript, failures.
With ``--workload all`` every workload runs in turn and the metric names
of the last line carry the workload as a prefix.

perfbench/README.md says why each workload exists and which layer metric
should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("regular4", "dense_reduce", "oracle", "equalize_mix")
SETUP_REPS = 5
# a run must end within this many seconds of its start
RUN_LIMIT_S = 175


def _child(args, timeout):
    """Run the worker; its last stdout line is its JSON record."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_REPS):
            setup.append(_child(common + ["--setup-only"], deadline - time.monotonic())["setup_s"])
    record = _child(
        common + ["--seconds", str(seconds), "--trace", str(trace)],
        deadline - time.monotonic(),
    )
    if not trace:
        setup.append(record["metrics"]["setup_s"]["value"])
        record["metrics"]["setup_s"]["value"] = statistics.median(setup)
        record["info"]["setup_samples"] = setup
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kempe_edge").is_dir():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        rec = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        records[name] = rec
        for metric, m in rec["metrics"].items():
            print(f"{name:<13} {metric:<48} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"record": rec["info"]}))

    single = len(names) == 1
    result = {
        "correct": all(r["failed"] == 0 for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (metric if single else f"{name}.{metric}"): m
            for name, rec in records.items()
            for metric, m in rec["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
