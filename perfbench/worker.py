"""One workload in one process: set up, run whole passes, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Started by perfbench/run.py, which documents the output.  Every time
reported is scaled to the reference speed (perfbench/calibrate.py); the
raw seconds are in the record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import Calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "produce_p50_s": "s",
    "certify_p50_s": "s",
    "moves_per_edge": "moves/edge",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _setup(workload, seed, cal):
    """Import the package from this checkout and build the inputs."""
    cal.sample()
    t0 = cal.clock()
    sys.path.insert(0, str(SRC))
    import kempe_edge

    if not Path(kempe_edge.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"kempe_edge imported from {kempe_edge.__file__}, not {SRC}")
    import workloads

    ops = workloads.build(workload, seed)
    t1 = cal.clock()
    cal.sample()
    return ops, t1 - t0, cal.seconds(t0, t1)


class Passes:
    """Runs the op list in whole passes; one record per op run."""

    def __init__(self, ops, cal):
        import workloads

        self.ops = ops
        self.run_op = workloads.run_op
        self.cal = cal
        self.runs = []  # per pass: [(start, end, Outcome)] in op order
        self.failures = []

    def run(self):
        clock = self.cal.clock
        records = []
        for i, op in enumerate(self.ops):
            t0 = clock()
            out = self.run_op(op, clock)
            t1 = clock()
            if self.runs and out.ok:
                ref = self.runs[0][i][2]
                if ref.ok and ref.digest != out.digest:
                    out.ok, out.error = False, "result differs from the first pass"
            if not out.ok:
                self.failures.append(f"{op.label}: {out.error}")
                print(f"FAILED {op.label}: {out.error}", file=sys.stderr, flush=True)
            records.append((t0, t1, out))
        self.runs.append(records)

    def run_until(self, deadline):
        """At least one pass; another while it is expected to end less than
        half a pass after `deadline` (so a run lasts about --seconds)."""
        started = time.perf_counter()
        done = 0
        while True:
            self.run()
            done += 1
            now = time.perf_counter()
            if now + (now - started) / done / 2 >= deadline:
                return

    def scaled(self):
        """Per pass: (wall, [produce], [certify]) at reference speed."""
        at_reference = self.cal.seconds
        out = []
        for records in self.runs:
            wall, produce, certify = 0.0, [], []
            for t0, t1, o in records:
                wall += at_reference(t0, t1)
                produce.append(at_reference(*o.produce))
                if o.certify is not None:
                    certify.append(at_reference(*o.certify))
            out.append((wall, produce, certify))
        return out

    def raw_record(self):
        """Per pass and op: raw seconds of the op, its produce and certify."""
        return [
            [
                [t1 - t0, _span(o.produce), o.certify and _span(o.certify)]
                for t0, t1, o in records
            ]
            for records in self.runs
        ]


def _span(timing):
    start, end = timing
    return end - start


def _moves_per_edge(ops, records):
    ratios = [o.moves / op.g.m for op, (_, _, o) in zip(ops, records) if o.moves is not None]
    return statistics.fmean(ratios) if ratios else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cal = Calibration()
    ops, setup_raw, setup_s = _setup(args.workload, args.seed, cal)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    from kempe_edge import kernels

    import layers

    passes = Passes(ops, cal)
    start = time.perf_counter()
    traced = None
    untraced = 0
    with cal:
        if args.trace:
            # untraced passes for the first half: the baseline of the overhead
            passes.run_until(start + args.seconds / 2)
            untraced = len(passes.runs)
            traced = layers.Traced(cal.clock)
        passes.run_until(start + args.seconds)
        if traced:
            traced.stop()
    scaled = passes.scaled()
    first = passes.runs[0]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": kernels.BACKEND_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": [op.label for op in ops],
        "passes": len(passes.runs),
        "produce_samples": sum(len(p) for _, p, _ in scaled),
        "certify_samples": sum(len(c) for _, _, c in scaled),
        "transcript_sha256": {op.label: o.digest for op, (_, _, o) in zip(ops, first)},
        "failures": passes.failures,
        "reference_s": statistics.median(cal.took),
        "raw_s": {"setup": setup_raw, "ops": passes.raw_record()},
    }
    attempted = sum(len(r) for r in passes.runs)
    if traced:
        untraced_wall = statistics.median(w for w, _, _ in scaled[:untraced])
        traced_wall = statistics.median(w for w, _, _ in scaled[untraced:])
        k = statistics.median(
            cal.factor(records[0][0], records[-1][1]) for records in passes.runs[untraced:]
        )
        metrics = traced.metrics(
            passes=len(passes.runs) - untraced,
            scale=k,
            produce_s=statistics.fmean(sum(p) for _, p, _ in scaled[untraced:]),
            certify_s=statistics.fmean(sum(c) for _, _, c in scaled[untraced:]),
            backend_compiled=kernels.BACKEND_NAME != "python",
        )
        metrics["bench.untraced_wall_s"] = untraced_wall
        metrics["bench.traced_wall_s"] = traced_wall
        metrics["bench.trace_overhead_s"] = traced_wall - untraced_wall
        info["trace_overhead_s"] = traced_wall - untraced_wall
        units = {name: layers.unit(name) for name in metrics}
    else:
        produce = [x for _, p, _ in scaled for x in p]
        certify = [x for _, _, c in scaled for x in c]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(w for w, _, _ in scaled),
            "produce_p50_s": statistics.median(produce),
            "certify_p50_s": statistics.median(certify) if certify else 0.0,
            "moves_per_edge": _moves_per_edge(ops, first),
            "success_rate": 1.0 - len(passes.failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    print(json.dumps({
        "info": info,
        "attempted": attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
