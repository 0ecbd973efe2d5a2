#!/usr/bin/env python3
"""Scaling curve of `transform_delta4` on 4-regular graphs, two checkouts.

    python3 scripts/regular4_scale.py --parent DIR [--n 1280 2560 5120]
        [--seeds 1 2 3] [--out BENCH_regular4_scale.json]

For each n and seed, the input is `random_regular4_class1(n, seed)` with
its witness 4-coloring as the target, started from the benchmark's greedy
7-coloring (`perfbench.workloads.greedy_coloring`, `random.Random(seed)`).
Each measurement runs in a fresh process that imports the package from
`src/` of its checkout, the parent's (`--parent`) or this one's, the
parent first on odd seeds.  Times are scaled to the benchmark's reference
speed (`perfbench/calibrate.py`), and the curve (medians per n and their
ratios per doubling of n) is written in raw seconds beside the scaled ones.
Scaling corrects each run by its own calibration, so it can turn a raw
speed-up into a scaled slow-down or the reverse: each row records its
change/parent ratio in both units and is marked `scaled_raw_disagree` when
they fall on opposite sides of 1.  The transcript
sha256 of both checkouts is recorded, so a change that should keep
transcripts can be checked on the curve too: the script exits 1, after
writing its output, when any pair differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(src: Path, n: int, seed: int) -> dict:
    """One transform on the checkout whose package is under `src`."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from calibrate import Calibration
    from workloads import greedy_coloring

    from kempe_edge.degree4_lift import transform_delta4
    from kempe_edge.fixtures_gen import random_regular4_class1
    from kempe_edge.kempe_engine import format_transcript

    g, h = random_regular4_class1(n, seed)
    f = greedy_coloring(g, 7, random.Random(seed))
    with Calibration() as cal:
        t0 = cal.clock()
        tr = transform_delta4(g, f, h)
        t1 = cal.clock()
    return {
        "scaled_s": round(cal.seconds(t0, t1), 4),
        "raw_s": round(t1 - t0, 4),
        "moves": len(tr),
        "transcript_sha256": hashlib.sha256(format_transcript(g, tr).encode()).hexdigest(),
    }


def run_one(src: Path, n: int, seed: int) -> dict:
    cmd = [sys.executable, __file__, "--one", str(src), "--n", str(n), "--seeds", str(seed)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def compare(row: dict) -> None:
    """Add the row's change/parent time ratios, scaled and raw, and whether
    they point opposite ways."""
    ratio = {
        unit: round(row["change"][f"{unit}_s"] / row["parent"][f"{unit}_s"], 3)
        for unit in ("scaled", "raw")
    }
    row["change_over_parent"] = ratio
    row["scaled_raw_disagree"] = (ratio["scaled"] - 1) * (ratio["raw"] - 1) < 0


def curve(rows, ns) -> dict:
    """Per side: the median seconds per n and their ratios per doubling of
    n, scaled and raw."""
    out = {}
    for side in ("parent", "change"):
        out[side] = {}
        for unit in ("scaled", "raw"):
            med = {n: statistics.median(r[side][f"{unit}_s"] for r in rows if r["n"] == n)
                   for n in ns}
            out[side][f"median_{unit}_s"] = {str(n): round(s, 4) for n, s in med.items()}
            key = "per_doubling" if unit == "scaled" else "per_doubling_raw"
            out[side][key] = [round(med[b] / med[a], 2) for a, b in zip(ns, ns[1:])]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--n", type=int, nargs="+", default=[1280, 2560, 5120])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--one", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one, args.n[0], args.seeds[0])))
        return
    if args.parent is None:
        ap.error("--parent is required")
    sides = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    rows = []
    for n in args.n:
        for seed in args.seeds:
            row = {"n": n, "seed": seed}
            order = list(sides) if seed % 2 else list(sides)[::-1]
            for side in order:
                row[side] = run_one(sides[side], n, seed)
            compare(row)
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    out = {
        "what": "transform_delta4 on random_regular4_class1(n, seed) from a greedy 7-coloring",
        "unit": "seconds scaled to the perfbench reference speed (*_raw_s, *_raw: unscaled)",
        "python": sys.version.split()[0],
        "date": time.strftime("%Y-%m-%d"),
        "same_transcripts": all(
            r["parent"]["transcript_sha256"] == r["change"]["transcript_sha256"] for r in rows
        ),
        "curve": curve(rows, args.n),
        "scaled_raw_disagree": [[r["n"], r["seed"]] for r in rows if r["scaled_raw_disagree"]],
        "rows": rows,
    }
    text = json.dumps(out, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    if not out["same_transcripts"]:
        print("transcripts differ between the checkouts", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
