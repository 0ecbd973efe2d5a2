"""Perfbench transcripts: every op of the four benchmark workloads at seeds 0
and 41, pinned by the sha256 that perfbench reports for it.

Each op is built by ``perfbench/workloads.build`` and run once by its
``run_op``, which produces, certifies by replay and digests the
``format_transcript`` text (or the oracle's report).  A change to the
engine that leaves transcripts alone must leave every digest here as it
is; a deliberate change to a transcript must say why and update only the
entries it changes in ``tests/data/perfbench_digests.json``.
"""
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((Path(__file__).resolve().parent / "data" / "perfbench_digests.json").read_text())


def _workloads():
    """perfbench/workloads.py as a module of its own name, so that the
    benchmark directory's other modules stay off the import path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("seed, workload", [
    (seed, workload) for seed in sorted(PINNED, key=int) for workload in sorted(PINNED[seed])
])
def test_perfbench_digests(seed, workload):
    workloads = _workloads()
    ops = workloads.build(workload, int(seed))
    got = {}
    for op in ops:
        out = workloads.run_op(op, time.perf_counter)
        assert out.ok, (op.label, out.error)
        got[op.label] = out.digest
    assert len(got) == len(ops)  # labels are unique
    assert got == PINNED[seed][workload]


def test_every_workload_and_seed_is_pinned():
    assert sorted(PINNED) == ["0", "41"]
    for seed in PINNED:
        assert sorted(PINNED[seed]) == sorted(_workloads().BUILDERS)
