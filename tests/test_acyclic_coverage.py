"""Statement coverage of the acyclic (Delta+1) -> Delta reduction, as a
ratchet.

The workload is the golden families that run `acyclic_reduce` (its own and
the peel's) plus every test of `test_acyclic_reduce`, each parametrized
case included, which drives Case A, the walk step and the round dispatch
on checked working states, run under `linetrace` limited
to the `acyclic_reduce` module.  A statement that is not a `raise` and does
not run must be named in `PINNED`; a pinned statement that runs, or is
gone, must leave the list, so the list can only shrink.  It is empty:
every such statement runs.
"""
import collections
import importlib

import linetrace
import test_acyclic_reduce
import test_golden_transcripts

# the package rebinds its `acyclic_reduce` attribute to the function
MODULE = importlib.import_module("kempe_edge.acyclic_reduce")
FAMILIES = ("acyclic_reduce", "equalize_peel")

# (function, statement text) -> how many such statements never run
PINNED = collections.Counter()


def _workload():
    for family in FAMILIES:
        for _ in test_golden_transcripts.GOLDEN[family][0]():
            pass
    for name, test in sorted(vars(test_acyclic_reduce).items()):
        if name.startswith("test_"):
            for case in linetrace.cases(test):
                test(**case)


def test_unexecuted_statements_are_pinned():
    with linetrace.LineTracer(MODULE) as tracer:
        _workload()
    missed = linetrace.unexecuted(MODULE, tracer.hit)
    missed = collections.Counter(
        {key[:2]: n for key, n in missed.items() if not key[2]}
    )
    assert missed - PINNED == collections.Counter(), "unexecuted, not pinned"
    assert PINNED - missed == collections.Counter(), "pinned, but runs or is gone"
