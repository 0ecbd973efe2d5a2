"""Kernel work of the benchmark's produce pass, pinned exactly.

Transcripts are byte-identical from run to run, so the component reads a
produce pass makes are exact per op and seed: a change that keeps every
move but traces more fails here, not only on a clock.  Moves and path
probes read bare edge sets; an ordered trace must come from one of the
two callers that need the order, the case machine's side split and
bicolored_subgraph.  Every coloring check is the one mask pass of graph_core, so
the scans of each input coloring are pinned too; the set-based
properness kernel runs only as a transform's final self-check.
"""
import sys
from collections import Counter
from unittest import mock

import pytest

from kempe_edge import graph_core, vizing_reduce
from kempe_edge.degree4_lift import transform_delta4
from kempe_edge.fixtures_gen import random_proper_coloring, random_regular4_class1
from kempe_edge.graph_core import bicolored_subgraph
from kempe_edge.kempe_engine import Recorder
from kempe_edge.kernels import backend
from kempe_edge.reductions import equalize
from kempe_edge.regular4_core import _sides
from test_perfbench_digests import _workloads

# the functions that call trace_component, the two readers of an ordered
# component
_PROBES = {_sides.__code__, bicolored_subgraph.__code__}


@pytest.mark.parametrize("workload, traces, edge_sets", [
    # before moves read bare edge sets through the Recorder: 2,223
    # trace_component and 2,428 component_edges calls; before path_from
    # read the bare edge set: 1,462 and 3,047
    ("regular4", 1295, 3173),
    # before: 1,545 and 4,929; before the projection read a top component
    # lying wholly in g no second time: 744 and 2,412; before path_from
    # read the bare edge set: 744 and 2,370
    ("equalize_mix", 703, 2400),
])
def test_produce_pass_kernel_calls_are_pinned(workload, traces, edge_sets):
    """The trace_component and component_edges calls of one produce pass
    over the seed-0 ops, and every trace_component call from one of the
    two readers of an ordered component."""
    workloads = _workloads()
    calls = {"trace_component": 0, "component_edges": 0}
    real_trace, real_edges = backend.trace_component, backend.component_edges

    def trace(*args):
        caller = sys._getframe(1).f_code
        assert caller in _PROBES, caller.co_name
        calls["trace_component"] += 1
        return real_trace(*args)

    def edges(*args):
        calls["component_edges"] += 1
        return real_edges(*args)

    ops = workloads.build(workload, 0)
    with mock.patch.object(backend, "trace_component", trace), \
            mock.patch.object(backend, "component_edges", edges):
        for op in ops:
            workloads._produce(op)
    assert calls == {"trace_component": traces, "component_edges": edge_sets}


@pytest.mark.parametrize("workload, fans", [
    # before a one-edge fan was one recolor with no fan grown: 9,569
    ("dense_reduce", 1),
    # before: 1,442
    ("regular4", 352),
    # before: 129
    ("equalize_mix", 59),
])
def test_produce_pass_fan_growths_are_pinned(workload, fans):
    """The fans the palette reductions grow in one produce pass over the
    seed-0 ops: an offending edge with an allowed color free at both ends
    is recolored without one."""
    workloads = _workloads()
    calls = [0]
    real = vizing_reduce.extend_fan

    def extend_fan(*args):
        calls[0] += 1
        return real(*args)

    ops = workloads.build(workload, 0)
    with mock.patch.object(vizing_reduce, "extend_fan", extend_fan):
        for op in ops:
            workloads._produce(op)
    assert calls[0] == fans


def _self_check_only(real, calls):
    """backend.is_proper, failing unless called by Recorder.check_proper,
    and counting its calls in calls[0]."""
    def is_proper(*args):
        caller = sys._getframe(1).f_code
        assert caller is Recorder.check_proper.__code__, caller.co_name
        calls[0] += 1
        return real(*args)

    return is_proper


@pytest.mark.parametrize("workload, calls", [
    # before every check was the mask pass: 24, 388, 12 and 5
    ("regular4", 8),
    ("equalize_mix", 40),
    ("oracle", 0),
    ("dense_reduce", 5),
])
def test_produce_pass_runs_the_properness_kernel_only_as_a_self_check(workload, calls):
    """The set-based properness kernel is Recorder.check_proper's, whose
    algorithm shares nothing with the masks it verifies; every other check
    of one produce pass over the seed-0 ops is the mask pass."""
    workloads = _workloads()
    count = [0]
    ops = workloads.build(workload, 0)
    with mock.patch.object(backend, "is_proper", _self_check_only(backend.is_proper, count)):
        for op in ops:
            workloads._produce(op)
    assert count[0] == calls


def _count_scans(monkeypatch):
    """Wrap every binding of graph_core's one mask pass in the package, and
    return the Counter of scans by the scanned colors, as a tuple."""
    real = graph_core._scan_masks
    scans = Counter()

    def scan(g, colors, t):
        scans[tuple(colors)] += 1
        return real(g, colors, t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kempe_edge" and getattr(module, "_scan_masks", None) is real:
            monkeypatch.setattr(module, "_scan_masks", scan)
    monkeypatch.setattr(backend, "is_proper", _self_check_only(backend.is_proper, [0]))
    return scans


def test_equalize_scans_of_each_input_coloring_are_pinned(monkeypatch):
    """equalize at palette 5 on a Class 1 4-regular graph, routed through
    the common 4-coloring w: each side's transform_delta4 checks its start
    in equalize, on entry, in the case machine and in the final replay,
    and w as the target twice more per side."""
    g, w = random_regular4_class1(24, 1)
    f = random_proper_coloring(g, 5, 1)
    h = random_proper_coloring(g, 5, 2)
    scans = _count_scans(monkeypatch)
    equalize(g, f, h, witness=w)
    got = {k: scans[c.colors] for k, c in (("f", f), ("h", h), ("w", w))}
    assert got == {"f": 4, "h": 4, "w": 5}


@pytest.mark.parametrize("t, f_scans, h_scans", [
    # from palette 7 f is checked by the reduction's working state and the
    # final replay; at palette 5 also on entry
    (7, 2, 2),
    (5, 3, 2),
])
def test_transform_delta4_scans_of_each_input_coloring_are_pinned(monkeypatch, t, f_scans, h_scans):
    """h is checked as the target on entry and again in the case machine."""
    g, h = random_regular4_class1(24, 1)
    f = random_proper_coloring(g, t, 3)
    scans = _count_scans(monkeypatch)
    transform_delta4(g, f, h)
    assert (scans[f.colors], scans[h.colors]) == (f_scans, h_scans)
