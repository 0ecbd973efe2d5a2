"""Kernel work of the benchmark's produce pass, pinned exactly.

Transcripts are byte-identical from run to run, so the component reads a
produce pass makes are exact per op and seed: a change that keeps every
move but traces more fails here, not only on a clock.  Moves read bare
edge sets; an ordered trace must come from a probe, a caller that reads
the path.
"""
import sys
from unittest import mock

import pytest

from kempe_edge import vizing_reduce
from kempe_edge.graph_core import bicolored_subgraph
from kempe_edge.kempe_engine import Recorder
from kempe_edge.kernels import backend
from kempe_edge.regular4_core import _sides
from test_perfbench_digests import _workloads

# the function that calls trace_component -> the probes that may call it
# (None: it is the probe)
_PROBES = {
    Recorder.component.__code__: {Recorder.path_from.__code__, _sides.__code__},
    bicolored_subgraph.__code__: None,
}


@pytest.mark.parametrize("workload, traces, edge_sets", [
    # before moves read bare edge sets through the Recorder: 2,223
    # trace_component and 2,428 component_edges calls
    ("regular4", 1462, 3047),
    # before: 1,545 and 4,929
    ("equalize_mix", 744, 2412),
])
def test_produce_pass_kernel_calls_are_pinned(workload, traces, edge_sets):
    """The trace_component and component_edges calls of one produce pass
    over the seed-0 ops, and every trace_component call from a probe."""
    workloads = _workloads()
    calls = {"trace_component": 0, "component_edges": 0}
    real_trace, real_edges = backend.trace_component, backend.component_edges

    def trace(*args):
        caller = sys._getframe(1)
        assert caller.f_code in _PROBES, caller.f_code.co_name
        probes = _PROBES[caller.f_code]
        assert probes is None or caller.f_back.f_code in probes, caller.f_back.f_code.co_name
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
