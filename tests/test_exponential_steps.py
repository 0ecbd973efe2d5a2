"""Calls of the exponential routines from the product entries, as a ratchet.

Each routine below is wrapped with a counter wherever a module of the
package binds it, and every product entry runs over the golden inputs and a
few seeded larger instances.  The counts are exact (transcripts are fixed),
and each (entry, family) cell must equal its `PINNED` value, 0 when absent:
a count above its pin, or a new nonzero cell, is a hidden exponential step;
a count below it must lower the pin, so the table can only shrink.

Exempt by name: `degree4_lift._k5_coloring`, the odd-n padding gadget's
search.  It is cached and of constant size (at most 4^4 port-color keys).
"""
import collections
import contextlib
import sys

import pytest
from test_degree4_lift import _delta_plus_one_coloring
from test_golden_transcripts import _irregular4
from test_reductions import _cubic

from kempe_edge import cli, degree4_lift, fixtures_gen, oracle
from kempe_edge.acyclic_reduce import acyclic_reduce
from kempe_edge.degree4_lift import low_degree_equalize, transform_delta4
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    figure1_pair,
    octahedron,
    overfull_delta5,
    random_graph,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, write_coloring, write_graph
from kempe_edge.kernels import backend
from kempe_edge.reductions import equalize
from kempe_edge.vizing_reduce import reduce_to_delta_plus_one

ROUTINES = {
    "chromatic_index": oracle.chromatic_index,
    "_meet_in_middle": oracle._meet_in_middle,
    "same_class": oracle.same_class,
    "kempe_classes": oracle.kempe_classes,
    "enumerate_proper": backend.enumerate_proper,
    "_bfs_to_better": degree4_lift._bfs_to_better,
    "random_proper_coloring": fixtures_gen.random_proper_coloring,
}

# (entry, family) -> {routine: calls}, nonzero cells only
PINNED = {
    # chi' is certified by the exact oracle when no Delta-coloring witness
    # is given: maximum degree 4 and 5 without a witness, and the CLI's
    # `transform --to` with a 5-coloring target
    ("equalize", "delta4_no_witness"): {"chromatic_index": 1},
    ("equalize", "delta4_class2"): {"chromatic_index": 1},
    ("equalize", "delta5_overfull"): {"chromatic_index": 1},
    ("equalize", "delta5_acyclic"): {"chromatic_index": 1},
    ("cli transform", "octahedron_palette5"): {"chromatic_index": 1},
    # the subcubic search finds no single gaining interchange twice
    ("low_degree_equalize", "cubic"): {"_bfs_to_better": 2},
}


def _k5():
    return Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])


def _prism():
    return Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                     (1, 4), (2, 5), (3, 6)])


def _pair(g, t, s):
    return g, random_proper_coloring(g, t, s), random_proper_coloring(g, t, s + 1)


def _equalize_inputs():
    c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    yield "low_degree", [_pair(g, 4, 1) for g in (_prism(), c5)]
    yield "subcubic_above_delta_plus_one", [_pair(_prism(), 6, 1), _pair(_cubic(40, 0), 5, 1)]
    g, w = _irregular4(10, 4, 2)
    yield "delta4_witness", [(*_pair(g, 5, 1), w)]
    regular, witness = random_regular4_class1(24, 1)
    yield "delta4_witness_regular", [(*_pair(regular, 5, 3), witness)]
    yield "delta4_no_witness", [_pair(octahedron(), 5, 1)]
    yield "delta4_class2", [_pair(_k5(), 6, 1)]
    yield "delta5_overfull", [_pair(overfull_delta5(), 7, 1)]
    acyc = acyclic_max_degree_graph(5, seed=15, n_extra=8)
    yield "delta5_acyclic", [_pair(acyc, 6, 1)]


def _transform_delta4_inputs():
    regular = []
    for n in (16, 24, 40):
        for s in range(4):
            g, h = random_regular4_class1(n, s)
            regular.append((g, random_proper_coloring(g, 5, 100 + s), h))
    for n, s in ((320, 0), (640, 1)):
        g, h = random_regular4_class1(n, s)
        regular.append((g, _delta_plus_one_coloring(g, s), h))
    yield "regular", regular
    irregular = []
    for n, s, drop in ((10, 1, 2), (12, 2, 3), (16, 3, 5), (20, 4, 1)):
        g, h = _irregular4(n, s, drop)
        irregular.append((g, random_proper_coloring(g, 6 + s % 2, s), h))
    g, h = _irregular4(400, 5, 40)
    irregular.append((g, _delta_plus_one_coloring(g, 5), h))
    yield "irregular", irregular


def _low_degree_inputs():
    cubic = []
    for s in range(2):
        g = _cubic(400, s)
        cubic.append((g, _delta_plus_one_coloring(g, s), _delta_plus_one_coloring(g, s + 10)))
    yield "cubic", cubic


def _vizing_inputs():
    yield "random", [
        (g, random_proper_coloring(g, g.max_degree() + 3, s))
        for s, g in ((s, random_graph(40, 0.2, s)) for s in range(4))
    ]


def _acyclic_inputs():
    graphs = [
        (d, s, acyclic_max_degree_graph(d, seed=d * 10 + s, n_extra=12))
        for d in (3, 4, 5, 6) for s in range(3)
    ]
    yield "acyclic", [(g, random_proper_coloring(g, d + 1, s)) for d, s, g in graphs]


def _cli_transform_inputs(tmp_path):
    g = octahedron()
    f, h = figure1_pair()
    regular, witness = random_regular4_class1(40, 2)
    runs = []
    for name, graph, start, target in (
        ("figure1", g, EdgeColoring(5, f.colors), h),
        ("regular4", regular, random_proper_coloring(regular, 5, 7), witness),
        ("octahedron_palette5", g, *(random_proper_coloring(g, 5, s) for s in (1, 2))),
    ):
        paths = [tmp_path / f"{name}.{ext}" for ext in ("graph", "f", "h", "tr")]
        write_graph(paths[0], graph)
        write_coloring(paths[1], graph, start)
        write_coloring(paths[2], graph, target)
        runs.append((name, [
            "transform", "--graph", str(paths[0]), "--from", str(paths[1]),
            "--to", str(paths[2]), "--out", str(paths[3]),
        ]))
    return runs


def _entries(tmp_path):
    """(entry, family, call, argument tuples); inputs are built here, before
    any counting starts."""
    for family, args in _equalize_inputs():
        yield "equalize", family, equalize, args
    for family, args in _transform_delta4_inputs():
        yield "transform_delta4", family, transform_delta4, args
    for family, args in _low_degree_inputs():
        yield "low_degree_equalize", family, low_degree_equalize, args
    for family, args in _vizing_inputs():
        yield "reduce_to_delta_plus_one", family, reduce_to_delta_plus_one, args
    for family, args in _acyclic_inputs():
        yield "acyclic_reduce", family, acyclic_reduce, args
    for family, argv in _cli_transform_inputs(tmp_path):
        yield "cli transform", family, lambda argv: _exit_zero(cli.main(argv)), [(argv,)]


def _exit_zero(code):
    assert code == 0


@contextlib.contextmanager
def _counted(counts):
    """Wrap every binding of each routine in the package's modules (the
    defining module, and every module that imported it by name) with a
    counter into `counts`."""
    with pytest.MonkeyPatch.context() as mp:
        modules = [m for name, m in sys.modules.items()
                   if name == "kempe_edge" or name.startswith("kempe_edge.")]
        for routine, fn in ROUTINES.items():
            def counter(*args, _fn=fn, _routine=routine, **kwargs):
                counts[_routine] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        mp.setattr(module, name, counter)
        yield


def test_counters_wrap_every_binding():
    """Each routine is counted through its own module and through every
    module that imported it by name."""
    counts = collections.Counter()
    with _counted(counts):
        assert degree4_lift._meet_in_middle is not ROUTINES["_meet_in_middle"]
        assert oracle._meet_in_middle is not ROUTINES["_meet_in_middle"]
        oracle.chromatic_index(octahedron())
        fixtures_gen.random_proper_coloring(octahedron(), 5, 1)
    assert counts == {"chromatic_index": 1, "random_proper_coloring": 1}
    assert degree4_lift._meet_in_middle is ROUTINES["_meet_in_middle"]


def test_exponential_calls_are_pinned(tmp_path):
    seen = {}
    for entry, family, call, args in list(_entries(tmp_path)):
        counts = collections.Counter()
        with _counted(counts):
            for a in args:
                call(*a)
        seen[entry, family] = {r: n for r, n in sorted(counts.items()) if n}
    assert set(PINNED) <= set(seen), "a pinned cell has no workload"
    grown = {key: cell for key, cell in seen.items()
             if any(n > PINNED.get(key, {}).get(r, 0) for r, n in cell.items())}
    assert grown == {}, "more exponential calls than pinned"
    shrunk = {key: seen[key] for key, cell in PINNED.items() if seen[key] != cell}
    assert shrunk == {}, "fewer calls than pinned: lower the pin"
