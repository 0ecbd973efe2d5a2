"""Top-class maximalization, peeling, and the equalize dispatch."""
import random

import pytest

from kempe_edge import oracle, reductions
from kempe_edge.errors import (
    ColorOutOfRange,
    MissingEdgeColor,
    NotProper,
    PaletteMismatch,
    PreconditionViolated,
    UnsupportedFamily,
)
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    figure1_pair,
    octahedron,
    overfull_delta5,
    petersen,
    random_graph,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper
from kempe_edge.kempe_engine import apply_transcript
from kempe_edge.oracle import chromatic_index, same_class
from kempe_edge.reductions import equalize, maximalize_top_class, peel_and_recurse
from kempe_edge.vizing_reduce import reduce_to_delta_plus_one


def k5():
    return Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])


def _is_maximal_matching(g, colors, top):
    covered = [False] * (g.n + 1)
    for eid, c in enumerate(colors):
        if c == top:
            u, v = g.edges[eid]
            covered[u] = covered[v] = True
    return all(covered[u] or covered[v] for u, v in g.edges)


def test_maximalize_already_maximal():
    g = Graph(3, [(1, 2), (2, 3)])
    h = EdgeColoring(3, [3, 1])
    out, tr = maximalize_top_class(g, h, 3)
    assert len(tr.moves) == 0 and out == h


def test_maximalize_two_edge_path():
    g = Graph(3, [(1, 2), (2, 3)])
    h = EdgeColoring(3, [1, 2])
    out, tr = maximalize_top_class(g, h, 3)
    assert len(tr.moves) == 1
    assert 3 in out.colors
    assert _is_maximal_matching(g, out.colors, 3)


@pytest.mark.parametrize("top", [0, 6, 9])
def test_maximalize_top_outside_palette_is_refused(top):
    g = octahedron()
    h = random_proper_coloring(g, 5, 0)
    with pytest.raises(ColorOutOfRange, match=f"color {top} not in 1..5"):
        maximalize_top_class(g, h, top)


def test_maximalize_random_graphs():
    for seed in range(30):
        g = random_graph(10, 0.4, seed)
        if g.m == 0:
            continue
        t = g.max_degree() + 1
        h = random_proper_coloring(g, t, seed)
        out, tr = maximalize_top_class(g, h, t)
        assert is_proper(g, out)
        assert _is_maximal_matching(g, out.colors, t)
        # every emitted move flips exactly one edge
        cur = h
        for mv in tr.moves:
            from kempe_edge.kernels import backend

            comp, _, _ = backend.trace_component(
                g, list(cur.colors), mv.a, mv.b, mv.rep_edge
            )
            assert len(comp) == 1
            cur = apply_transcript(g, cur, type(tr)([mv]))
        assert cur == out


def test_equalize_trivial_identity():
    g = octahedron()
    f = random_proper_coloring(g, 5, 0)
    assert len(equalize(g, f, f).moves) == 0


def test_equalize_octahedron_class1():
    g = octahedron()
    f = random_proper_coloring(g, 5, 1)
    h = random_proper_coloring(g, 5, 2)
    tr = equalize(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_equalize_palette_must_be_chi_plus_one():
    g = octahedron()
    f = random_proper_coloring(g, 6, 1)
    h = random_proper_coloring(g, 6, 2)
    with pytest.raises(PaletteMismatch):
        equalize(g, f, h)


def test_equalize_rejects_differing_palettes():
    g = octahedron()
    f = random_proper_coloring(g, 5, 1)
    h = random_proper_coloring(g, 6, 2)
    with pytest.raises(PaletteMismatch):
        equalize(g, f, h)


def test_k5_class2_peel():
    # Class 2 with Delta = 4: all proper 6-colorings are Kempe equivalent
    g = k5()
    chi, w = chromatic_index(g)
    assert chi == 5
    for seed in range(6):
        f = random_proper_coloring(g, 6, seed)
        h = random_proper_coloring(g, 6, seed + 50)
        tr = equalize(g, f, h)
        assert apply_transcript(g, f, tr, check=True).colors == h.colors
    # oracle agreement on one pair
    f = random_proper_coloring(g, 6, 0)
    h = random_proper_coloring(g, 6, 50)
    ok, _ = same_class(g, 6, f, h)
    assert ok


def test_peel_branch_hits_acyclic_reduction():
    # Delta(G1) = Delta(G) sub-case: the remainder's max-degree vertices are
    # pairwise non-adjacent, so the acyclic branch must fire
    g = k5()
    chi, w = chromatic_index(g)
    w_max, _ = maximalize_top_class(g, w, chi)
    f = random_proper_coloring(g, 6, 9)
    tr = peel_and_recurse(g, f, EdgeColoring(6, w_max.colors), w_max, chi)
    final = apply_transcript(g, f, tr, check=True)
    assert final.colors == w_max.colors


def _maximal_witness(g):
    chi, w = chromatic_index(g)
    return maximalize_top_class(g, w, chi)[0], chi


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("make", [k5, overfull_delta5], ids=["k5", "overfull5"])
def test_peel_carries_f_onto_h(make, seed):
    g = make()
    w_max, chi = _maximal_witness(g)
    f, h = (random_proper_coloring(g, chi + 1, s) for s in (seed, seed + 50))
    tr = peel_and_recurse(g, f, h, w_max, chi)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_peel_target_palette_must_be_chi_plus_one():
    g = k5()
    w_max, chi = _maximal_witness(g)
    f = random_proper_coloring(g, chi + 1, 1)
    h = random_proper_coloring(g, chi + 2, 2)
    with pytest.raises(PaletteMismatch):
        peel_and_recurse(g, f, h, w_max, chi)


def test_peel_witness_must_stay_within_chi_colors():
    g = k5()
    w_max, chi = _maximal_witness(g)
    f, h = (random_proper_coloring(g, chi + 1, s) for s in (1, 2))
    assert chi + 1 in f.colors
    with pytest.raises(PaletteMismatch):
        peel_and_recurse(g, f, h, f, chi)


def _overfull_peel_inputs():
    """overfull_delta5(), the oracle's 6-coloring (its class 6 is not
    maximal) and two proper 7-colorings."""
    g = overfull_delta5()
    chi, w = chromatic_index(g)
    assert chi == 6
    f, h = (random_proper_coloring(g, 7, s) for s in (1, 2))
    return g, w, f, h


def test_peel_rejects_a_witness_whose_top_class_is_not_maximal():
    g, w, f, h = _overfull_peel_inputs()
    with pytest.raises(PreconditionViolated, match="not maximal"):
        peel_and_recurse(g, f, h, w, 6)


def test_peel_rejects_chi_outside_the_vizing_bounds():
    g, w, _, _ = _overfull_peel_inputs()
    w_max, _ = maximalize_top_class(g, w, 6)
    # the maximal class 6 renamed 8: a proper witness at chi = 8 > Delta + 1
    w8 = EdgeColoring(8, [8 if c == 6 else c for c in w_max.colors])
    f, h = (random_proper_coloring(g, 9, s) for s in (1, 2))
    with pytest.raises(PreconditionViolated, match="outside Vizing bounds"):
        peel_and_recurse(g, f, h, w8, 8)


def test_peel_rejects_a_witness_missing_an_edge():
    g, w, f, h = _overfull_peel_inputs()
    w_max, _ = maximalize_top_class(g, w, 6)
    with pytest.raises(MissingEdgeColor):
        peel_and_recurse(g, f, h, EdgeColoring(6, w_max.colors[:-1]), 6)


def test_peel_rejects_an_improper_witness():
    g, _, f, h = _overfull_peel_inputs()
    with pytest.raises(NotProper, match="peel witness"):
        peel_and_recurse(g, f, h, EdgeColoring(6, [6] * g.m), 6)


@pytest.fixture()
def equalize_depths(monkeypatch):
    """The recursion depth of every `reductions.equalize` call, in call order."""
    depths = []
    depth = 0
    real = reductions.equalize

    def counted(*args, **kwargs):
        nonlocal depth
        depths.append(depth)
        depth += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth -= 1

    monkeypatch.setattr(reductions, "equalize", counted)
    return depths


@pytest.mark.parametrize("make, t", [(k5, 6), (overfull_delta5, 7)], ids=["k5", "overfull5"])
def test_each_peel_level_equalizes_once(equalize_depths, make, t):
    # both sides are peeled together, so every level recurses once, on the
    # remainder between the two sides, not once per side
    g = make()
    f, h = (random_proper_coloring(g, t, s) for s in (1, 2))
    tr = reductions.equalize(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors
    assert len(equalize_depths) >= 2
    assert equalize_depths == list(range(len(equalize_depths)))


def test_equalize_overfull_delta5():
    g = overfull_delta5()
    chi, _ = chromatic_index(g)
    assert chi == 6
    f = random_proper_coloring(g, 7, 1)
    h = random_proper_coloring(g, 7, 2)
    tr = equalize(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_equalize_theorem_1_6_family():
    for delta in (5, 6):
        g = acyclic_max_degree_graph(delta, seed=delta * 3, n_extra=8)
        f = random_proper_coloring(g, delta + 1, 1)
        h = random_proper_coloring(g, delta + 1, 2)
        tr = equalize(g, f, h)
        assert apply_transcript(g, f, tr, check=True).colors == h.colors
        # intermediate palette never exceeds chi'+1
        assert all(
            1 <= mv.a <= delta + 1 and 1 <= mv.b <= delta + 1 for mv in tr.moves
        )


def test_equalize_low_degree_class2():
    # triangle: Class 2 with Delta 2, palette chi'+1 = 4
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    f = EdgeColoring(4, [1, 2, 3])
    h = EdgeColoring(4, [4, 1, 2])
    tr = equalize(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_equalize_wrong_chi_is_a_precondition():
    # a caller's chi' the oracle contradicts is bad input, not a bug
    g, _ = random_regular4_class1(10, 1)
    f, h = (random_proper_coloring(g, 6, s) for s in (1, 2))
    with pytest.raises(PreconditionViolated, match="chi' = 4"):
        equalize(g, f, h, chi=5)


def test_equalize_unsupported_family():
    # K6: Class 1, Delta = 5, cyclic degree->=5 subgraph (the open case)
    g = Graph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    f = random_proper_coloring(g, 6, 1)
    h = random_proper_coloring(g, 6, 2)
    with pytest.raises(UnsupportedFamily):
        equalize(g, f, h)


def test_equalize_dispatch_totality_spot_checks():
    # every (Delta, class, acyclicity) combination lands in a branch or
    # raises UnsupportedFamily; spot-check one representative per family
    cases = []
    g1 = Graph(4, [(1, 2), (2, 3), (3, 4)])  # Delta 2 class 1
    cases.append((g1, 3))
    g2 = Graph(3, [(1, 2), (2, 3), (1, 3)])  # Delta 2 class 2
    cases.append((g2, 4))
    cases.append((octahedron(), 5))  # Delta 4 class 1
    cases.append((k5(), 6))  # Delta 4 class 2
    cases.append((overfull_delta5(), 7))  # Delta 5 class 2
    cases.append((acyclic_max_degree_graph(5, 33), 6))  # Delta 5 acyclic
    for g, t in cases:
        f = random_proper_coloring(g, t, 1)
        h = random_proper_coloring(g, t, 2)
        tr = equalize(g, f, h)
        assert apply_transcript(g, f, tr, check=True).colors == h.colors


def _cubic(n, seed):
    """The cycle 1..n (n even) plus a seeded perfect matching of chords: a
    cubic graph with the 3-coloring cycle 1, 2 alternating, chords 3."""
    rng = random.Random(seed)
    cycle = {tuple(sorted((v, v % n + 1))) for v in range(1, n + 1)}
    while True:
        vs = list(range(1, n + 1))
        rng.shuffle(vs)
        chords = {tuple(sorted(vs[i:i + 2])) for i in range(0, n, 2)}
        if not chords & cycle:
            return Graph(n, sorted(cycle | chords))


def _refuse_chromatic_index(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chromatic_index called")

    monkeypatch.setattr(oracle, "chromatic_index", refuse)


@pytest.mark.parametrize("t", [4, 5])
@pytest.mark.parametrize("make", [petersen, lambda: _cubic(100, 0)], ids=["petersen", "cubic100"])
def test_low_degree_equalize_never_calls_the_oracle(monkeypatch, make, t):
    # Petersen is Class 2, so palette 4 = Delta+1 = chi' used to be refused
    g = make()
    f, h = (random_proper_coloring(g, 5, s) for s in (1, 2))
    if t == 4:
        f, h = (reduce_to_delta_plus_one(g, c)[0] for c in (f, h))
    _refuse_chromatic_index(monkeypatch)
    tr = equalize(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_low_degree_palette_delta_is_refused(monkeypatch):
    g = _cubic(100, 0)
    cycle = {tuple(sorted((v, v % g.n + 1))): 1 + v % 2 for v in range(1, g.n + 1)}
    f = EdgeColoring(3, [cycle.get(e, 3) for e in g.edges])
    h = EdgeColoring(3, [{1: 2, 2: 1}.get(c, c) for c in f.colors])
    assert is_proper(g, f) and is_proper(g, h)
    _refuse_chromatic_index(monkeypatch)
    with pytest.raises(PaletteMismatch):
        equalize(g, f, h)


@pytest.fixture()
def oracle_calls(monkeypatch):
    """The graphs `oracle.chromatic_index` is called on, in call order."""
    calls = []
    real = oracle.chromatic_index

    def counted(g, *args, **kwargs):
        calls.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(oracle, "chromatic_index", counted)
    return calls


@pytest.mark.parametrize("g, t, witness", [
    (overfull_delta5(), 7, None),
    (acyclic_max_degree_graph(5, 3), 6, None),
    (octahedron(), 5, random_proper_coloring(octahedron(), 5, 3)),
], ids=["overfull5", "acyclic5", "octahedron-witness5"])
def test_equalize_certifies_chi_once(oracle_calls, g, t, witness):
    # the peel recursion hands the target's restriction down as its witness
    f, h = (random_proper_coloring(g, t, s) for s in (1, 2))
    tr = equalize(g, f, h, witness=witness)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors
    assert oracle_calls == [g]


def test_equalize_delta_coloring_witness_needs_no_oracle(oracle_calls):
    g = octahedron()
    f, h = (random_proper_coloring(g, 5, s) for s in (1, 2))
    tr = equalize(g, f, h, witness=figure1_pair()[0])
    assert apply_transcript(g, f, tr, check=True).colors == h.colors
    assert oracle_calls == []
