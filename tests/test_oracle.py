"""Exhaustive ground truth: chromatic index, class partition, reachability."""
import itertools
import random

import linetrace
import pytest
from kempe_edge import oracle
from kempe_edge.errors import BudgetExceeded, ColorOutOfRange, PreconditionViolated
from kempe_edge.fixtures_gen import (
    figure1_pair,
    octahedron,
    overfull_delta5,
    petersen,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, delete_edges, is_proper
from kempe_edge.kempe_engine import Recorder, apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.oracle import chromatic_index, kempe_classes, same_class
from kempe_edge.reductions import equalize


def test_chromatic_index_triangle():
    chi, w = chromatic_index(Graph(3, [(1, 2), (2, 3), (1, 3)]))
    assert chi == 3 and is_proper(Graph(3, [(1, 2), (2, 3), (1, 3)]), w)


def test_chromatic_index_octahedron():
    g = octahedron()
    chi, w = chromatic_index(g)
    assert chi == 4
    assert is_proper(g, w) and w.t == 4


def test_chromatic_index_overfull():
    g = overfull_delta5()
    assert g.m == 16 and g.m > 5 * (g.n // 2)  # overfull arithmetic
    chi, w = chromatic_index(g)
    assert chi == 6
    assert is_proper(g, w)


def test_chromatic_index_within_vizing_bounds():
    rng = random.Random(4)
    for seed in range(25):
        n = rng.randint(3, 9)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.5
        ]
        if not edges:
            continue
        g = Graph(n, edges)
        chi, w = chromatic_index(g)
        assert g.max_degree() <= chi <= g.max_degree() + 1
        assert is_proper(g, w)


def test_chromatic_index_node_cap_binds():
    g = petersen()
    with pytest.raises(BudgetExceeded):
        chromatic_index(g, node_cap=5)
    # the root node alone is past a cap of 0
    with pytest.raises(BudgetExceeded, match="exceeded 0 nodes"):
        chromatic_index(g, node_cap=0)
    chi, w = chromatic_index(g)
    assert chi == 4 and w.t == 4 and is_proper(g, w)


def test_chromatic_index_runs_every_statement_of_its_pruning_hook():
    """The Hall-pruning hook runs whole: it finds the octahedron's
    4-coloring, prunes in the Petersen graph's failed 3-coloring search
    and raises at a small node cap.  Its `nonlocal` declaration never runs,
    so the tracer does not count it as a statement."""
    hook = "_search_coloring.accept"
    with linetrace.LineTracer(oracle) as tracer:
        assert chromatic_index(octahedron())[0] == 4
        assert chromatic_index(petersen())[0] == 4
        with pytest.raises(BudgetExceeded):
            chromatic_index(octahedron(), node_cap=3)
    stmts = [text for qual, text, _ in linetrace.statements(oracle).values() if qual == hook]
    assert stmts[0] == "near, far = plan[i]" and "nonlocal nodes" not in stmts
    assert not [key for key in linetrace.unexecuted(oracle, tracer.hit) if key[0] == hook]


def _cycle(n):
    return Graph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)])


@pytest.mark.parametrize("n, chi", [(1200, 2), (1201, 3)])
def test_chromatic_index_of_a_cycle_longer_than_the_recursion_limit(n, chi):
    g = _cycle(n)
    got, w = chromatic_index(g)
    assert got == chi and w.t == chi and is_proper(g, w)


def test_chromatic_index_palette_above_byte_range_is_typed():
    # K_{1,300}: the search finds a 300-coloring, which no EdgeColoring holds
    with pytest.raises(ColorOutOfRange):
        chromatic_index(Graph(301, [(1, v) for v in range(2, 302)]))


def _kempe_walk(g, f, steps, rng):
    rec = Recorder(g, f)
    for _ in range(steps):
        eid = rng.randrange(g.m)
        a = rec.colors[eid]
        rec.apply(a, rng.choice([c for c in range(1, f.t + 1) if c != a]), eid)
    return rec.coloring()


@pytest.mark.parametrize("n, seed, removed", [(28, 970, (17, 22)), (32, 428, (14, 18))])
def test_witness_free_equalize_past_the_old_budget_cliff(n, seed, removed):
    # Delta = 4 Class 1 graphs on which the unpruned chromatic-index search
    # ran out of its 20M nodes
    g4, witness = random_regular4_class1(n, seed)
    g, kept = delete_edges(g4, [g4.edge_id(*removed)])
    chi, w = chromatic_index(g)
    assert chi == 4 and is_proper(g, w)
    base = EdgeColoring(5, [witness.colors[eid] for eid in kept])
    rng = random.Random(seed)
    f = _kempe_walk(g, base, 20, rng)
    h = _kempe_walk(g, base, 20, rng)
    tr = equalize(g, f, h)
    assert apply_transcript(g, f, tr).colors == h.colors


def test_kempe_classes_single_edge():
    g = Graph(2, [(1, 2)])
    report = kempe_classes(g, 2)
    assert report.total_colorings == 2
    assert report.class_count == 1


def test_kempe_classes_path_longer_than_the_recursion_limit():
    # P_1201 has 1200 edges and one coloring at palette 2, up to renaming
    report = kempe_classes(Graph(1201, [(v, v + 1) for v in range(1, 1201)]), 2)
    assert report.total_colorings == 2
    assert report.class_count == 1


def test_kempe_classes_octahedron_palette4():
    report = kempe_classes(octahedron(), 4)
    assert report.total_colorings == 48
    assert report.class_count == 2
    assert sum(report.class_sizes) == report.total_colorings
    assert not report.truncated


def test_kempe_classes_fails_fast_past_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("neighbor sweep ran")

    monkeypatch.setattr(backend, "kempe_neighbors", refuse)
    with pytest.raises(BudgetExceeded, match="cap = 10"):
        kempe_classes(octahedron(), 5, cap=10)


def test_kempe_classes_relabel_invariance():
    # class count is invariant under a global color permutation composed with
    # a graph automorphism (spot check with one permutation)
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    base = kempe_classes(g, 3)
    # rotate vertices: automorphism of the 4-cycle
    g2 = Graph(4, [(2, 3), (3, 4), (1, 4), (1, 2)])
    rotated = kempe_classes(g2, 3)
    assert base.class_count == rotated.class_count
    assert sorted(base.class_sizes) == sorted(rotated.class_sizes)


def test_same_class_trivial_and_figure1():
    g = octahedron()
    f, h = figure1_pair()
    ok, tr = same_class(g, 4, f, f)
    assert ok and len(tr.moves) == 0
    ok4, _ = same_class(g, 4, f, h)
    assert not ok4
    ok5, tr5 = same_class(g, 5, EdgeColoring(5, f.colors), EdgeColoring(5, h.colors))
    assert ok5
    assert apply_transcript(g, EdgeColoring(5, f.colors), tr5).colors == h.colors


def test_same_class_budget():
    g = octahedron()
    f, h = figure1_pair()
    with pytest.raises(BudgetExceeded):
        same_class(g, 5, EdgeColoring(5, f.colors), EdgeColoring(5, h.colors), cap=10)


def test_same_class_transcript_is_shortest_is_consistent():
    # BFS transcript length equals the BFS distance; spot check that a found
    # transcript replays and no strictly shorter one exists for a tiny case
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(3, [1, 2])
    h = EdgeColoring(3, [2, 3])
    ok, tr = same_class(g, 3, f, h)
    assert ok
    assert apply_transcript(g, f, tr) == h
    assert len(tr.moves) <= 2


# the four far pairs of the benchmark's oracle workload, at their fixed
# labels: name -> (n, edges, f, h, Kempe distance at palette 5)
FAR_PAIRS = {
    "far-A m=7": (5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)),
                  (1, 4, 3, 3, 2, 2, 1), (5, 1, 2, 4, 3, 5, 4), 6),
    "far-D m=7": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)),
                  (1, 2, 1, 2, 1, 2, 3), (4, 3, 5, 4, 2, 5, 2), 7),
    "far-C m=8": (6, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5)),
                  (1, 3, 2, 3, 1, 2, 4, 2), (3, 4, 5, 1, 4, 5, 4, 5), 7),
    "far-B m=8": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4), (2, 5)),
                  (1, 3, 1, 3, 1, 3, 2, 2), (2, 4, 5, 2, 4, 5, 4, 5), 8),
}

# (states same_class expands, distinct (a, b)-edge sets its memo traces).
# Without the memo each expansion walked every pair with a color present:
# 1,530 / 3,740 / 3,929 / 15,297 pair walks.
FAR_PAIR_WORK = {
    "far-A m=7": (153, 68),
    "far-D m=7": (378, 99),
    "far-C m=8": (394, 139),
    "far-B m=8": (1533, 160),
}


@pytest.mark.parametrize("name", sorted(FAR_PAIRS))
def test_same_class_work_on_far_pairs(monkeypatch, name):
    n, edges, f0, h0, dist = FAR_PAIRS[name]
    g = Graph(n, list(edges))
    kernel = backend.kempe_neighbor_moves
    memos = []

    def counting(g, state, colors, chains=None):
        memos.append(chains)
        return kernel(g, state, colors, chains)

    monkeypatch.setattr(backend, "kempe_neighbor_moves", counting)
    ok, tr = same_class(g, 5, EdgeColoring(5, list(f0)), EdgeColoring(5, list(h0)))
    assert ok and len(tr.moves) == dist
    chains = memos[0]
    # one memo for the whole search, never the fallbacks' None
    assert isinstance(chains, dict) and all(c is chains for c in memos)
    assert (len(memos), len(chains)) == FAR_PAIR_WORK[name]


# far-A's search stores FAR_A_STATES distinct states when it finds the splice
# (the meeting state, held by both sides, counted once), and this shortest
# transcript; neither depends on how the search keys its states
FAR_A_STATES = 862
FAR_A_MOVES = [(2, 3, 2), (2, 4, 1), (3, 5, 5), (1, 5, 0), (1, 4, 2), (1, 2, 1)]


def test_same_class_budget_boundary_on_a_far_pair():
    n, edges, f0, h0, _ = FAR_PAIRS["far-A m=7"]
    g = Graph(n, list(edges))
    f, h = EdgeColoring(5, list(f0)), EdgeColoring(5, list(h0))
    ok, tr = same_class(g, 5, f, h, cap=FAR_A_STATES)
    assert ok and [tuple(mv) for mv in tr.moves] == FAR_A_MOVES
    with pytest.raises(BudgetExceeded, match=f"BFS exceeded {FAR_A_STATES - 1} states"):
        same_class(g, 5, f, h, cap=FAR_A_STATES - 1)


@pytest.mark.parametrize("cap", [0, -1])
def test_class_searches_refuse_a_cap_below_one(monkeypatch, cap):
    def refuse(*args):
        raise AssertionError("searched despite a cap below 1")

    monkeypatch.setattr(backend, "kempe_neighbor_moves", refuse)
    monkeypatch.setattr(backend, "enumerate_proper", refuse)
    g = octahedron()
    f, h = figure1_pair()
    f5, h5 = EdgeColoring(5, f.colors), EdgeColoring(5, h.colors)
    why = f"cap must be at least 1, got {cap}"
    for other in (h5, f5):  # also when f = h, which needs no search
        with pytest.raises(PreconditionViolated, match=f"same_class: {why}"):
            same_class(g, 5, f5, other, cap=cap)
    with pytest.raises(PreconditionViolated, match=f"kempe_classes: {why}"):
        kempe_classes(g, 5, cap=cap)
