"""The oracle against verbatim copies of its labeled predecessors.

The ``_ref_*`` functions below are the neighbor kernels, the labeled
enumeration, the labeled class sweep, the one-sided BFS and the coloring
search as they were before the table-driven kernel, the palette quotient of
``kempe_classes``, the bidirectional ``same_class`` and the Hall pruning of
``_search_coloring``.  Only their names, and the names of the reference
functions they call, are changed.
"""
import itertools
import random
from collections import deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kempe_edge._kernels_py import _enum_order
from kempe_edge.errors import BudgetExceeded, PreconditionViolated, UnsupportedFamily
from kempe_edge.fixtures_gen import (
    figure1_pair,
    octahedron,
    overfull_delta5,
    petersen,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, delete_edges
from kempe_edge.kempe_engine import KempeMove, Transcript, apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.oracle import (
    KempeClassReport,
    _search_coloring,
    _UnionFind,
    chromatic_index,
    kempe_classes,
    same_class,
)
from kempe_edge.reductions import equalize

trace_component = backend.trace_component


# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------


def _ref_components_of_pair(g, colors, a, b):
    comps = []
    seen = [False] * g.m
    for eid in range(g.m):
        if seen[eid] or colors[eid] not in (a, b):
            continue
        es, _, _ = trace_component(g, colors, a, b, eid)
        for e in es:
            seen[e] = True
        comps.append(es)
    return comps


def _ref_kempe_neighbors(g, state, t):
    """All states one Kempe interchange away from `state` (bytes)."""
    colors = list(state)
    out = []
    for a in range(1, t + 1):
        for b in range(a + 1, t + 1):
            for es in _ref_components_of_pair(g, colors, a, b):
                nxt = bytearray(state)
                for e in es:
                    nxt[e] = b if nxt[e] == a else a
                out.append(bytes(nxt))
    return out


def _ref_kempe_neighbor_moves(g, state, t, color_set=None):
    """Like kempe_neighbors but yields (a, b, rep_edge, next_state).

    `color_set` restricts the move colors when given (used by the bounded
    searches that must not leave a sub-palette).
    """
    colors = list(state)
    cs = sorted(color_set) if color_set is not None else list(range(1, t + 1))
    out = []
    for i, a in enumerate(cs):
        for b in cs[i + 1:]:
            for es in _ref_components_of_pair(g, colors, a, b):
                nxt = bytearray(state)
                for e in es:
                    nxt[e] = b if nxt[e] == a else a
                out.append((a, b, min(es), bytes(nxt)))
    return out


def _ref_enumerate_proper(g, t, cap):
    """All proper t-colorings as bytes, or (partial, True) when cap is hit."""
    m = g.m
    order = backend._enum_order(g)
    colors = bytearray(m)
    used = [0] * (g.n + 1)  # bitmask of colors at each vertex
    out = []
    truncated = False

    def rec(i):
        nonlocal truncated
        if truncated:
            return
        if i == m:
            if len(out) >= cap:
                truncated = True
                return
            out.append(bytes(colors))
            return
        e = order[i]
        u, v = g.edges[e]
        avail = ~(used[u] | used[v])
        for c in range(1, t + 1):
            bit = 1 << c
            if avail & bit:
                colors[e] = c
                used[u] |= bit
                used[v] |= bit
                rec(i + 1)
                used[u] &= ~bit
                used[v] &= ~bit
                if truncated:
                    return
        colors[e] = 0

    rec(0)
    return out, truncated


def _ref_kempe_classes(g, t, cap=5_000_000):
    """The sequential (jobs=1) labeled sweep."""
    states, truncated = _ref_enumerate_proper(g, t, cap)
    index = {s: i for i, s in enumerate(states)}
    uf = _UnionFind(len(states))
    for i, s in enumerate(states):
        for nxt in _ref_kempe_neighbors(g, s, t):
            j = index.get(nxt)
            if j is None:
                raise BudgetExceeded("state space truncated mid-sweep")
            uf.union(i, j)
    roots = {}
    sizes = []
    reps = []
    for i, s in enumerate(states):
        r = uf.find(i)
        if r not in roots:
            roots[r] = len(sizes)
            sizes.append(0)
            reps.append(EdgeColoring(t, list(s)))
        sizes[roots[r]] += 1
    return KempeClassReport(
        palette=t,
        total_colorings=len(states),
        class_count=len(sizes),
        class_sizes=tuple(sizes),
        representatives=tuple(reps),
        truncated=truncated,
    )


def _ref_same_class(g, t, f, h, cap=5_000_000):
    """The one-sided labeled BFS (input checks left out)."""
    start = bytes(f.colors)
    goal = bytes(h.colors)
    if start == goal:
        return True, Transcript()
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for a, b, rep, nxt in _ref_kempe_neighbor_moves(g, cur, t):
            if nxt in parent:
                continue
            parent[nxt] = (cur, KempeMove(a, b, rep))
            if nxt == goal:
                moves = []
                node = nxt
                while parent[node] is not None:
                    prev, mv = parent[node]
                    moves.append(mv)
                    node = prev
                moves.reverse()
                return True, Transcript(moves)
            queue.append(nxt)
            if len(parent) > cap:
                raise BudgetExceeded(f"BFS exceeded {cap} states")
    return False, None


def _ref_search_coloring(g: Graph, t: int, node_cap: int):
    """One proper t-coloring via backtracking, or None.  Breaks color-class
    symmetry by allowing at most one fresh color per step."""
    m = g.m
    if m == 0:
        return []
    order = _enum_order(g)
    colors = [0] * m
    used = [0] * (g.n + 1)
    nodes = 0

    def rec(i, maxc):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"backtracking exceeded {node_cap} nodes")
        if i == m:
            return True
        eid = order[i]
        u, v = g.edges[eid]
        avail = ~(used[u] | used[v])
        top = min(t, maxc + 1)
        for c in range(1, top + 1):
            bit = 1 << c
            if avail & bit:
                colors[eid] = c
                used[u] |= bit
                used[v] |= bit
                if rec(i + 1, max(maxc, c)):
                    return True
                used[u] &= ~bit
                used[v] &= ~bit
        colors[eid] = 0
        return False

    return colors[:] if rec(0, 0) else None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@st.composite
def _graphs(draw, max_n, max_m):
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_m, unique=True))
    return Graph(n, edges)


@st.composite
def _graph_coloring(draw, max_m=8, extra=(1, 2)):
    """(graph, t, proper t-coloring) with t = Delta + one of `extra`."""
    g = draw(_graphs(7, max_m))
    t = g.max_degree() + draw(st.sampled_from(extra))
    return g, t, random_proper_coloring(g, t, draw(st.integers(0, 10_000)))


def _report_key(rep):
    return (
        rep.palette,
        rep.total_colorings,
        rep.class_count,
        rep.class_sizes,
        tuple(tuple(r.colors) for r in rep.representatives),
        tuple(r.t for r in rep.representatives),
        rep.truncated,
    )


# ---------------------------------------------------------------------------
# Neighbor kernels
# ---------------------------------------------------------------------------


def _assert_kernels_match(g, state, t, color_set):
    want = _ref_kempe_neighbor_moves(g, state, t, color_set)
    assert backend.kempe_neighbor_moves(g, state, t, color_set) == want
    assert backend.kempe_neighbors(g, state, t, color_set) == [nxt for *_, nxt in want]


@settings(max_examples=200, deadline=None, database=None)
@given(case=_graph_coloring(extra=(1, 2, 3)), data=st.data())
def test_neighbor_kernels_match_reference(case, data):
    g, t, f = case
    state = bytes(f.colors)
    _assert_kernels_match(g, state, t, None)
    # a sub-palette that may drop used colors and add absent ones
    subset = data.draw(st.sets(st.integers(1, t + 2), max_size=t + 2))
    _assert_kernels_match(g, state, t, subset)
    _assert_kernels_match(g, state, t, tuple(range(1, t + 1)))


@settings(max_examples=100, deadline=None, database=None)
@given(case=_graph_coloring(extra=(1, 2)), data=st.data())
def test_neighbor_kernels_match_reference_on_high_colors(case, data):
    # colors renamed into 1..70, so c and c + 32 (and c + 64) both occur
    g, t, f = case
    names = data.draw(st.lists(
        st.sampled_from((1, 2, 32, 33, 34, 64, 65, 66, 70)),
        min_size=t, max_size=t, unique=True,
    ))
    state = bytes(names[c - 1] for c in f.colors)
    _assert_kernels_match(g, state, 70, None)
    extra = data.draw(st.sets(st.integers(1, 255), max_size=4))
    _assert_kernels_match(g, state, 255, set(names) | extra)
    _assert_kernels_match(g, state, 255, set(names[:2]) | extra)


def test_neighbor_kernels_c_and_c_plus_32_are_different_colors():
    path = Graph(3, [(1, 2), (2, 3)])
    for state, t in ((bytes([1, 33]), 33), (bytes([32, 64]), 64), (bytes([1, 65]), 65)):
        _assert_kernels_match(path, state, t, None)
        _assert_kernels_match(path, state, t, {1, 32, 33, 64, 65})
        # the pair of the two colors swaps the whole path
        a, b = sorted(state)
        assert (a, b, 0, bytes(reversed(state))) in backend.kempe_neighbor_moves(path, state, t)


@settings(max_examples=60, deadline=None, database=None)
@given(case=_graph_coloring(extra=(1, 2)), data=st.data())
def test_neighbor_kernel_memo_matches_reference_along_a_walk(case, data):
    # one memo kept over a random Kempe walk on one graph, as a search keeps
    # it; the colors are renamed to high names, and the walk's palette holds
    # at least two absent colors, so pairs (a, x) and (a, y) with x, y
    # absent share the edge set E_a but swap it to different colors
    g, t, f = case
    pool = (1, 2, 32, 33, 34, 64, 65, 66, 96, 255)
    names = data.draw(st.lists(st.sampled_from(pool), min_size=t, max_size=t, unique=True))
    absent = data.draw(st.sets(st.sampled_from(sorted(set(pool) - set(names))), min_size=2))
    palette = sorted(set(names) | absent)
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    state = bytes(names[c - 1] for c in f.colors)
    chains = {}
    for _ in range(24):
        sub = rng.sample(palette, rng.randint(2, len(palette)))
        for colors in (sub, palette):
            want = _ref_kempe_neighbor_moves(g, state, 255, colors)
            # with a memo the kernel's states are ints, one byte per edge id
            s = int.from_bytes(state, "little")
            want_int = [(a, b, rep, int.from_bytes(nxt, "little")) for a, b, rep, nxt in want]
            assert backend.kempe_neighbor_moves(g, s, 255, colors, chains) == want_int
            assert backend.kempe_neighbors(g, s, 255, colors, chains) == [
                nxt for *_, nxt in want_int
            ]
            assert backend.kempe_neighbor_moves(g, state, 255, colors, None) == want
        # the whole palette holds a present color and an absent one
        state = rng.choice(want)[3]


# ---------------------------------------------------------------------------
# same_class
# ---------------------------------------------------------------------------


def _assert_same_class_matches(g, t, f, h):
    ok, tr = same_class(g, t, f, h)
    ref_ok, ref_tr = _ref_same_class(g, t, f, h)
    assert ok == ref_ok
    if ok:
        assert len(tr.moves) == len(ref_tr.moves)
        assert apply_transcript(g, f, tr, check=True).colors == h.colors
    else:
        assert tr is None


@settings(max_examples=60, deadline=None, database=None)
@given(case=_graph_coloring(max_m=8, extra=(1,)), seed=st.integers(0, 10_000))
def test_same_class_matches_labeled_bfs(case, seed):
    g, t, f = case
    _assert_same_class_matches(g, t, f, random_proper_coloring(g, t, seed))


@settings(max_examples=40, deadline=None, database=None)
@given(case=_graph_coloring(max_m=6, extra=(2,)), seed=st.integers(0, 10_000))
def test_same_class_matches_labeled_bfs_at_delta_plus_two(case, seed):
    g, t, f = case
    _assert_same_class_matches(g, t, f, random_proper_coloring(g, t, seed))


def test_same_class_figure1_and_budget():
    g = octahedron()
    f, h = figure1_pair()
    _assert_same_class_matches(g, 4, f, h)
    assert same_class(g, 4, f, h) == (False, None)
    f5, h5 = EdgeColoring(5, f.colors), EdgeColoring(5, h.colors)
    with pytest.raises(BudgetExceeded):
        same_class(g, 5, f5, h5, cap=10)
    ok, tr = same_class(g, 5, f5, h5)
    assert ok and apply_transcript(g, f5, tr, check=True).colors == h.colors


# ---------------------------------------------------------------------------
# kempe_classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [4, 5])
def test_kempe_classes_octahedron_matches_labeled_sweep(t):
    g = octahedron()
    assert _report_key(kempe_classes(g, t)) == _report_key(_ref_kempe_classes(g, t))


@settings(max_examples=60, deadline=None, database=None)
@given(g=_graphs(6, 8), extra=st.sampled_from((0, 1, 2)))
def test_kempe_classes_matches_labeled_sweep(g, extra):
    t = g.max_degree() + extra
    assume(t * g.m <= 32)  # keeps the labeled reference under ~10^4 states
    assert _report_key(kempe_classes(g, t)) == _report_key(_ref_kempe_classes(g, t))


def test_kempe_classes_runs_on_one_process():
    with pytest.raises(PreconditionViolated, match="jobs must be 1, got 2"):
        kempe_classes(octahedron(), 4, jobs=2)
    assert kempe_classes(octahedron(), 4, jobs=1).class_count >= 1


def test_kempe_classes_high_palette_path_is_instant():
    # 255 * 254 labeled colorings, one orbit
    report = kempe_classes(Graph(3, [(1, 2), (2, 3)]), 255)
    assert report.total_colorings == 64770
    assert report.class_count == 1
    assert report.class_sizes == (64770,)
    assert not report.truncated


def test_kempe_classes_cap_counts_orbits():
    g = octahedron()
    orbits = len(backend.enumerate_proper(g, 5, 10**6)[0])
    assert orbits < 11760
    report = kempe_classes(g, 5, cap=orbits)
    assert (report.total_colorings, report.class_count, report.truncated) == (11760, 1, False)
    with pytest.raises(BudgetExceeded):
        kempe_classes(g, 5, cap=orbits - 1)


# ---------------------------------------------------------------------------
# chromatic-index search
# ---------------------------------------------------------------------------


class _NodeCount(int):
    """A `node_cap` that counts the search's comparisons against it: one
    per node, since ``nodes > node_cap`` hands the comparison to this
    subclass's reflected ``__lt__``."""

    def __new__(cls, cap):
        obj = super().__new__(cls, cap)
        obj.nodes = 0
        return obj

    def __lt__(self, other):
        self.nodes += 1
        return int.__lt__(self, other)


def _assert_search_matches(g, t):
    cap = _NodeCount(10**7)
    want = _ref_search_coloring(g, t, cap)
    # the pruned tree is a subtree, so the reference's node count is enough
    assert _search_coloring(g, t, cap.nodes) == want


@settings(max_examples=150, deadline=None, database=None)
@given(g=_graphs(9, 14), extra=st.sampled_from((0, 1)))
def test_search_coloring_matches_reference(g, extra):
    _assert_search_matches(g, g.max_degree() + extra)


def _regular4_minus(n, seed, removed):
    g, _ = random_regular4_class1(n, seed)
    return delete_edges(g, [g.edge_id(u, v) for u, v in removed])[0]


@pytest.mark.parametrize("g", [
    petersen(),
    overfull_delta5(),
    _regular4_minus(16, 1, [(4, 14), (10, 14), (8, 15)]),
    _regular4_minus(16, 3, [(2, 8), (10, 15), (10, 16)]),
    _regular4_minus(20, 1, [(7, 16), (2, 17), (2, 4)]),  # 279,925 nodes unpruned
], ids=["petersen", "overfull-delta5", "regular4-n16-s1", "regular4-n16-s3",
        "regular4-n20-s1"])
@pytest.mark.parametrize("extra", [0, 1])
def test_search_coloring_matches_reference_on_fixed_graphs(g, extra):
    _assert_search_matches(g, g.max_degree() + extra)


def test_search_coloring_prunes_class2_petersen():
    # Class 2 at t = 3: both searches answer None; the pruned one sooner
    full, pruned = _NodeCount(10**7), _NodeCount(10**7)
    assert _ref_search_coloring(petersen(), 3, full) is None
    assert _search_coloring(petersen(), 3, pruned) is None
    assert pruned.nodes < full.nodes


# ---------------------------------------------------------------------------
# equalize against the oracle
# ---------------------------------------------------------------------------

_CUBE = Graph(8, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8),
                  (1, 5), (2, 6), (3, 7), (4, 8)])


@settings(max_examples=40, deadline=None, database=None)
@given(g=_graphs(8, 12), seeds=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)))
@example(g=octahedron(), seeds=(1, 2))
@example(g=Graph(6, octahedron().edges[1:]), seeds=(3, 4))  # Delta 4, irregular
@example(g=_CUBE, seeds=(5, 6))
def test_equalize_agrees_with_same_class(g, seeds):
    chi, _ = chromatic_index(g)
    t = chi + 1
    f = random_proper_coloring(g, t, seeds[0])
    h = random_proper_coloring(g, t, seeds[1])
    try:
        tr = equalize(g, f, h)
    except UnsupportedFamily:
        assume(False)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors
    ok, _ = same_class(g, t, f, h)
    assert ok
