"""Padding to 4-regular, the doubling tower, transcript projection, and the
search equalizer."""
import itertools
import random
import signal
from collections import Counter, deque

import pytest

from kempe_edge import degree4_lift
from kempe_edge.degree4_lift import (
    _agreement,
    _bfs_to_better,
    _ComponentIndex,
    _equalize_search,
    build_tower,
    lift_coloring,
    low_degree_equalize,
    project_transcript,
    transform_delta4,
)
from kempe_edge.errors import (
    EdgeOutOfRange,
    InternalInvariantError,
    NotProper,
    PaletteMismatch,
    PreconditionViolated,
    ProjectionMismatch,
    SearchBudgetExceeded,
    TargetNotProper4,
    WrongMaxDegree,
)
from kempe_edge.fixtures_gen import (
    figure1_pair,
    octahedron,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper
from kempe_edge.kempe_engine import KempeMove, Recorder, Transcript, apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.oracle import chromatic_index, kempe_classes
from kempe_edge.regular4_core import theorem_4_1_transform
from kempe_edge.vizing_reduce import reduce_to_delta_plus_one


def k5_minus_edge():
    return Graph(
        5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6) if (u, v) != (4, 5)]
    )


def k5_minus_two_edges():
    return Graph(
        5,
        [
            (u, v)
            for u in range(1, 6)
            for v in range(u + 1, 6)
            if (u, v) not in {(3, 5), (4, 5)}
        ],
    )


def test_build_tower_regular_is_single_level():
    g = octahedron()
    tower = build_tower(g)
    assert len(tower.levels) == 1


def test_build_tower_k5_minus_edge():
    g = k5_minus_edge()
    tower = build_tower(g)
    assert len(tower.levels) == 2
    top = tower.levels[-1]
    assert top.n == 10
    assert all(top.degree(v) == 4 for v in range(1, 11))


def test_build_tower_three_levels_from_min_degree_one():
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    tower = build_tower(star)
    assert len(tower.levels) == 4  # 4 - min_degree = 3 doublings
    assert all(tower.levels[-1].degree(v) == 4 for v in range(1, tower.levels[-1].n + 1))
    with pytest.raises(WrongMaxDegree):
        build_tower(Graph(3, [(1, 2), (2, 3)]))


def test_lift_coloring_smallest_free_rule_and_properness():
    g = Graph(2, [(1, 2)])
    tower_g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    tower = build_tower(tower_g)
    f = EdgeColoring(5, [2, 3, 4, 5])
    lifted = lift_coloring(tower, 0, f)
    assert is_proper(tower.levels[1], lifted)
    # pendant vertices keep their copies' colors; each joining edge takes the
    # smallest free low color
    for v, join_eid in tower.joining_edges[0]:
        used = {f.colors[eid] for _, eid in tower_g.adj[v]}
        expect = min(c for c in (1, 2, 3, 4) if c not in used)
        assert lifted.colors[join_eid] == expect
    # a proper 4-coloring lifts to a proper 4-coloring at every level
    chi, h = chromatic_index(tower_g)
    cur = h
    for i in range(len(tower.levels) - 1):
        cur = lift_coloring(tower, i, cur)
        assert cur.t == 4 and is_proper(tower.levels[i + 1], cur)


def test_project_transcript_lockstep_random_moves():
    rng = random.Random(7)
    for gseed in range(12):
        base = k5_minus_two_edges() if gseed % 2 else k5_minus_edge()
        tower = build_tower(base)
        f = random_proper_coloring(base, 5, gseed)
        lifted = f
        for i in range(len(tower.levels) - 1):
            lifted = lift_coloring(tower, i, lifted)
        top = tower.levels[-1]
        # random walk on the top level
        state = bytes(lifted.colors)
        tr = Transcript()
        for _ in range(20):
            moves = backend.kempe_neighbor_moves(top, state, 5)
            a, b, rep, nxt = rng.choice(moves)
            tr.append(KempeMove(a, b, rep))
            state = nxt
        projected = project_transcript(base, top, lifted, tr)
        # the projection replays and tracks the restriction exactly
        small_final = apply_transcript(base, f, projected, check=True)
        assert bytes(small_final.colors) == state[:base.m]


def test_tower_levels_are_prefix_subgraphs():
    """Level i is the subgraph of every higher level on the ids 0..m_i-1,
    with the same endpoints, and a lift keeps those ids' colors."""
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    for base in (star, k5_minus_edge(), k5_minus_two_edges()):
        tower = build_tower(base)
        f = random_proper_coloring(base, 5, 1)
        lifted = [f]
        for i in range(len(tower.levels) - 1):
            lifted.append(lift_coloring(tower, i, lifted[-1]))
        for i, g_i in enumerate(tower.levels):
            for k in range(i + 1, len(tower.levels)):
                assert tower.levels[k].edges[:g_i.m] == g_i.edges
                assert lifted[k].colors[:g_i.m] == lifted[i].colors


def test_project_top_walk_straight_to_every_level():
    """A random walk on the top of the three-doubling star tower projects
    onto each lower level in one step and replays onto the walk's final
    state restricted to that level's edge ids."""
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    tower = build_tower(star)
    assert len(tower.levels) == 4
    top = tower.levels[-1]
    rng = random.Random(11)
    for fseed in range(4):
        f = random_proper_coloring(star, 5, fseed)
        lifted = [f]
        for i in range(len(tower.levels) - 1):
            lifted.append(lift_coloring(tower, i, lifted[-1]))
        state = bytes(lifted[-1].colors)
        tr = Transcript()
        for _ in range(30):
            a, b, rep, state = rng.choice(backend.kempe_neighbor_moves(top, state, 5))
            tr.append(KempeMove(a, b, rep))
        for i, g_i in enumerate(tower.levels):
            projected = project_transcript(g_i, top, lifted[-1], tr)
            final = apply_transcript(g_i, lifted[i], projected, check=True)
            assert bytes(final.colors) == state[:g_i.m]


def test_project_moves_on_joining_edges_vanish():
    base = k5_minus_edge()
    tower = build_tower(base)
    f = random_proper_coloring(base, 5, 3)
    lifted = lift_coloring(tower, 0, f)
    big = tower.levels[1]
    join_eid = tower.joining_edges[0][0][1]
    a = lifted.colors[join_eid]
    b = next(c for c in range(1, 6) if c != a)
    tr = Transcript([KempeMove(a, b, join_eid)])
    projected = project_transcript(base, big, lifted, tr)
    # the joining component may touch copy edges; if it stayed within the
    # joining matching the projection is empty
    comp, _, _ = backend.trace_component(big, list(lifted.colors), a, b, join_eid)
    if not (set(comp) & set(range(base.m))):
        assert len(projected.moves) == 0
    else:
        assert len(projected.moves) >= 1


def test_project_rejects_rep_outside_the_top_level():
    """Id -1 must not be read as the top level's last edge."""
    base = k5_minus_edge()
    tower = build_tower(base)
    f = random_proper_coloring(base, 5, 1)
    top = lift_coloring(tower, 0, f)
    for rep in (-1, tower.levels[-1].m):
        with pytest.raises(EdgeOutOfRange, match=f"edge id {rep} not in"):
            project_transcript(
                base, tower.levels[-1], top, Transcript([KempeMove(1, 2, rep)])
            )


def test_project_rejects_a_top_move_that_does_not_replay():
    """A top move whose rep is colored neither a nor b, here after a first
    move that does replay, raises ProjectionMismatch."""
    base = k5_minus_edge()
    tower = build_tower(base)
    f = random_proper_coloring(base, 5, 1)
    top = lift_coloring(tower, 0, f)
    a, b, rep, nxt = backend.kempe_neighbor_moves(
        tower.levels[-1], bytes(top.colors), 5
    )[0]
    c, d = [c for c in range(1, 6) if c != nxt[rep]][:2]
    tr = Transcript([KempeMove(a, b, rep), KempeMove(c, d, rep)])
    with pytest.raises(ProjectionMismatch, match="does not replay"):
        project_transcript(base, tower.levels[-1], top, tr)


@pytest.mark.parametrize("move", [KempeMove(1, 9, 0), KempeMove(0, 1, 0)])
def test_project_rejects_a_move_outside_the_palette(move):
    """A big move with a color outside f_big's palette, which replay would
    reject, is a ProjectionMismatch naming the move, not a projected move."""
    g = Graph(3, [(1, 2), (2, 3)])
    big = Graph(4, [(1, 2), (2, 3), (3, 4)])
    f_big = EdgeColoring(3, [1, 2, 1])
    with pytest.raises(ProjectionMismatch, match=r"does not replay at move 1 \("):
        project_transcript(g, big, f_big, Transcript([KempeMove(1, 3, 2), move]))


def test_project_rejects_an_improper_big_coloring_in_time():
    """An improper f_big is a typed error, not a hang: on this coloring
    the kernel's (1, 2) walk from edge 4 never ends.  The alarm turns a
    regression into a failure instead of a stalled suite."""
    g = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
    f = EdgeColoring(5, [1, 2, 2, 2, 2, 1, 1, 1])

    def hung(signum, frame):
        raise AssertionError("project_transcript did not return within 1 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(1)
    try:
        with pytest.raises(NotProper, match="big coloring is not proper"):
            project_transcript(g, g, f, Transcript([KempeMove(1, 2, 4)]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_project_names_the_move_and_edge_of_a_component_leaving_the_big_one(monkeypatch):
    """A g-component read outside the big component it should lie in is a
    ProjectionMismatch naming the big move and the edge of g it was read
    from.  g is 1-2-3 plus 4-5, big adds 3-6; move 1 swaps the (1, 2)-path
    6-3-2-1, whose g-part is read from edge 0, here with edge 2 added."""
    g = Graph(5, [(1, 2), (2, 3), (4, 5)])
    big = Graph(6, [(1, 2), (2, 3), (4, 5), (3, 6)])
    f_big = EdgeColoring(3, [1, 2, 1, 1])
    real = backend.component_edges

    def foreign(graph, colors, a, b, e0):
        out = real(graph, colors, a, b, e0)
        return [*out, 2] if graph is g else out

    monkeypatch.setattr(backend, "component_edges", foreign)
    tr = Transcript([KempeMove(1, 3, 2), KempeMove(1, 2, 0)])
    with pytest.raises(ProjectionMismatch, match=r"component of edge 0 extends outside"
                       r" the big component at move 1 \(1, 2, 0\)"):
        project_transcript(g, big, f_big, tr)


def _two_recorder_projection(g, big, f_big, big_tr):
    """The projection as it was with a second Recorder for g: g's coloring
    copied from f_big's first g.m entries and swapped in step with the big
    run, an edge of g skipped once the two colorings differ on it."""
    m = g.m
    rec = Recorder(big, f_big)
    sub = Recorder(g, EdgeColoring(f_big.t, f_big.colors[:m]))
    out = Transcript()
    for a, b, rep in big_tr.moves:
        comp = rec.component_edges(a, b, rep)
        hits = {e for e in comp if e < m}
        for se in sorted(hits):
            if sub.colors[se] != rec.colors[se]:
                continue
            comp_small = sub.component_edges(a, b, se)
            assert hits.issuperset(comp_small)
            sub.swap(comp_small, a, b)
            out.append(KempeMove(a, b, se), "projected")
        rec.swap(comp, a, b)
    return out


def _random_walk(big, f_big, steps, rng):
    """A random walk of `steps` interchanges on big from f_big, and the
    edge ids of each swapped component."""
    state = bytes(f_big.colors)
    tr, comps = Transcript(), []
    for _ in range(steps):
        a, b, rep, nxt = rng.choice(backend.kempe_neighbor_moves(big, state, f_big.t))
        comps.append(backend.component_edges(big, state, a, b, rep))
        tr.append(KempeMove(a, b, rep))
        state = nxt
    return tr, comps


def _assert_projects_as_two_recorders(g, big, f_big, tr, comps, kinds):
    """project_transcript's moves and notes equal the reference's; counts
    in `kinds` the big components lying wholly in g and those meeting g
    and leaving it."""
    got = project_transcript(g, big, f_big, tr)
    want = _two_recorder_projection(g, big, f_big, tr)
    assert (got.moves, got.annotations) == (want.moves, want.annotations)
    for comp in comps:
        low = sum(e < g.m for e in comp)
        if low:
            kinds["inside" if low == len(comp) else "leaves"] += 1


def test_projection_matches_two_recorders_on_every_tower_level():
    """Random top walks on doubling towers, projected onto every level."""
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    rng = random.Random(5)
    kinds = Counter()
    for base in (star, k5_minus_edge(), k5_minus_two_edges()):
        tower = build_tower(base)
        for fseed in range(3):
            lifted = random_proper_coloring(base, 5 + fseed % 2, fseed)
            for i in range(len(tower.levels) - 1):
                lifted = lift_coloring(tower, i, lifted)
            top = tower.levels[-1]
            tr, comps = _random_walk(top, lifted, 30, rng)
            for g_i in tower.levels[:-1]:
                _assert_projects_as_two_recorders(g_i, top, lifted, tr, comps, kinds)
    assert kinds["inside"] > 0 and kinds["leaves"] > 0


def test_projection_matches_two_recorders_on_padded_graphs():
    """Random walks and Theorem 4.1's own transcript on padded graphs of
    odd and even n, with direct edges, octahedron and K_5 gadgets."""
    rng = random.Random(9)
    kinds, parts, parities = Counter(), Counter(), set()
    for n, seed, low, odd, isolated in _PADDED[::2]:
        g, h = _irregular_instance(n, seed, low, odd, isolated)
        parities.add(g.n % 2)
        for t in (5, 6):
            f = random_proper_coloring(g, t, seed + t)
            big, f_big, h_big = degree4_lift._pad_to_regular4(g, f, h)
            direct, gadgets = _padding_parts(g, big, f_big, h_big)
            parts.update(direct=len(direct), octahedron=gadgets.count(6), k5=gadgets.count(5))
            tr, comps = _random_walk(big, f_big, 25, rng)
            _assert_projects_as_two_recorders(g, big, f_big, tr, comps, kinds)
            if t == 5:
                tr = theorem_4_1_transform(big, f_big, h_big)
                state = list(f_big.colors)
                comps = []
                for a, b, rep in tr.moves:
                    comps.append(backend.component_edges(big, state, a, b, rep))
                    for e in comps[-1]:
                        state[e] = a + b - state[e]
                _assert_projects_as_two_recorders(g, big, f_big, tr, comps, kinds)
    assert parities == {0, 1}
    assert min(parts[k] for k in ("direct", "octahedron", "k5")) > 0
    assert kinds["inside"] > 0 and kinds["leaves"] > 0


def test_transform_delta4_regular_delegates():
    g, h = random_regular4_class1(8, 2)
    f = random_proper_coloring(g, 5, 11)
    tr = transform_delta4(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_transform_delta4_tower_pipeline():
    for gmaker in (k5_minus_two_edges,):
        g = gmaker()
        chi, h = chromatic_index(g)
        assert chi == 4
        for t in (5, 6, 7):
            f = random_proper_coloring(g, t, t * 7)
            tr = transform_delta4(g, f, h)
            final = apply_transcript(g, f, tr, check=True)
            assert final.colors == h.colors


def _irregular_instance(n, seed, low, odd, isolated):
    """A Class 1 graph with maximum degree 4, from `random_regular4_class1`:
    vertex 1 keeps `low` of its edges and 3 - low seeded edges go; with `odd`
    vertex n is removed, with `isolated` an isolated vertex is added.
    Returns (g, h), h the witness's restriction."""
    g4, w = random_regular4_class1(n, seed)
    gone = {e for _, e in g4.adj[1][low:]}
    gone |= set(random.Random(seed).sample(range(g4.m), 3 - low))
    if odd:
        gone |= {e for _, e in g4.adj[n]}
    kept = [e for e in range(g4.m) if e not in gone]
    g = Graph(n - odd + isolated, [g4.edges[e] for e in kept])
    return g, EdgeColoring(4, [w.colors[e] for e in kept])


_PADDED = [
    (n, seed, low, odd, isolated)
    for n, seed in ((8, 1), (10, 2), (14, 3))
    for low in (1, 2, 3)
    for odd in (0, 1)
    for isolated in (0, 1)
]


def _padding_parts(g, big, f_big, h_big):
    """(direct, gadgets): the added edges between two vertices of g, and
    the sizes of the components the added vertices form.  Asserts that
    each direct edge is one color in both colorings and is not an edge of
    g, and that each component is an octahedron - xy gadget (6 vertices,
    11 edges, 2 ports) or a K_5 gadget (5 vertices, 8 edges, 4 ports)."""
    direct = [e for e in range(g.m, big.m) if max(big.edges[e]) <= g.n]
    g_edges = set(g.edges)
    for e in direct:
        assert f_big.colors[e] == h_big.colors[e]
        assert big.edges[e] not in g_edges
    assert len(set(big.edges)) == big.m
    gadgets = []
    seen = set()
    for s in range(g.n + 1, big.n + 1):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for u, _ in big.adj[stack.pop()]:
                if u > g.n and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        inner = sum(u in comp and v in comp for u, v in big.edges)
        ports = sum((u in comp) != (v in comp) for u, v in big.edges)
        assert (len(comp), inner, ports) in ((6, 11, 2), (5, 8, 4))
        gadgets.append(len(comp))
    return direct, gadgets


def test_padded_graph_is_4_regular_and_keeps_g_and_both_colorings():
    min_degrees = set()
    parities = set()
    kinds = Counter()
    both_kinds = 0
    for n, seed, low, odd, isolated in _PADDED:
        g, h = _irregular_instance(n, seed, low, odd, isolated)
        assert g.max_degree() == 4
        min_degrees.add(g.min_degree())
        parities.add(g.n % 2)
        for t in (5, 6):
            f = random_proper_coloring(g, t, seed + t)
            big, f_big, h_big = degree4_lift._pad_to_regular4(g, f, h)
            # simple (Graph rejects loops and parallel edges) and 4-regular
            assert all(big.degree(v) == 4 for v in range(1, big.n + 1))
            assert big.n >= g.n and big.edges[:g.m] == g.edges
            assert (f_big.t, h_big.t) == (t, 4)
            assert is_proper(big, f_big) and is_proper(big, h_big)
            assert f_big.colors[:g.m] == f.colors
            assert h_big.colors[:g.m] == h.colors
            # direct edges, octahedron - xy gadgets (6 vertices) and, for
            # odd n alone, one K_5 gadget (5 vertices)
            direct, gadgets = _padding_parts(g, big, f_big, h_big)
            assert gadgets.count(5) == g.n % 2
            extra = big.n - g.n
            assert extra % 6 == (5 % 6 if g.n % 2 else 0)
            kinds.update(direct=len(direct), octahedron=gadgets.count(6),
                         k5=gadgets.count(5))
            both_kinds += g.n % 2 == 1 and 6 in gadgets
    assert min_degrees == {0, 1, 2, 3}
    assert parities == {0, 1}
    assert min(kinds[k] for k in ("direct", "octahedron", "k5")) > 0
    assert both_kinds > 0


@pytest.mark.parametrize("case", _PADDED[::3])
def test_transform_delta4_on_padded_instances_replays_onto_h(case):
    g, h = _irregular_instance(*case)
    f = random_proper_coloring(g, 5 + case[1] % 3, case[0])
    tr = transform_delta4(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_k5_gadget_colors_every_port_tuple():
    """Every one of the 5^4 port-color tuples has a proper 5-coloring of
    K_5 minus two disjoint edges that avoids each port's color at its
    vertex."""
    for ports in itertools.product(range(1, 6), repeat=4):
        colors = degree4_lift._k5_coloring(ports)
        seen = set()
        for (u, v, _), c in zip(degree4_lift._K5, colors):
            assert 1 <= c <= 5
            assert (u, c) not in seen and (v, c) not in seen
            seen |= {(u, c), (v, c)}
        assert all((k, ports[k]) not in seen for k in range(4))


def test_octahedron_gadget_table_and_every_port_pair():
    """The octahedron minus xy is simple with 11 edges; classes 1..3 are
    perfect matchings and class 0 misses exactly x = 0 and y = 2.  For
    every palette 5..7 and port pair, `_oct_coloring` is proper with the
    ports attached."""
    table = degree4_lift._OCT
    assert len(table) == 11
    assert len({frozenset((u, v)) for u, v, _ in table}) == 11
    assert all(0 <= u < 6 and 0 <= v < 6 and u != v for u, v, _ in table)
    assert all({u, v} != {0, 2} for u, v, _ in table)
    for k in range(4):
        ends = [w for u, v, c in table if c == k for w in (u, v)]
        assert len(ends) == len(set(ends))
        assert set(range(6)) - set(ends) == (set() if k else {0, 2})
    for t in (5, 6, 7):
        for fx, fy in itertools.product(range(1, t + 1), repeat=2):
            colors = degree4_lift._oct_coloring(fx, fy, t)
            seen = {(0, fx), (2, fy)}
            for (u, v, _), c in zip(table, colors):
                assert 1 <= c <= t
                assert (u, c) not in seen and (v, c) not in seen
                seen |= {(u, c), (v, c)}


def test_padding_falls_back_to_a_gadget_for_adjacent_or_joined_pairs():
    """Vertex 1 of degree 4 and the edge 23, plus isolated vertex 6.  The
    h-color-4 slots 2, 3, 4, 6 are all f-free for 4, and the consecutive
    pair 23 is an edge of g; the color-1 direct edge 56 is met again by
    the color-2 and color-3 pairs 56.  Each of those pairs goes through a
    gadget instead, and the transform replays onto h."""
    g = Graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    h = EdgeColoring(4, [1, 2, 3, 4, 3])
    f = EdgeColoring(5, [1, 2, 3, 4, 5])
    big, f_big, h_big = degree4_lift._pad_to_regular4(g, f, h)
    assert all(big.degree(v) == 4 for v in range(1, big.n + 1))
    assert is_proper(big, f_big) and is_proper(big, h_big)
    direct, gadgets = _padding_parts(g, big, f_big, h_big)
    assert sorted((big.edges[e], h_big.colors[e]) for e in direct) == [
        ((2, 4), 2), ((3, 4), 1), ((4, 6), 4), ((5, 6), 1)
    ]
    assert gadgets == [6, 6, 6]
    ports = sorted(
        (min(big.edges[e]), h_big.colors[e])
        for e in range(g.m, big.m)
        if min(big.edges[e]) <= g.n < max(big.edges[e])
    )
    assert ports == [(2, 4), (3, 4), (5, 2), (5, 3), (6, 2), (6, 3)]
    tr = transform_delta4(g, f, h)
    assert apply_transcript(g, f, tr, check=True).colors == h.colors


def test_padding_pairs_the_gadget_slots_in_ascending_order():
    """Before they are sorted, the slots left for gadgets list the f-blocked
    slots first and then the odd good slot or a refused pair: here
    [7, 8, 1, 3] for h-color 2 and [2, 7, 1, 8] for h-color 4.  Each
    octahedron takes two consecutive sorted slots, the smaller at its port
    x and the larger at y, two vertices on."""
    g, h = _irregular_instance(8, 1, 1, 1, 1)
    f = random_proper_coloring(g, 6, 7)
    big, _, h_big = degree4_lift._pad_to_regular4(g, f, h)
    ports = [
        (big.edges[e], h_big.colors[e])
        for e in range(g.m, big.m)
        if big.edges[e][0] <= g.n < big.edges[e][1]
    ]
    pairs = []
    for ((v, x), c), ((w, y), c_y) in zip(ports[::2], ports[1::2]):
        assert (y, c_y) == (x + 2, c)
        pairs.append((c, v, w))
    assert pairs == [(2, 1, 3), (2, 7, 8), (4, 1, 2), (4, 7, 8)]


def test_padding_work_counts_are_pinned():
    """Padded sizes are exact work counts, free of timing noise.  With the
    K_{4,4} - xy gadget and no direct edges, the edges over `_PADDED` were
    3,028 at t = 5 and at t = 6, and instance (10, 2, 1, 1, 1) padded to
    148 edges with 102 moves on the padded graph."""
    totals = []
    for t in (5, 6):
        total = 0
        for n, seed, low, odd, isolated in _PADDED:
            g, h = _irregular_instance(n, seed, low, odd, isolated)
            f = random_proper_coloring(g, t, seed + t)
            total += degree4_lift._pad_to_regular4(g, f, h)[0].m
        totals.append(total)
    assert totals == [2076, 1920]
    g, h = _irregular_instance(10, 2, 1, 1, 1)
    big, f_big, h_big = degree4_lift._pad_to_regular4(
        g, random_proper_coloring(g, 5, 10), h
    )
    assert (big.m, len(theorem_4_1_transform(big, f_big, h_big).moves)) == (80, 53)


def test_padding_raises_internal_error_naming_the_vertex():
    # an improper h: color 1 is missing at vertex 4 alone while n is even
    g = Graph(4, [(1, 2), (2, 3)])
    with pytest.raises(InternalInvariantError, match="vertex 4 is left unpaired"):
        degree4_lift._pad_to_regular4(g, EdgeColoring(5, [1, 2]), EdgeColoring(4, [1, 1]))
    # an h that is all 1s gives each octahedron vertex three ports, and a
    # 5-coloring leaves only one color free at a degree-4 vertex
    g = octahedron()
    f = random_proper_coloring(g, 5, 1)
    with pytest.raises(InternalInvariantError, match="port at vertex 1$"):
        degree4_lift._pad_to_regular4(g, f, EdgeColoring(4, [1] * g.m))


def test_low_degree_equalize_k4():
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    report = kempe_classes(k4, 4)
    assert report.class_count == 1  # K4's 4-coloring Kempe graph is connected
    f = random_proper_coloring(k4, 4, 1)
    h = random_proper_coloring(k4, 4, 2)
    tr = low_degree_equalize(k4, f, h)
    assert apply_transcript(k4, f, tr, check=True).colors == h.colors


def test_low_degree_equalize_identity():
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    f = random_proper_coloring(k4, 4, 5)
    assert len(low_degree_equalize(k4, f, f).moves) == 0


def _random_cubic(n, seed):
    """Random cubic graph via two perfect matchings over a Hamilton cycle."""
    rng = random.Random(seed)
    for _ in range(2000):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        cyc = [
            (min(perm[i], perm[(i + 1) % n]), max(perm[i], perm[(i + 1) % n]))
            for i in range(n)
        ]
        half = n // 2
        pairs = list(range(1, n + 1))
        rng.shuffle(pairs)
        match = [
            (min(pairs[2 * i], pairs[2 * i + 1]), max(pairs[2 * i], pairs[2 * i + 1]))
            for i in range(half)
        ]
        if set(cyc) & set(match):
            continue
        return Graph(n, cyc + match)
    raise AssertionError("no cubic graph found")


def test_low_degree_equalize_cubic_sweep():
    for n in (8, 10, 12):
        for seed in range(4):
            g = _random_cubic(n, seed)
            assert g.max_degree() == 3
            f = random_proper_coloring(g, 4, seed)
            h = random_proper_coloring(g, 4, seed + 100)
            tr = low_degree_equalize(g, f, h)
            assert apply_transcript(g, f, tr, check=True).colors == h.colors


# The search before the component index took every greedy step, kept
# verbatim (names prefixed `_old`) as the reference for the current one: a
# one-move scan ahead of the labeled BFS, and its own bidirectional search
# with its own parent-link walk.


def _swap(colors, edge_ids, a, b):
    for e in edge_ids:
        colors[e] = b if colors[e] == a else a


def _kempe_components(g, state, colors):
    """Yield (a, b, rep, edge ids) for every (a, b)-component of `state`.

    The order is that of `backend.kempe_neighbor_moves(g, state, t,
    colors)`: color pairs a < b ascending over `colors`, then components by
    their least edge id `rep`: an ascending scan walks each component from
    the first of its edges it meets, and only when it is reached.
    """
    cs = sorted(colors)
    for i, a in enumerate(cs):
        for b in cs[i + 1:]:
            seen = bytearray(g.m)
            for rep, c in enumerate(state):
                if (c == a or c == b) and not seen[rep]:
                    comp = backend.component_edges(g, state, a, b, rep)
                    for e in comp:
                        seen[e] = 1
                    yield a, b, rep, comp


def _gain(state, goal, a, b, comp):
    """Change in agreement with `goal` when a and b swap on `comp`."""
    gain = 0
    for e in comp:
        c = state[e]
        want = goal[e]
        gain += ((b if c == a else a) == want) - (c == want)
    return gain


def _old_agreement(state: bytes, goal: bytes) -> int:
    return sum(1 for a, b in zip(state, goal) if a == b)


def _old_reconstruct(parent, state):
    moves = []
    while parent[state] is not None:
        prev, mv = parent[state]
        moves.append(mv)
        state = prev
    moves.reverse()
    return moves


def _old_bfs_to_better(g, start, goal, colors, t, cap):
    """Moves to a nearest state with strictly larger agreement with goal.

    An interchange changes agreement only on its own component, so the
    one-move neighbors are scored by `_gain` in generation order and the
    first that gains is built and returned.  This is the state the labeled
    BFS below would return: distinct one-move swaps give distinct states,
    none equal to `start`, so its dedup never fires at depth 1, and the cap
    is applied at the same neighbor count.  Only when no neighbor gains does
    the BFS run.
    """
    # k: states the BFS's `parent` map would hold once this neighbor is added
    for k, (a, b, rep, comp) in enumerate(_kempe_components(g, start, colors), 2):
        if _gain(start, goal, a, b, comp) > 0:
            nxt = bytearray(start)
            _swap(nxt, comp, a, b)
            return [(a, b, rep)], bytes(nxt)
        if k > cap:
            return None
    base = _old_agreement(start, goal)
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for a, b, rep, nxt in backend.kempe_neighbor_moves(g, cur, t, colors):
            if nxt in parent:
                continue
            parent[nxt] = (cur, (a, b, rep))
            if _old_agreement(nxt, goal) > base:
                return _old_reconstruct(parent, nxt), nxt
            queue.append(nxt)
            if len(parent) > cap:
                return None
    return None


def _old_bidirectional(g, start, goal, colors, t, cap):
    """Exact meet-in-the-middle search start -> goal."""
    pf = {start: None}
    pb = {goal: None}
    qf = deque([start])
    qb = deque([goal])
    meet = None
    while qf and qb and meet is None:
        if len(qf) <= len(qb):
            side, parent, other = qf, pf, pb
        else:
            side, parent, other = qb, pb, pf
        for _ in range(len(side)):
            cur = side.popleft()
            for a, b, rep, nxt in backend.kempe_neighbor_moves(g, cur, t, colors):
                if nxt in parent:
                    continue
                parent[nxt] = (cur, (a, b, rep))
                if nxt in other:
                    meet = nxt
                    break
                side.append(nxt)
                if len(pf) + len(pb) > cap:
                    return None
            if meet is not None:
                break
    if meet is None:
        return None
    forward = _old_reconstruct(pf, meet)
    # walk from the meet point to the goal: each backward parent move applied
    # to the meet-side state is its own inverse
    backward = []
    state = meet
    while pb[state] is not None:
        prev, mv = pb[state]
        backward.append(mv)
        state = prev
    return forward + backward


def _replay(g, state, moves):
    state = bytearray(state)
    for a, b, rep in moves:
        comp, _, _ = backend.trace_component(g, state, a, b, rep)
        _swap(state, comp, a, b)
    return bytes(state)


def test_agreement_matches_generator_count():
    rng = random.Random(3)
    cases = [(b"", b""), (b"\xff", b"\xff"), (b"\xff", b"\x00"), (b"\x00\xff", b"\xff\x00")]
    for _ in range(300):
        m = rng.randrange(0, 70)
        state = bytes(rng.choice((0, 1, 2, 3, 255)) for _ in range(m))
        goal = bytes(
            c if rng.random() < 0.5 else rng.choice((0, 1, 254, 255)) for c in state
        )
        cases.append((state, goal))
    for state, goal in cases:
        assert _agreement(state, goal) == _old_agreement(state, goal)


def test_kempe_components_follow_neighbor_move_order():
    for n in (6, 8, 10, 12):
        for seed in range(5):
            g = _random_cubic(n, seed)
            for t, colors in (
                (4, (1, 2, 3, 4)), (5, (1, 2, 3, 4, 5)), (5, (2, 3, 4, 5))
            ):
                state = bytes(random_proper_coloring(g, t, seed + 10 * n).colors)
                walk = list(_kempe_components(g, state, colors))
                moves = backend.kempe_neighbor_moves(g, state, t, colors)
                assert [(a, b, rep) for a, b, rep, _ in walk] == [
                    (a, b, rep) for a, b, rep, _ in moves
                ]
                for (a, b, rep, comp), (_, _, _, nxt) in zip(walk, moves):
                    swapped = bytearray(state)
                    _swap(swapped, comp, a, b)
                    assert bytes(swapped) == nxt


def test_bfs_to_better_matches_labeled_bfs():
    """The plain labeled BFS returns the moves of the old one-move scan plus
    BFS at every step of the search loop, including steps where no single
    interchange gains, and under a cap small enough to stop the scan."""
    deep = 0
    for n in (8, 10, 12):
        for seed in range(22):
            g = _random_cubic(n, seed)
            cur = bytes(random_proper_coloring(g, 4, seed).colors)
            goal = bytes(random_proper_coloring(g, 4, seed + 100).colors)
            colors = (1, 2, 3, 4)
            old = _old_bfs_to_better(g, cur, goal, colors, 4, 3)
            assert _bfs_to_better(g, cur, goal, colors, 3) == (old and old[0])
            while cur != goal:
                moves = _bfs_to_better(g, cur, goal, colors, 250_000)
                old = _old_bfs_to_better(g, cur, goal, colors, 4, 250_000)
                if old is None:
                    assert moves is None
                    break
                assert moves == old[0]
                assert _replay(g, cur, moves) == old[1]
                deep += len(moves) > 1
                cur = old[1]
    assert deep > 0


def _delta_plus_one_coloring(g, seed):
    """Proper (Delta+1)-coloring: random greedy over 2*Delta colors, then
    the Vizing reduction (fast where backtracking is not)."""
    rng = random.Random(seed)
    delta = g.max_degree()
    colors = [0] * g.m
    for eid in rng.sample(range(g.m), g.m):
        u, v = g.edges[eid]
        used = {colors[e] for _, e in g.adj[u] + g.adj[v]}
        colors[eid] = min(c for c in range(1, 2 * delta + 1) if c not in used)
    return reduce_to_delta_plus_one(g, EdgeColoring(2 * delta, colors))[0]


def _search_instances(sizes, seeds):
    """(graph, start, goal, colors, t): cubic and subcubic graphs, some
    disconnected, some with vertices of degree 1 and 2, at palettes
    (1..4) with t = 4 and (2, 3, 4, 5) with t = 5."""
    k4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for n in sizes:
        for seed in seeds:
            cubic = _random_cubic(n, seed)
            rng = random.Random(seed)
            thinned = Graph(n, [e for e in cubic.edges if rng.random() > 0.3])
            pair = Graph(n + 4, list(cubic.edges) + [(u + n, v + n) for u, v in k4])
            for g in (cubic, thinned, pair):
                if g.max_degree() < 3:
                    continue
                start = _delta_plus_one_coloring(g, seed).colors
                goal = _delta_plus_one_coloring(g, seed + 100).colors
                yield g, bytes(start), bytes(goal), (1, 2, 3, 4), 4
                yield (
                    g,
                    bytes(c + 1 for c in start),
                    bytes(c + 1 for c in goal),
                    (2, 3, 4, 5),
                    5,
                )


def _fixable(state, goal, a, b, e):
    """Edge e is colored a with goal b, or the reverse."""
    c = state[e]
    return (c == a or c == b) and goal[e] == a + b - c


def _assert_index_is_sparse_walk(index, walk, g, goal):
    """The index's first gaining component is the walk's, read with only
    the pairs the walk order reaches traced.  Flushed in full, the index
    holds exactly the walk's components with a fixable edge, each under its
    least edge id, with the walk's gaining set; no pair ever holds more
    than m pending seeds."""
    assert all(len(seeds) <= g.m for seeds in index.pending.values())
    first = next(
        (
            (a, b, rep)
            for a, b, rep, comp in walk
            if _gain(index.state, goal, a, b, comp) > 0
        ),
        None,
    )
    assert index.first_gaining() == first
    for p in index.pairs:
        index._flush(p)
    expect = {p: {} for p in index.pairs}
    for a, b, rep, comp in walk:
        if any(_fixable(index.state, goal, a, b, e) for e in comp):
            assert rep == min(comp)
            expect[a, b][rep] = comp
    for p in index.pairs:
        assert not index.pending[p]
        assert {r: sorted(c) for r, c in index.comps[p].items()} == {
            r: sorted(c) for r, c in expect[p].items()
        }
        owner = [-1] * g.m
        for r, comp in expect[p].items():
            for e in comp:
                owner[e] = r
        assert index.owner[p] == owner
        assert index.gaining[p] == {
            rep for a, b, rep, comp in walk
            if (a, b) == p and _gain(index.state, goal, a, b, comp) > 0
        }


def test_component_index_matches_fresh_walk_after_every_swap():
    """Swaps on the first gaining component and on random components of a
    fresh walk (also losing ones, and ones the index does not hold, which
    the swap traces on demand) keep the index's first gaining component
    the fresh walk's, and, once every pair is flushed, the index equal to
    the components of a fresh walk that hold a fixable edge."""
    rng = random.Random(5)
    swaps = unindexed = 0
    for g, start, goal, colors, t in _search_instances((8, 10, 12), range(3)):
        index = _ComponentIndex(Recorder(g, EdgeColoring(t, start)), goal, colors)
        walk = list(_kempe_components(g, index.state, colors))
        _assert_index_is_sparse_walk(index, walk, g, goal)
        for _ in range(60):
            step = index.first_gaining()
            if step is None or rng.random() < 0.75:
                step = rng.choice(walk)[:3]
            unindexed += step[2] not in index.comps[step[0], step[1]]
            expect = list(index.state)
            comp, _, _ = backend.trace_component(g, expect, *step)
            _swap(expect, comp, step[0], step[1])
            index.swap(*step)
            swaps += 1
            assert index.state == expect
            walk = list(_kempe_components(g, index.state, colors))
            _assert_index_is_sparse_walk(index, walk, g, goal)
    assert swaps > 1000
    assert unindexed > 1000


def _reference_equalize_search(g, start, goal, colors, t, cap):
    """The search loop before the component index, a fresh walk per step,
    on the old `_bfs_to_better` and `_bidirectional`.  As in the indexed
    loop, `cap` binds only when no single interchange gains."""
    if start == goal:
        return []
    out = []
    cur = start
    for _ in range(len(start) * 4 + 8):
        if cur == goal:
            return out
        gains = any(
            _gain(cur, goal, a, b, comp) > 0
            for a, b, _, comp in _kempe_components(g, cur, colors)
        )
        found = _old_bfs_to_better(g, cur, goal, colors, t, 250_000 if gains else cap)
        if found is None:
            tail = _old_bidirectional(g, cur, goal, colors, t, 2_000_000)
            assert tail is not None and _replay(g, cur, tail) == goal
            return out + tail
        moves, cur = found
        out.extend(moves)
    raise AssertionError("agreement failed to converge")


def _search(g, start, goal, colors, t):
    """`_equalize_search` on a Recorder over EdgeColoring(t, start)."""
    return _equalize_search(Recorder(g, EdgeColoring(t, start)), goal, colors, "search")


def test_equalize_search_carries_the_recorder_to_the_goal():
    """The recorder ends at the goal, and its transcript is the returned
    move list, each move annotated with the given note."""
    for g, start, goal, colors, t in _search_instances((6, 8), range(4)):
        rec = Recorder(g, EdgeColoring(t, start))
        moves = _equalize_search(rec, goal, colors, "note")
        assert bytes(rec.colors) == goal
        assert rec.tr.moves == [KempeMove(a, b, rep) for a, b, rep in moves]
        assert rec.tr.annotations == ["note"] * len(moves)


def _counting(monkeypatch, name, counts):
    """Wrap degree4_lift.<name>, counting its calls by whether it found moves."""
    fn = getattr(degree4_lift, name)

    def counted(*args):
        result = fn(*args)
        counts[name, result is not None] += 1
        return result

    monkeypatch.setattr(degree4_lift, name, counted)


def test_equalize_search_matches_walk_loop_under_small_caps(monkeypatch):
    """Same moves as the old per-step walk, with BFS caps around the
    component count (the BFS gives up inside its first or second layer and
    the exact search runs) and one far above it (the BFS finds a state two
    moves away)."""
    counts = Counter()
    _counting(monkeypatch, "_bfs_to_better", counts)
    _counting(monkeypatch, "_meet_in_middle", counts)
    for g, start, goal, colors, t in _search_instances((6, 8), range(6)):
        total = len(list(_kempe_components(g, start, colors)))
        for cap in (*range(total - 2, total + 3), 16 * total):
            monkeypatch.setattr(degree4_lift, "_IMPROVE_BUDGET", cap)
            assert _search(g, start, goal, colors, t) == (
                _reference_equalize_search(g, start, goal, colors, t, cap)
            )
    assert counts["_bfs_to_better", True] > 0
    assert counts["_bfs_to_better", False] > 0
    assert counts["_meet_in_middle", True] > 0


def test_equalize_search_takes_greedy_steps_under_any_cap(monkeypatch):
    """The BFS cap never stops a greedy step: a run that needs no BFS at the
    default cap returns the same moves at caps 1, 3 and 10, and every other
    run still replays onto the goal, through the shared exact search when
    the BFS gives up."""
    counts = Counter()
    _counting(monkeypatch, "_bfs_to_better", counts)
    _counting(monkeypatch, "_meet_in_middle", counts)

    def bfs_calls():
        return counts["_bfs_to_better", True] + counts["_bfs_to_better", False]

    runs = []
    for g, start, goal, colors, t in _search_instances((6, 8), range(6)):
        before = bfs_calls()
        moves = _search(g, start, goal, colors, t)
        runs.append((g, start, goal, colors, t, moves, bfs_calls() == before))
    exact = counts["_meet_in_middle", True]
    for cap in (1, 3, 10):
        monkeypatch.setattr(degree4_lift, "_IMPROVE_BUDGET", cap)
        for g, start, goal, colors, t, moves, greedy in runs:
            capped = _search(g, start, goal, colors, t)
            if greedy:
                assert capped == moves
            else:
                assert _replay(g, start, capped) == goal
    assert any(greedy for *_, greedy in runs)
    assert counts["_meet_in_middle", True] > exact


def test_exact_search_budget_is_search_budget_exceeded(monkeypatch):
    """The shared exact search's BudgetExceeded reaches the equalizer's
    callers as SearchBudgetExceeded."""
    counts = Counter()
    _counting(monkeypatch, "_bfs_to_better", counts)
    for g, start, goal, colors, t in _search_instances((6, 8), range(6)):
        _search(g, start, goal, colors, t)
        if counts:
            break
    assert counts
    monkeypatch.setattr(degree4_lift, "_IMPROVE_BUDGET", 1)
    monkeypatch.setattr(degree4_lift, "DEFAULT_SEARCH_BUDGET", 2)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 2 states"):
        _search(g, start, goal, colors, t)


def test_component_index_swap_retraces_locally(monkeypatch):
    """Over a greedy run, the index traces at most the fixable edges at
    init plus 2 (k - 2) Delta |V(C)| per swap on C.  A swap re-seeds only
    the pairs (a, x) and (b, x), and a component traced later for a
    re-seeded pair holds an edge at V(C) of some swap since its pair was
    last read, so each swap pays for at most the edges at V(C) per pair.
    A rescan of the whole coloring per step exceeds this on the larger
    graphs."""
    traces = [0]
    trace = backend.component_edges

    def counting(*args):
        traces[0] += 1
        return trace(*args)

    monkeypatch.setattr(backend, "component_edges", counting)
    worst = 0.0
    for n, seed in ((12, 0), (60, 1), (120, 2)):
        g = _random_cubic(n, seed)
        for colors, shift in (((1, 2, 3, 4), 0), ((2, 3, 4, 5), 1)):
            start = bytes(c + shift for c in _delta_plus_one_coloring(g, seed).colors)
            goal = bytes(c + shift for c in _delta_plus_one_coloring(g, seed + 1).colors)
            rec = Recorder(g, EdgeColoring(colors[-1], start))
            traces[0] = 0
            index = _ComponentIndex(rec, goal, colors)
            # every edge off its goal color is fixable for one pair
            bound = sum(c != want for c, want in zip(start, goal))
            # each greedy step raises the agreement, so at most m steps
            for _ in range(g.m + 1):
                step = index.first_gaining()
                if step is None:
                    break
                comp = index.comps[step[0], step[1]][step[2]]
                verts = {v for e in comp for v in g.edges[e]}
                bound += 2 * (len(colors) - 2) * g.max_degree() * len(verts)
                index.swap(*step)
                assert traces[0] <= bound
            else:
                raise AssertionError("the greedy run took more than m steps")
            worst = max(worst, traces[0] / bound)
    assert worst > 0


def _phase2_instance(n, seed):
    """A phase-2-shaped input: the cubic H = G - M(h, 1) of a 4-regular
    graph, goal h restricted to H (colors 2..4 only; its 3- and 4-edges
    form one Hamiltonian cycle) and a start over 2..5."""
    g, h = random_regular4_class1(n, seed)
    keep = [e for e in range(g.m) if h.colors[e] != 1]
    sub = Graph(n, [g.edges[e] for e in keep])
    start = bytes(c + 1 for c in _delta_plus_one_coloring(sub, seed).colors)
    return sub, start, bytes(h.colors[e] for e in keep), (2, 3, 4, 5), 5


def test_component_index_traces_only_components_with_a_fixable_edge(monkeypatch):
    """Every trace the index makes at init or when it re-seeds after a
    swap returns a component holding an edge fixable for its pair (colored
    a with goal b, or the reverse).  Only a swap on a component the index
    does not hold traces it on demand; that trace is on the swapped pair."""
    trace = backend.component_edges
    swapping = [None]
    on_demand = [0]
    seeded = [0]
    goal = [None]

    def checked(g, colors, a, b, e0):
        comp = trace(g, colors, a, b, e0)
        if swapping[0] == (a, b):
            on_demand[0] += 1
        else:
            seeded[0] += 1
            assert any(_fixable(colors, goal[0], a, b, e) for e in comp)
        return comp

    swap = _ComponentIndex.swap

    def marked(index, a, b, rep):
        swapping[0] = (a, b)
        try:
            swap(index, a, b, rep)
        finally:
            swapping[0] = None

    instances = [*_search_instances((6, 8), range(6)), _phase2_instance(200, 1)]
    monkeypatch.setattr(backend, "component_edges", checked)
    monkeypatch.setattr(_ComponentIndex, "swap", marked)
    for g, start, goal[0], colors, t in instances:
        assert _replay(g, start, _search(g, start, goal[0], colors, t)) == goal[0]
    assert seeded[0] > 0 and on_demand[0] > 0


def test_component_index_swap_queues_each_edge_for_its_one_fixable_pair(monkeypatch):
    """Over greedy runs, every seed a swap adds to a pair's pending set is
    fixable for that pair once the swap is done, and no edge, of the
    swapped component or of a dropped one, is added to two pairs."""
    swap = _ComponentIndex.swap
    added = Counter()

    def checked(index, a, b, rep):
        before = {p: set(seeds) for p, seeds in index.pending.items()}
        swap(index, a, b, rep)
        seen = set()
        for p, seeds in index.pending.items():
            new = seeds - before[p]
            assert all(_fixable(index.state, index.goal, *p, e) for e in new)
            assert not new & seen
            seen |= new
            added[p] += len(new)

    monkeypatch.setattr(_ComponentIndex, "swap", checked)
    for g, start, goal, colors, t in [
        *_search_instances((6, 8), range(6)),
        _phase2_instance(200, 1),
    ]:
        assert _replay(g, start, _search(g, start, goal, colors, t)) == goal
    assert sum(added.values()) > 0


def test_component_index_reads_a_single_edge_component_from_the_masks(monkeypatch):
    """On the path 1-2-3-4-5-6 colored 1 2 1 2 3 with goal 1 3 1 3 2, edge
    1 is fixable for (2, 3) and 3 is missing at both its ends: it is its
    own gaining component, indexed with no trace.  Edge 3 is fixable too,
    but 3 is at its end 5, so its component {3, 4} is traced once."""
    traced = []
    trace = backend.component_edges

    def counting(*args):
        comp = trace(*args)
        traced.append(sorted(comp))
        return comp

    monkeypatch.setattr(backend, "component_edges", counting)
    g = Graph(6, [(v, v + 1) for v in range(1, 6)])
    rec = Recorder(g, EdgeColoring(4, [1, 2, 1, 2, 3]))
    index = _ComponentIndex(rec, bytes([1, 3, 1, 3, 2]), (1, 2, 3, 4))
    assert index.first_gaining() == (2, 3, 1)
    assert traced == [[3, 4]]
    assert index.comps[2, 3][1] == (1,)
    assert index.gaining[2, 3] == {1, 3}
    assert index.owner[2, 3] == [-1, 1, -1, 3, 3]


@pytest.mark.parametrize(
    "n, seed, traces, moves",
    # before the pairs were traced lazily: 426 and 1,434 traces; before
    # single-edge components were read from the masks: 199 and 551
    [(200, 1, 157, 108), (640, 2, 373, 353)],
)
def test_equalize_search_trace_count_is_pinned(monkeypatch, n, seed, traces, moves):
    """The exact number of components the phase-2 search traces.  Its
    transcript is fixed, so the count is too; a change that keeps every
    move but traces more fails here, not only on a clock."""
    calls = [0]
    trace = backend.component_edges

    def counting(*args):
        calls[0] += 1
        return trace(*args)

    g, start, goal, colors, t = _phase2_instance(n, seed)
    monkeypatch.setattr(backend, "component_edges", counting)
    assert len(_search(g, start, goal, colors, t)) == moves
    assert calls[0] == traces


def _prism():
    return Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                     (1, 4), (2, 5), (3, 6)])


def test_low_degree_equalize_rejects_degree_and_palette():
    g = octahedron()
    f5, h5 = (random_proper_coloring(g, 5, s) for s in (1, 2))
    with pytest.raises(WrongMaxDegree):
        low_degree_equalize(g, f5, h5)
    cubic = _prism()
    f5, h5 = (random_proper_coloring(cubic, 5, s) for s in (1, 2))
    with pytest.raises(PaletteMismatch):
        low_degree_equalize(cubic, f5, h5)


def test_transform_delta4_rejects_its_inputs():
    cubic = _prism()
    f5 = random_proper_coloring(cubic, 5, 1)
    h4 = random_proper_coloring(cubic, 4, 2)
    with pytest.raises(WrongMaxDegree):
        transform_delta4(cubic, f5, h4)
    g = octahedron()
    f4, h4 = figure1_pair()
    f5 = EdgeColoring(5, f4.colors)
    with pytest.raises(TargetNotProper4):
        transform_delta4(g, f5, EdgeColoring(5, h4.colors))
    with pytest.raises(PaletteMismatch):
        transform_delta4(g, f4, h4)


def test_transform_delta4_from_palettes_7_and_5():
    """On a 4-regular graph the transcript from palette 7 or 5 replays
    onto h, and an improper f is NotProper either way.  How often each
    coloring is scanned is pinned in tests/test_work_counts.py."""
    g, h = random_regular4_class1(24, 1)
    for t in (7, 5):
        f = random_proper_coloring(g, t, 3)
        tr = transform_delta4(g, f, h)
        assert apply_transcript(g, f, tr, check=True).colors == h.colors
        bad = list(f.colors)
        u, v = g.edges[0]
        bad[0] = next(f.colors[e] for _, e in g.adj[u] if e != 0)
        with pytest.raises(NotProper):
            transform_delta4(g, EdgeColoring(t, bad), h)


def test_lift_coloring_rejects_another_levels_coloring():
    tower = build_tower(Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]))
    top = lift_coloring(tower, 0, EdgeColoring(5, [2, 3, 4, 5]))
    with pytest.raises(PaletteMismatch):
        lift_coloring(tower, 0, top)


@pytest.mark.parametrize("level", [-1, 2, 5])
def test_tower_level_out_of_range_is_precondition_violated(level):
    # a bowtie has minimum degree 2, so its tower has the levels 0, 1, 2:
    # lifting starts below the top
    tower = build_tower(Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]))
    assert len(tower.levels) == 3
    f = EdgeColoring(5, [1, 2, 3, 3, 2, 1])
    with pytest.raises(PreconditionViolated, match=f"level {level} not in 0..1"):
        lift_coloring(tower, level, f)


def test_project_rejects_a_graph_off_the_big_graphs_first_ids():
    """The projection needs g to be the big graph on its first g.m edge
    ids, and a coloring of the big graph to start from."""
    tower = build_tower(Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]))
    g, mid, top = tower.levels
    f = random_proper_coloring(g, 5, 1)
    f_top = lift_coloring(tower, 1, lift_coloring(tower, 0, f))
    with pytest.raises(PreconditionViolated, match="first edge ids"):
        project_transcript(top, mid, f_top, Transcript())
    with pytest.raises(PreconditionViolated, match="first edge ids"):
        project_transcript(Graph(5, g.edges[1:]), top, f_top, Transcript())
    with pytest.raises(PaletteMismatch, match="does not fit"):
        project_transcript(g, top, f, Transcript())
    assert len(project_transcript(mid, top, f_top, Transcript())) == 0
