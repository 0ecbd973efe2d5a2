"""Interchange, fan, downshift, transcript machinery."""
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_edge.errors import (
    ColorOutOfRange,
    EdgeNotIncident,
    EdgeOutOfRange,
    EqualColors,
    FormatError,
    GraphInvariantError,
    InternalInvariantError,
    InvalidMoveAtIndex,
    MissingEdgeColor,
    NotProper,
    NotSaturated,
    PreconditionViolated,
    RepEdgeNotBicolored,
)
from kempe_edge.fixtures_gen import (
    figure1_pair,
    octahedron,
    random_graph,
    random_proper_coloring,
)
from kempe_edge.graph_core import EdgeColoring, Graph, color_class, is_proper
from kempe_edge.kernels import backend
from kempe_edge.kempe_engine import (
    Fan,
    KempeMove,
    Recorder,
    Transcript,
    apply_transcript,
    downshift,
    extend_fan,
    format_transcript,
    grow_fan,
    interchange,
    involution_check,
    parse_transcript,
    write_transcript,
)


def test_kempe_move_rejects_equal_colors():
    with pytest.raises(EqualColors, match="move colors must differ, got 2"):
        KempeMove(2, 2, 0)
    with pytest.raises(EqualColors):
        KempeMove(1, 2, 0)._replace(b=1)


def test_kempe_move_is_immutable():
    mv = KempeMove(1, 2, 3)
    for name in ("a", "b", "rep_edge"):
        with pytest.raises(AttributeError):
            setattr(mv, name, 4)
    with pytest.raises(AttributeError):
        mv.extra = 1  # no instance dict


def test_kempe_move_value_semantics():
    mv = KempeMove(1, 2, 3)
    assert mv == KempeMove(1, 2, 3)
    assert hash(mv) == hash(KempeMove(1, 2, 3))
    assert len({mv, KempeMove(1, 2, 3)}) == 1
    for other in (KempeMove(4, 2, 3), KempeMove(1, 4, 3), KempeMove(1, 2, 4)):
        assert mv != other
    assert mv == (1, 2, 3)
    assert repr(mv) == "KempeMove(a=1, b=2, rep_edge=3)"
    a, b, rep = mv
    assert (a, b, rep) == (mv.a, mv.b, mv.rep_edge) == (1, 2, 3)


def test_fan_fields_and_leaves():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    fan = Fan(1, (0, 2), (3,))
    assert (fan.pivot, fan.edges, fan.associated) == (1, (0, 2), (3,))
    assert fan.leaves(g) == (2, 4)
    assert fan == Fan(1, (0, 2), (3,))
    with pytest.raises(AttributeError):
        fan.pivot = 2


def test_extend_fan_rejects_a_pivot_off_the_first_edge():
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(3, [1, 2])
    mask = Recorder(g, f).mask
    with pytest.raises(GraphInvariantError):
        extend_fan(g, f.colors, mask, 3, 0, 0b1110, 0)


def test_interchange_single_edge():
    g = Graph(2, [(1, 2)])
    f = EdgeColoring(2, [1])
    out = interchange(g, f, KempeMove(1, 2, 0))
    assert out.colors == (2,)


def test_interchange_whole_path_component():
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(2, [1, 2])
    out = interchange(g, f, KempeMove(1, 2, 0))
    assert out.colors == (2, 1)


def test_interchange_octahedron_cycle_preserves_class_sizes():
    g = octahedron()
    f, _ = figure1_pair()
    before = {k: len(color_class(f, k)) for k in (1, 2)}
    out = interchange(g, f, KempeMove(1, 2, 0))
    assert is_proper(g, out)
    after = {k: len(color_class(out, k)) for k in (1, 2)}
    assert before[1] + before[2] == after[1] + after[2]


def test_interchange_rejects_off_component_edge():
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(3, [1, 2])
    with pytest.raises(RepEdgeNotBicolored):
        interchange(g, f, KempeMove(2, 3, 0))
    with pytest.raises(RepEdgeNotBicolored, match="color 4 outside palette 1..3"):
        interchange(g, f, KempeMove(1, 4, 0))


def test_path_from_reads_a_path_from_either_end():
    """On the 1/2-colored path 1-2-3-4-5 the path is read from the end it
    starts at, as its first edge, far end and vertex set; a start inside
    it, a start without the first color, or a start on a 1/2 cycle is a
    package fault."""
    path = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    rec = Recorder(path, EdgeColoring(2, [1, 2, 1, 2]))
    assert rec.path_from(1, 1, 2) == (path.edge_id(1, 2), 5, {1, 2, 3, 4, 5})
    assert rec.path_from(5, 2, 1) == (path.edge_id(4, 5), 1, {1, 2, 3, 4, 5})
    with pytest.raises(InternalInvariantError, match="does not end"):
        rec.path_from(3, 1, 2)
    with pytest.raises(InternalInvariantError, match="no 2-colored edge"):
        rec.path_from(1, 2, 1)
    cycle = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    ring = Recorder(cycle, EdgeColoring(2, [1, 2, 1, 2]))
    with pytest.raises(InternalInvariantError, match="does not end"):
        ring.path_from(1, 1, 2)
    assert len(rec.tr) == len(ring.tr) == 0


def test_recolor_edge_refuses_a_color_at_an_endpoint():
    """A single-edge recolor to a color already at an endpoint would swap
    a longer component: it raises and leaves the colors, the masks and the
    transcript as they were."""
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    rec = Recorder(g, EdgeColoring(3, [1, 2, 1]))
    rec.recolor_edge(0, 3)  # 3 is free at 1 and 2
    before = (list(rec.colors), list(rec.mask), list(rec.tr.moves))
    # 2 at vertex 2 (edge 1), 3 at vertex 2 (edge 0), 1 and 2 at vertex 3
    for eid, c in ((0, 2), (1, 3), (1, 1), (2, 2)):
        with pytest.raises(InternalInvariantError, match="at an endpoint"):
            rec.recolor_edge(eid, c)
        assert (rec.colors, rec.mask, rec.tr.moves) == before
    assert rec.colors == [3, 2, 1]


def _recounted_masks(rec):
    """Per vertex, the bits of the colors at it, read off `rec.colors`."""
    mask = [0] * (rec.g.n + 1)
    for (u, v), c in zip(rec.g.edges, rec.colors):
        mask[u] |= 1 << c
        mask[v] |= 1 << c
    return mask


def _random_move(rng, rec, colors):
    """One random interchange, recolor or fan downshift within `colors`,
    chosen from a recount, not from the masks under test.  Returns the
    kind of move made, or None when the drawn recolor or fan had no free
    color."""
    g = rec.g
    mask = _recounted_masks(rec)
    kind = rng.choice(("apply", "recolor", "downshift"))
    eid = rng.randrange(g.m)
    old = rec.colors[eid]
    if kind == "apply":
        other = rng.choice([c for c in colors if c != old])
        rec.apply(old, other, eid, "random")
        return kind
    u, v = g.edges[eid]
    if kind == "recolor":
        free = [c for c in colors if not (mask[u] | mask[v]) >> c & 1]
        if not free:
            return None
        rec.recolor_edge(eid, rng.choice(free), "random")
        return kind
    pivot = rng.choice((u, v))
    bits = sum(1 << c for c in colors)
    fan, _ = extend_fan(g, rec.colors, mask, pivot, eid, bits, 0)
    leaves = fan.leaves(g)
    for k in range(len(fan.edges), 0, -1):
        free = [c for c in colors if not (mask[pivot] | mask[leaves[k - 1]]) >> c & 1]
        if free:
            rec.downshift(fan.edges[:k], free[0], "random")
            return kind
    return None


def test_masks_match_a_recount_after_every_move():
    """On a plain Recorder and on the case machine's _Work, random
    interchanges, recolors and fan downshifts, then a full search
    equalizer run through its component index, keep every vertex's mask
    equal to a recount from the colors, after every swap and every move."""
    from test_degree4_lift import _search_instances

    from kempe_edge.degree4_lift import _equalize_search
    from kempe_edge.regular4_core import _Work

    swaps = [0]
    swap = Recorder.swap

    def checked(rec, edge_ids, a, b):
        swap(rec, edge_ids, a, b)
        assert rec.mask == _recounted_masks(rec)
        swaps[0] += 1

    rng = random.Random(11)
    made = {"apply": 0, "recolor": 0, "downshift": 0}
    searched = 0
    with mock.patch.object(Recorder, "swap", checked):
        for g, start, goal, colors, t in _search_instances((8, 10), range(2)):
            f = EdgeColoring(t, start)
            for rec in (Recorder(g, f), _Work(g, f, EdgeColoring(t, goal))):
                assert rec.mask == _recounted_masks(rec)
                for _ in range(20):
                    kind = _random_move(rng, rec, colors)
                    if kind is not None:
                        made[kind] += 1
                    assert rec.mask == _recounted_masks(rec)
                before = swaps[0]
                _equalize_search(rec, goal, colors, "search")
                assert bytes(rec.colors) == goal
                assert rec.mask == _recounted_masks(rec)
                searched += swaps[0] > before
    assert min(made.values()) > 50 and searched > 20


def test_involution_sweep_random():
    rng = random.Random(99)
    checked = 0
    for seed in range(80):
        g = random_graph(rng.randint(3, 10), 0.5, seed)
        if g.m == 0:
            continue
        t = g.max_degree() + 1 + rng.randint(0, 1)
        f = random_proper_coloring(g, t, seed)
        for _ in range(6):
            eid = rng.randrange(g.m)
            a = f.colors[eid]
            b = rng.choice([c for c in range(1, t + 1) if c != a])
            assert involution_check(g, f, KempeMove(a, b, eid))
            checked += 1
    assert checked >= 400


def test_grow_fan_star():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    f = EdgeColoring(4, [1, 2, 3])
    fan = grow_fan(g, f, 1, 0)
    # every leaf has degree 1, so each next color is missing at it
    assert fan.edges == (0, 1, 2)
    assert fan.associated == (2, 3)
    with pytest.raises(EdgeNotIncident):
        grow_fan(g, f, 2, 1)


def test_grow_fan_degree_one_pivot():
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(2, [1, 2])
    fan = grow_fan(g, f, 1, 0)
    assert fan.edges == (0,)


def test_grow_fan_stops_on_repeated_color():
    # pivot 1 with leaves 2,3,4; edge to 4 colored like an in-fan color that
    # still appears at the previous leaf, forcing termination
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 5)])
    f = EdgeColoring(4, [1, 2, 3, 2])
    fan = grow_fan(g, f, 1, 0)
    # color 2 appears at leaf 2 (edge 2-5), so edge (1,3) cannot follow e1;
    # color 3 is missing at leaf 2, so edge (1,4) extends instead
    assert fan.edges[0] == 0
    assert 1 not in fan.associated


def test_downshift_single_edge_fan():
    g = Graph(2, [(1, 2)])
    f = EdgeColoring(3, [1])
    fan = Fan(1, (0,), ())
    out, tr = downshift(g, f, fan, 3)
    assert out.colors == (3,)
    assert len(tr.moves) == 1


def test_downshift_matches_rotation_formula():
    rng = random.Random(5)
    done = 0
    for seed in range(300):
        g = random_graph(rng.randint(4, 11), 0.5, seed + 1000)
        if g.m < 3:
            continue
        t = g.max_degree() + 2
        f = random_proper_coloring(g, t, seed)
        pivot = max(range(1, g.n + 1), key=g.degree)
        first = g.adj[pivot][0][1]
        fan = grow_fan(g, f, pivot, first)
        last_leaf = g.other_end(fan.edges[-1], pivot)
        free = [
            c
            for c in range(1, t + 1)
            if c not in {f.colors[e] for _, e in g.adj[pivot]}
            and c not in {f.colors[e] for _, e in g.adj[last_leaf]}
        ]
        if not free:
            continue
        out, tr = downshift(g, f, fan, free[0])
        # closed-form rotation
        expected = list(f.colors)
        for i, eid in enumerate(fan.edges):
            expected[eid] = (
                free[0] if i == len(fan.edges) - 1 else f.colors[fan.edges[i + 1]]
            )
        assert list(out.colors) == expected
        assert is_proper(g, out)
        # expansion replays to the same coloring, one edge per move
        replay = apply_transcript(g, f, tr)
        assert replay == out
        done += 1
    assert done >= 60


def test_downshift_requires_saturation():
    g = Graph(3, [(1, 2), (1, 3)])
    f = EdgeColoring(3, [1, 2])
    fan = Fan(1, (0,), ())
    with pytest.raises(NotSaturated):
        downshift(g, f, fan, 2)  # color 2 appears at the pivot


@pytest.mark.parametrize("edges, free, error", [
    ((0, 0), 5, PreconditionViolated),
    ((0, 1), 5, PreconditionViolated),
    ((), 5, PreconditionViolated),
    ((11,), 9, ColorOutOfRange),
    ((11,), 0, ColorOutOfRange),
    ((11,), -1, ColorOutOfRange),
    ((4,), 5, EdgeNotIncident),
], ids=["repeated", "color-at-leaf", "empty", "free-9", "free-0", "free-minus-1",
        "not-at-pivot"])
def test_downshift_rejects_a_callers_bad_fan(edges, free, error):
    # octahedron, pivot 1: edge 1 = (1, 4) is colored 3, and color 3 is on
    # edge 4 = (2, 3) at the first leaf 2, so (0, 1) is not a fan.  At
    # palette 6, edge 11 = (5, 6) is a fan at pivot 5 whose two ends miss
    # every color outside 1..6, so only the range check stops those.  Edge
    # 4 = (2, 3) is not at pivot 1
    g = octahedron()
    t = 6 if error is ColorOutOfRange else 5
    f = random_proper_coloring(g, t, 1)
    pivot = 5 if edges == (11,) else 1
    fan = Fan(pivot, edges, tuple(f.colors[e] for e in edges[1:]))
    with pytest.raises(error):
        downshift(g, f, fan, free)


@pytest.mark.parametrize("bad, reason", [
    (KempeMove(5, 1, 0), "colors (5,1) outside palette"),
    (KempeMove(1, 0, 0), "colors (1,0) outside palette"),
    (KempeMove(1, 2, -1), "edge -1 out of range"),
    (KempeMove(1, 2, 12), "edge 12 out of range"),
])
def test_apply_transcript_rejects_moves_outside_palette_and_edges(bad, reason):
    g = octahedron()
    f, _ = figure1_pair()
    assert f.t == 4 and g.m == 12
    first = KempeMove(f.colors[0], 5 - f.colors[0], 0)
    with pytest.raises(InvalidMoveAtIndex) as exc:
        apply_transcript(g, f, Transcript([first, bad]))
    assert exc.value.index == 1
    assert exc.value.reason == reason


def test_apply_transcript_empty_and_involution():
    g = octahedron()
    f, _ = figure1_pair()
    assert apply_transcript(g, f, Transcript()) == f
    mv = KempeMove(1, 2, 0)
    assert apply_transcript(g, f, Transcript([mv, mv])) == f
    # colors c, c+32 and c+64 meeting at a vertex are distinct: every
    # intermediate coloring is proper
    path = Graph(3, [(1, 2), (2, 3)])
    tr = Transcript([KempeMove(33, 65, 1), KempeMove(1, 33, 0)])
    out = apply_transcript(path, EdgeColoring(65, [1, 33]), tr)
    assert out == EdgeColoring(65, [33, 65])


def test_apply_transcript_fails_atomically():
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(3, [1, 2])
    tr = Transcript([KempeMove(1, 2, 0), KempeMove(3, 1, 0)])
    with pytest.raises(InvalidMoveAtIndex) as exc:
        apply_transcript(g, f, tr)
    assert exc.value.index == 1
    assert f.colors == (1, 2)  # input untouched


def test_transcript_file_round_trip():
    g = octahedron()
    tr = Transcript(
        [KempeMove(1, 2, 0), KempeMove(3, 5, 7)], ["Lemma2.1a", None]
    )
    text = format_transcript(g, tr)
    lines = text.splitlines()
    assert lines[0] == "K 1 2 1 2\tLemma2.1a"
    assert lines[1].startswith("K 3 5 ")
    back = parse_transcript("# header comment\n" + text, g)
    assert back == tr
    assert back.annotations == ["Lemma2.1a", None]
    assert list(back) == [KempeMove(1, 2, 0), KempeMove(3, 5, 7)]
    with pytest.raises(FormatError, match="annotation list length differs"):
        Transcript([KempeMove(1, 2, 0)], [None, None])


@pytest.mark.parametrize("rep", [-1, 12], ids=["minus-1", "m"])
def test_format_transcript_rejects_an_out_of_range_rep_edge(rep, tmp_path):
    # -1 would index the last edge (5, 6) and 12 past the end
    g = octahedron()
    tr = Transcript([KempeMove(1, 2, 0), KempeMove(1, 2, rep)])
    with pytest.raises(EdgeOutOfRange, match=f"edge id {rep} not in 0..11"):
        format_transcript(g, tr)
    out = tmp_path / "tr.txt"
    with pytest.raises(EdgeOutOfRange):
        write_transcript(out, g, tr)
    assert not out.exists()


def _drop_last_edge(real):
    """A faulty component_edges: swaps only part of a multi-edge component."""

    def trace(g, colors, a, b, e0):
        edge_ids = real(g, colors, a, b, e0)
        return edge_ids[:-1] if len(edge_ids) >= 2 else edge_ids

    return trace


def _list_twice(real):
    """A faulty component_edges: lists every edge of a multi-edge component
    twice, so a swap that trusts the list flips each edge back."""

    def trace(g, colors, a, b, e0):
        edge_ids = real(g, colors, a, b, e0)
        return list(edge_ids) * 2 if len(edge_ids) >= 2 else edge_ids

    return trace


def _add_foreign_edge(real):
    """A faulty component_edges: adds the least edge that touches a
    multi-edge component without being in it."""

    def trace(g, colors, a, b, e0):
        edge_ids = real(g, colors, a, b, e0)
        if len(edge_ids) < 2:
            return edge_ids
        touching = {e for x in edge_ids for v in g.edges[x] for _, e in g.adj[v]}
        return list(edge_ids) + sorted(touching - set(edge_ids))[:1]

    return trace


# the faulty kernels by name; True is the partial swap
_FAULTY = {True: _drop_last_edge, "repeat-edge": _list_twice, "foreign-edge": _add_foreign_edge}


def _replay_full_check(g, f, tr):
    """Reference replay: a full-graph properness scan after every move."""
    colors = list(f.colors)
    for i, mv in enumerate(tr.moves):
        if not (1 <= mv.a <= f.t and 1 <= mv.b <= f.t):
            raise InvalidMoveAtIndex(i, "palette")
        if not (0 <= mv.rep_edge < g.m) or colors[mv.rep_edge] not in (mv.a, mv.b):
            raise InvalidMoveAtIndex(i, "rep edge")
        edge_ids = backend.component_edges(g, colors, mv.a, mv.b, mv.rep_edge)
        for e in edge_ids:
            colors[e] = mv.b if colors[e] == mv.a else mv.a
        if not backend.is_proper(g, colors):
            raise InvalidMoveAtIndex(i, "not proper")
    return EdgeColoring(f.t, colors)


def _outcome(replay, g, f, tr):
    try:
        return "ok", replay(g, f, tr)
    except InvalidMoveAtIndex as exc:
        return "rejected", exc.index


def test_apply_transcript_catches_partial_swap_at_same_index():
    # path 1-2-3-4 (edges 0-2) and 4-cycle 5-6-7-8 (edges 3-6)
    g = Graph(8, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (5, 8)])
    f = EdgeColoring(3, [1, 2, 1, 1, 2, 1, 2])
    tr = Transcript([
        KempeMove(1, 3, 2),  # single-edge component: a faulty kernel swaps it whole
        KempeMove(1, 2, 0),  # the (1,2)-path 1-2-3
        KempeMove(1, 2, 3),  # the whole cycle
    ])
    expected = EdgeColoring(3, [2, 1, 3, 2, 1, 2, 1])
    assert apply_transcript(g, f, tr) == expected
    assert _replay_full_check(g, f, tr) == expected
    with mock.patch.object(backend, "component_edges", _drop_last_edge(backend.component_edges)):
        assert _outcome(_replay_full_check, g, f, tr) == ("rejected", 1)
        with pytest.raises(InvalidMoveAtIndex) as exc:
            apply_transcript(g, f, tr)
    assert exc.value.index == 1
    assert exc.value.reason == (
        "intermediate coloring not proper at vertex 2: color 2 on edges 0 and 1"
    )


@st.composite
def _colored_graph(draw):
    """A small graph and a proper coloring drawn edge by edge.  Half the
    graphs start with an even cycle colored 1, 2 alternately; every graph
    ends with an isolated edge, a single-edge component of each pair
    holding its color."""
    t = 6
    k = draw(st.sampled_from([0, 2, 3, 4, 5]))
    cycle = 2 * k
    edges = [(v, v + 1) for v in range(1, cycle)] + ([(1, cycle)] if k else [])
    colors = [1 + i % 2 for i in range(len(edges))]
    n = cycle + draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if (u, v) not in edges]
    used = {v: {colors[i] for i, e in enumerate(edges) if v in e} for v in range(1, n + 1)}
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)):
        free = [c for c in range(1, t + 1) if c not in used[u] | used[v]]
        if free:
            c = draw(st.sampled_from(free))
            edges.append((u, v))
            colors.append(c)
            used[u].add(c)
            used[v].add(c)
    edges.append((n + 1, n + 2))
    colors.append(draw(st.integers(1, t)))
    return Graph(n + 2, edges), colors, t


@settings(max_examples=200, deadline=None, database=None)
@given(case=_colored_graph())
def test_component_edges_is_the_traced_edge_set(case):
    """The unordered walk finds each component's edges once, and the same
    edges as the ordered trace and the recorder's read (a single edge from
    the masks), from every edge and for every color pair."""
    g, colors, t = case
    rec = Recorder(g, EdgeColoring(t, colors))
    for e in range(g.m):
        for a in range(1, t + 1):
            for b in range(a + 1, t + 1):
                if colors[e] not in (a, b):
                    continue
                comp = backend.component_edges(g, colors, a, b, e)
                assert len(set(comp)) == len(comp)
                assert set(comp) == set(backend.trace_component(g, colors, a, b, e)[0])
                assert set(rec.component_edges(a, b, e)) == set(comp)


@settings(max_examples=200, deadline=None, database=None)
@given(case=_colored_graph())
def test_path_from_matches_the_ordered_trace(case):
    """From every vertex v and pair (a, b) with a at v: when b is missing
    at v, path_from's far end and vertex set are those of the ordered
    trace of v's path; when b is at v too, v lies inside a path or on a
    cycle, and the read is a package fault."""
    g, colors, t = case
    rec = Recorder(g, EdgeColoring(t, colors))
    for v in range(1, g.n + 1):
        at_v = {colors[e] for _, e in g.adj[v]}
        for a in at_v:
            for b in range(1, t + 1):
                if b == a:
                    continue
                if b in at_v:
                    with pytest.raises(InternalInvariantError, match="does not end"):
                        rec.path_from(v, a, b)
                    continue
                rep, end, verts = rec.path_from(v, a, b)
                assert colors[rep] == a and v in g.edges[rep]
                _, path, cyc = backend.trace_component(g, colors, a, b, rep)
                assert not cyc and v in (path[0], path[-1])
                assert end == (path[-1] if path[0] == v else path[0])
                assert verts == set(path)
    assert len(rec.tr) == 0


@st.composite
def _graph_coloring_moves(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
    g = Graph(n, edges)
    t = g.max_degree() + draw(st.integers(1, 2))
    f = random_proper_coloring(g, t, draw(st.integers(0, 10_000)))
    # moves drawn against a shadow coloring (real kernel, no checks) so most
    # of them pass the precondition checks; some use arbitrary colors
    shadow = list(f.colors)
    moves = []
    for _ in range(draw(st.integers(0, 8))):
        eid = draw(st.integers(0, g.m - 1))
        if draw(st.booleans()):
            a = shadow[eid]
        else:
            a = draw(st.integers(1, t))
        b = draw(st.integers(1, t).filter(lambda c: c != a))
        moves.append(KempeMove(a, b, eid))
        if shadow[eid] in (a, b):
            edge_ids, _, _ = backend.trace_component(g, shadow, a, b, eid)
            for e in edge_ids:
                shadow[e] = b if shadow[e] == a else a
    return g, f, Transcript(moves)


@pytest.mark.parametrize("faulty", [False, True, "repeat-edge", "foreign-edge"])
@settings(max_examples=150, deadline=None, database=None)
@given(case=_graph_coloring_moves())
def test_local_check_agrees_with_full_check(faulty, case):
    """With the real kernel, a partial swap or a foreign edge, the replay
    rejects at the same index as a full scan after every move, or accepts
    the same coloring.  An edge set that lists each edge twice is a no-op
    to the full scan; the replay may reject it, but never accepts a
    coloring the full scan rejects."""
    g, f, tr = case
    trace = backend.component_edges
    if faulty:
        trace = _FAULTY[faulty](trace)
    with mock.patch.object(backend, "component_edges", trace):
        ours = _outcome(apply_transcript, g, f, tr)
        full = _outcome(_replay_full_check, g, f, tr)
    if faulty != "repeat-edge":
        assert ours == full
    elif ours[0] == "ok":
        assert ours == full
    elif full[0] == "rejected":
        assert ours[1] <= full[1]


def test_apply_transcript_rejects_an_edge_listed_twice():
    """A kernel that lists a component's edges twice makes the swap a
    no-op, which a full properness scan accepts; the replay rejects it."""
    g = Graph(3, [(1, 2), (2, 3)])
    f = EdgeColoring(3, [1, 2])
    tr = Transcript([KempeMove(1, 2, 0)])
    assert apply_transcript(g, f, tr) == EdgeColoring(3, [2, 1])
    with mock.patch.object(backend, "component_edges", _list_twice(backend.component_edges)):
        assert _replay_full_check(g, f, tr) == f
        with pytest.raises(InvalidMoveAtIndex) as exc:
            apply_transcript(g, f, tr)
    assert exc.value.index == 0
    assert exc.value.reason == "component edge set lists edge 0 twice"


@pytest.mark.parametrize("faulty", [False, True, "repeat-edge", "foreign-edge"])
@settings(max_examples=150, deadline=None, database=None)
@given(case=_graph_coloring_moves())
def test_replay_traces_only_proper_colorings(faulty, case):
    """The kernel walk ends only on a proper coloring, so the replay hands
    it nothing else: with the real kernel or a faulty one, every call of
    component_edges sees a proper coloring, and a rejected move is the
    last one traced."""
    g, f, tr = case
    trace = backend.component_edges
    if faulty:
        trace = _FAULTY[faulty](trace)
    seen = []

    def recorded(g, colors, a, b, e0):
        seen.append(backend.is_proper(g, colors))
        return trace(g, colors, a, b, e0)

    with mock.patch.object(backend, "component_edges", recorded):
        outcome = _outcome(apply_transcript, g, f, tr)
    assert all(seen)
    if outcome[0] == "rejected":
        assert len(seen) <= outcome[1] + 1


def test_replay_stops_at_the_first_clash_of_a_faulty_kernel():
    """A partial swap is rejected at its own move; the next move is never
    traced on the improper coloring it left, and the replay accepts no
    way to skip the check."""
    # path 1-2-3-4 colored 1, 2, 1; the first swap of (1, 2) misses edge 2
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    f = EdgeColoring(3, [1, 2, 1])
    tr = Transcript([KempeMove(1, 2, 0), KempeMove(2, 1, 0)])
    assert apply_transcript(g, f, tr) == f
    calls = []
    faulty = _counting(_drop_last_edge(backend.component_edges), calls)
    with mock.patch.object(backend, "component_edges", faulty):
        with pytest.raises(InvalidMoveAtIndex) as exc:
            apply_transcript(g, f, tr)
    assert calls == [0]
    assert exc.value.index == 0
    assert exc.value.reason == (
        "intermediate coloring not proper at vertex 3: color 1 on edges 1 and 2"
    )
    with pytest.raises(PreconditionViolated, match="check must be True"):
        apply_transcript(g, f, tr, check=False)


def _counting(real, calls):
    def trace(g, colors, a, b, e0):
        calls.append(e0)
        return real(g, colors, a, b, e0)

    return trace


def test_single_edge_moves_trace_nothing():
    """Single-edge recolors replay without one kernel call; each move of a
    longer component calls it once."""
    rng = random.Random(3)
    replayed = 0
    for seed in range(30):
        g = random_graph(rng.randint(5, 10), 0.5, seed + 500)
        if g.m < 2:
            continue
        t = g.max_degree() + 2
        f = random_proper_coloring(g, t, seed)
        rec = Recorder(g, f)
        colors = range(1, t + 1)
        for _ in range(15):
            mask = _recounted_masks(rec)
            eid = rng.randrange(g.m)
            u, v = g.edges[eid]
            free = [c for c in colors if not (mask[u] | mask[v]) >> c & 1]
            if free:
                rec.recolor_edge(eid, rng.choice(free), "recolor")
        calls = []
        with mock.patch.object(backend, "component_edges", _counting(backend.component_edges, calls)):
            assert apply_transcript(g, f, rec.tr) == rec.coloring()
        assert calls == []
        replayed += len(rec.tr) > 5
    assert replayed >= 20
    # a (1, 2)-path of three edges and a single 1-edge, at palette 3
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (5, 6)])
    f = EdgeColoring(3, [1, 2, 1, 1])
    tr = Transcript([KempeMove(1, 2, 1), KempeMove(1, 3, 3), KempeMove(2, 1, 0)])
    calls = []
    with mock.patch.object(backend, "component_edges", _counting(backend.component_edges, calls)):
        assert apply_transcript(g, f, tr) == EdgeColoring(3, [1, 2, 1, 3])
    assert calls == [1, 0]


def test_replay_masks_match_a_recount_after_every_move():
    """The replay's masks equal a recount from its colors after every move
    of seeded random transcripts (interchanges, recolors, downshifts)."""
    from kempe_edge import kempe_engine

    made = []
    real = kempe_engine.proper_masks

    def kept(*args):
        made.append(real(*args))
        return made[-1]

    rng = random.Random(17)
    checked = 0
    for seed in range(12):
        g = random_graph(rng.randint(6, 10), 0.5, seed + 900)
        if g.m < 3:
            continue
        t = g.max_degree() + 1 + seed % 2
        f = random_proper_coloring(g, t, seed)
        rec = Recorder(g, f)
        for _ in range(25):
            _random_move(rng, rec, range(1, t + 1))
        for k in range(len(rec.tr) + 1):
            prefix = Transcript(rec.tr.moves[:k])
            with mock.patch.object(kempe_engine, "proper_masks", kept):
                out = apply_transcript(g, f, prefix)
            recount = [0] * (g.n + 1)
            for (u, v), c in zip(g.edges, out.colors):
                recount[u] |= 1 << c
                recount[v] |= 1 << c
            assert made[-1] == recount
            checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# Every entry that builds a checked working state checks its coloring in the
# pass that builds the masks, with require_proper's error and message.
# ---------------------------------------------------------------------------


def _k4():
    return Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def _p4():
    return Graph(4, [(1, 2), (2, 3), (3, 4)])


def _entries():
    """name -> (graph, a proper coloring, call(coloring)) with every other
    argument valid, so the coloring is the first thing found wrong."""
    from kempe_edge.acyclic_reduce import _checked_inputs, acyclic_reduce
    from kempe_edge.degree4_lift import low_degree_equalize, transform_delta4
    from kempe_edge.reductions import maximalize_top_class, peel_and_recurse
    from kempe_edge.regular4_core import _checked_work, theorem_4_1_transform
    from kempe_edge.vizing_reduce import reduce_to_delta_plus_one

    k4, p4, octa = _k4(), _p4(), octahedron()
    k4_4 = EdgeColoring(4, [1, 2, 3, 3, 2, 1])
    k4_5 = EdgeColoring(5, [1, 2, 3, 3, 2, 5])
    p4_3 = EdgeColoring(3, [1, 3, 2])
    # the peel's witness: a 2-coloring of the path whose top class, the
    # middle edge, is maximal
    p4_2 = EdgeColoring(2, [1, 2, 1])
    octa_5 = EdgeColoring(5, figure1_pair()[0].colors)
    h = figure1_pair()[1]
    return {
        "reduce_to_delta_plus_one": (k4, k4_5, lambda f: reduce_to_delta_plus_one(k4, f)),
        "acyclic_reduce": (p4, p4_3, lambda f: acyclic_reduce(p4, f)),
        "_checked_inputs": (p4, p4_3, lambda f: _checked_inputs(p4, f)),
        "peel_and_recurse": (p4, p4_2, lambda w: peel_and_recurse(p4, p4_3, p4_3, w, 2)),
        "low_degree_equalize": (k4, k4_4, lambda f: low_degree_equalize(k4, f, k4_4)),
        "downshift": (k4, k4_5, lambda f: downshift(k4, f, Fan(1, (0,), ()), 4)),
        "maximalize_top_class": (p4, p4_3, lambda f: maximalize_top_class(p4, f, 3)),
        "_checked_work": (octa, octa_5, lambda f: _checked_work(octa, f, h)),
        "theorem_4_1_transform": (octa, octa_5, lambda f: theorem_4_1_transform(octa, f, h)),
        "transform_delta4": (octa, octa_5, lambda f: transform_delta4(octa, f, h)),
        "apply_transcript": (k4, k4_4, lambda f: apply_transcript(k4, f, Transcript())),
        "grow_fan": (k4, k4_4, lambda f: grow_fan(k4, f, 1, 0)),
    }


def _malformed(g, f, kind):
    colors = list(f.colors)
    clash = next(e for w in g.edges[0] for _, e in g.adj[w] if e != 0)
    if kind in ("improper", "improper and above palette"):
        colors[0] = colors[clash]
    if kind == "one edge short":
        colors.pop()
    if kind in ("above palette", "improper and above palette"):
        colors[-1] = f.t + 1
    return EdgeColoring(f.t, colors)


_WORKING = ("_checked_work", "theorem_4_1_transform")
_KINDS = ("improper", "one edge short", "above palette", "improper and above palette")


def _expected(name, g, f, kind):
    """The error the entry raised before its check moved into the mask
    build: require_proper's, with the entry's label."""
    if kind == "improper":
        label = "working coloring" if name in _WORKING else {
            "apply_transcript": "starting coloring",
            "peel_and_recurse": "peel witness",
        }.get(name, "coloring")
        return NotProper, f"{label} is not proper"
    if kind == "one edge short":
        return MissingEdgeColor, f"coloring covers {g.m - 1} edges, graph has {g.m}"
    return ColorOutOfRange, f"edge {g.m - 1} colored {f.t + 1}, palette 1..{f.t}"


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("name", sorted(_entries()))
def test_checked_working_states_reject_malformed_colorings(name, kind):
    """Each entry accepts its proper coloring, and on a malformed one raises
    the error class and message of require_proper: a clash counts only once
    every color is in range."""
    g, f, call = _entries()[name]
    call(f)
    error, message = _expected(name, g, f, kind)
    with pytest.raises(error) as info:
        call(_malformed(g, f, kind))
    assert type(info.value) is error
    assert str(info.value) == message
