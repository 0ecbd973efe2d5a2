"""The (Delta+1) -> Delta reduction for acyclic max-degree subgraphs, and
its Case A, walk and round steps driven on a checked working state."""
from unittest import mock

import pytest

from kempe_edge.acyclic_reduce import (
    _case_a,
    _checked_inputs,
    _eliminate_or_walk_target,
    _round,
    _TopWork,
    _walk_step,
    acyclic_reduce,
)
from kempe_edge.errors import (
    InternalInvariantError,
    MaxDegreeSubgraphCyclic,
    NotProper,
    PaletteMismatch,
)
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    random_proper_coloring,
)
from kempe_edge.graph_core import EdgeColoring, Graph, color_class, is_proper
from kempe_edge.kempe_engine import apply_transcript


def _walked(g, f, a_prev, a_cur):
    """One walk step on the checked working state of f, with the top color
    on a_prev a_cur.  Returns its kind, the next walk vertex or None, and
    the coloring and transcript it left."""
    rec, delta, _, dgd = _checked_inputs(g, f)
    kind, nxt = _walk_step(rec, a_prev, a_cur, delta, dgd)
    return kind, nxt, rec.coloring(), rec.tr


def test_no_top_edges_gives_empty_transcript():
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    f = EdgeColoring(5, [1, 2, 3, 4])
    out, tr = acyclic_reduce(g, f)
    assert len(tr.moves) == 0 and out.t == 4


def test_star_single_move():
    # K_{1,4} colored 1,2,3,5: one single-edge recolor clears the top color
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    f = EdgeColoring(5, [1, 2, 3, 5])
    out, tr = acyclic_reduce(g, f)
    assert out.t == 4 and is_proper(g, out)
    assert len(tr.moves) == 1
    assert out.colors == (1, 2, 3, 4)


def test_cyclic_max_degree_subgraph_rejected():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])  # 2-regular: G_Delta is the triangle
    with pytest.raises(MaxDegreeSubgraphCyclic):
        acyclic_reduce(g, EdgeColoring(3, [1, 2, 3]))


def test_palette_mismatch_rejected():
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    with pytest.raises(PaletteMismatch):
        acyclic_reduce(g, EdgeColoring(6, [1, 2, 3, 5]))


def test_random_sweep_with_monovariant():
    done = 0
    for seed in range(60):
        delta = 3 + (seed % 4)
        g = acyclic_max_degree_graph(delta, seed)
        f = random_proper_coloring(g, delta + 1, seed)
        stats = []
        out, tr = acyclic_reduce(g, f, stats)
        assert out.t == delta
        assert is_proper(g, out)
        assert len(color_class(out, delta)) <= g.m
        replay = apply_transcript(g, f, tr, check=True)
        assert replay.colors == out.colors
        assert all(before > after for before, after in stats)
        assert [b for b, _ in stats] == sorted({b for b, _ in stats}, reverse=True)
        done += 1
    assert done == 60


def test_case_a_clears_the_top_edge():
    # two adjacent degree-3 hubs: the edge between them lies in G_Delta and
    # both are leaves there
    g = Graph(
        8,
        [
            (1, 2),
            (1, 3), (1, 4),
            (2, 5), (2, 6),
            (3, 7), (4, 8),
        ],
    )
    assert g.max_degree() == 3
    f = random_proper_coloring(g, 4, 11)
    hub_edge = g.edge_id(1, 2)
    if f.colors[hub_edge] != 4:
        # force the top color onto the hub edge by rebuilding a coloring
        colors = list(f.colors)
        swap_with = colors[hub_edge]
        for eid, c in enumerate(colors):
            if c == 4:
                colors[eid] = swap_with
        colors[hub_edge] = 4
        f = EdgeColoring(4, colors)
        if not is_proper(g, f):
            pytest.skip("could not stage the hub-edge fixture")
    rec, delta, _, dgd = _checked_inputs(g, f)
    assert dgd[1] == dgd[2] == 1
    _case_a(rec, 1, hub_edge, delta)
    out = rec.coloring()
    assert len(color_class(out, 4)) < len(color_class(f, 4))
    assert apply_transcript(g, f, rec.tr, check=True).colors == out.colors
    assert out.colors[hub_edge] != 4


def _walk_fixture():
    # path of three degree-3 hubs (1-2-3), fillers keep degree below 3
    edges = [
        (1, 2), (2, 3),
        (1, 4), (1, 5),
        (2, 6),
        (3, 7), (3, 8),
        (4, 9), (5, 9), (6, 10), (7, 10),
    ]
    return Graph(10, edges)


def test_walk_on_interior_hub_edge():
    g = _walk_fixture()
    assert g.max_degree() == 3
    delta = 3
    for seed in range(40):
        f = random_proper_coloring(g, delta + 1, seed)
        interior = g.edge_id(1, 2)
        if f.colors[interior] != delta + 1:
            continue
        baseline = len(color_class(f, delta + 1))
        kind, nxt, out, tr = _walked(g, f, 1, 2)
        assert kind in ("terminal", "eliminated", "extended")
        top_after = len(color_class(out, delta + 1))
        if kind == "extended":
            assert top_after <= baseline
            assert nxt not in (1, 2)
        else:
            assert top_after < baseline
        assert apply_transcript(g, f, tr, check=True).colors == out.colors
        break
    else:
        pytest.skip("no seed placed the top color on the interior hub edge")


def test_walk_step_reaches_every_outcome():
    """On the three-hub path a top-colored (2,3) ends at the leaf 3 of the
    max-degree subgraph ("terminal"), and a top-colored (1,2) is cleared by
    one fan attempt at 2 ("eliminated") or dragged on ("extended")."""
    g = _walk_fixture()
    delta = 3
    seen = {}
    for seed in range(40):
        f = random_proper_coloring(g, delta + 1, seed)
        for u, v in ((1, 2), (2, 3)):
            if f.colors[g.edge_id(u, v)] == delta + 1:
                seen.setdefault(_walked(g, f, u, v)[0], (f, u, v))
    assert set(seen) == {"terminal", "eliminated", "extended"}
    for kind, (f, u, v) in seen.items():
        baseline = f.colors.count(delta + 1)
        _, nxt, out, tr = _walked(g, f, u, v)
        assert apply_transcript(g, f, tr, check=True).colors == out.colors
        top_after = out.colors.count(delta + 1)
        if kind == "extended":
            assert top_after <= baseline
            # the top color now sits on the next walk edge v nxt
            assert nxt not in (u, v)
            assert out.colors[g.edge_id(v, nxt)] == delta + 1
        else:
            assert top_after < baseline
            assert nxt is None


# four degree-3 hubs on the path 1-2-3-4 with pendant edges, and the edge
# (5, 11) between two vertices below the maximum degree; colorings are
# palette-4 lists in edge order
_HUB_PATH = Graph(
    11,
    [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (4, 10), (5, 11)],
)

# case -> (coloring, its top-colored edges, the note of the round's first move)
_ROUND_CASES = {
    # (1, 2) and (3, 4) end at the leaves 1 and 4 of the hub path
    "A": ([4, 2, 4, 3, 1, 3, 1, 3, 1, 4], [(1, 2), (3, 4), (5, 11)], "acyclic-A"),
    # (2, 3) joins the two interior hubs
    "B1": ([1, 4, 3, 4, 2, 2, 2, 4, 2, 2], [(2, 3), (1, 5), (4, 9)], "acyclic-walk-escape"),
    # (2, 7) touches one hub
    "B2": ([2, 1, 2, 3, 1, 4, 3, 3, 1, 4], [(2, 7), (5, 11)], "acyclic-B2"),
    # (5, 11) touches none
    "B3": ([2, 1, 2, 3, 1, 3, 3, 3, 1, 4], [(5, 11)], "acyclic-B3"),
}


def _top_edges(g, colors, big):
    return [g.edges[eid] for eid, c in enumerate(colors) if c == big]


@pytest.mark.parametrize("case", sorted(_ROUND_CASES))
def test_round_dispatches_each_case(case):
    """A round takes the first of Cases A, B.1, B.2 and B.3 that a
    top-colored edge presents, and clears a top-colored edge.  Each fixture
    but B.3's also holds edges of a later case (A's and B.1's edges meet
    every hub edge, so no fixture holds both)."""
    colors, top, note = _ROUND_CASES[case]
    g, f = _HUB_PATH, EdgeColoring(4, colors)
    assert _top_edges(g, f.colors, 4) == top
    rec, delta, is_max, dgd = _checked_inputs(g, f)
    _round(rec, delta, is_max, dgd, len(top) - 1)
    assert rec.tr.annotations[0] == note
    out = rec.coloring()
    assert out.colors.count(4) < len(top)
    assert apply_transcript(g, f, rec.tr, check=True).colors == out.colors


# kind -> (coloring, top-colored walk edge as (a_prev, a_cur), the next walk
# vertex, the note on every move)
_WALK_STEPS = {
    # 1 is a leaf of the hub path: Case A there
    "terminal": ([4, 2, 4, 3, 1, 3, 1, 3, 1, 4], (2, 1), None, "acyclic-A"),
    "eliminated": ([1, 4, 3, 4, 2, 2, 2, 4, 2, 2], (2, 3), None, "acyclic-walk-escape"),
    # the fan at 2 is stuck, and its chain drags the top color onto (2, 3)
    "extended": ([4, 3, 1, 2, 1, 1, 2, 4, 3, 4], (1, 2), 3, "acyclic-walk"),
}


@pytest.mark.parametrize("kind", sorted(_WALK_STEPS))
def test_walk_step_outcome_on_the_hub_path(kind):
    colors, (a_prev, a_cur), nxt_want, note = _WALK_STEPS[kind]
    g, f = _HUB_PATH, EdgeColoring(4, colors)
    baseline = f.colors.count(4)
    got, nxt, out, tr = _walked(g, f, a_prev, a_cur)
    assert (got, nxt) == (kind, nxt_want)
    assert tr.annotations and set(tr.annotations) == {note}
    assert apply_transcript(g, f, tr, check=True).colors == out.colors
    assert out.colors[g.edge_id(a_prev, a_cur)] != 4
    if kind == "extended":
        assert out.colors.count(4) == baseline
        assert out.colors[g.edge_id(a_cur, nxt)] == 4
    else:
        assert out.colors.count(4) == baseline - 1


def test_walk_step_without_the_top_color_is_an_internal_error():
    """The walk carries the top color along; a step on an edge without it
    is a bug in the caller, raised before any move."""
    g = _HUB_PATH
    f = EdgeColoring(4, _ROUND_CASES["B2"][0])
    rec, delta, _, dgd = _checked_inputs(g, f)
    assert rec.colors[g.edge_id(1, 2)] != 4
    with pytest.raises(InternalInvariantError, match="lost the top-colored edge"):
        _walk_step(rec, 1, 2, delta, dgd)
    assert len(rec.tr) == 0


# two adjacent degree-3 hubs with the top color on the edge between them:
# both of its ends are leaves of the max-degree subgraph
_TWO_HUBS = Graph(8, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (4, 8)])
_TWO_HUBS_F = EdgeColoring(4, [4, 1, 2, 1, 2, 2, 1])


@pytest.mark.parametrize("leaf", [1, 2])
def test_case_a_clears_from_either_leaf(leaf):
    g, f = _TWO_HUBS, _TWO_HUBS_F
    rec, delta, _, dgd = _checked_inputs(g, f)
    assert dgd[leaf] == 1
    _case_a(rec, leaf, 0, delta)
    out = rec.coloring()
    assert out.colors.count(4) == 0
    assert set(rec.tr.annotations) <= {"acyclic-A"}
    assert apply_transcript(g, f, rec.tr, check=True).colors == out.colors


# outcome -> (coloring with the top color on (1, 5), the next walk vertex)
_B2_ATTEMPTS = {
    "eliminated": ([1, 4, 3, 4, 2, 2, 2, 4, 2, 2], None),
    "dragged": ([1, 2, 1, 4, 2, 3, 3, 3, 4, 3], 2),
}


@pytest.mark.parametrize("outcome", sorted(_B2_ATTEMPTS))
def test_b2_fan_attempt_eliminates_or_drags_onto_a_hub(outcome):
    """Case B.2's one fan attempt at the hub clears the top-colored edge,
    or drags the top color onto a hub edge at the pivot without growing
    the top class."""
    colors, nxt_want = _B2_ATTEMPTS[outcome]
    g, f = _HUB_PATH, EdgeColoring(4, colors)
    e = g.edge_id(1, 5)
    assert f.colors[e] == 4
    rec, delta, is_max, _ = _checked_inputs(g, f)
    nxt = _eliminate_or_walk_target(rec, 1, e, delta, "acyclic-B2")
    assert nxt == nxt_want
    out = rec.coloring()
    assert out.colors[e] != 4
    assert apply_transcript(g, f, rec.tr, check=True).colors == out.colors
    if nxt is None:
        assert out.colors.count(4) == f.colors.count(4) - 1
    else:
        assert is_max[nxt]
        assert out.colors[g.edge_id(1, nxt)] == 4
        assert out.colors.count(4) == f.colors.count(4)


def test_walk_chain_that_grows_the_top_class_is_an_internal_error():
    """The Step-i chain only moves the top color along the fan; a swap that
    left the kept top class larger than before is a bug, raised at once.
    The B.2 drag runs on a working state whose swap miscounts every
    interchange of the top color as one more top edge."""
    swap = _TopWork.swap

    def growing_swap(rec, edge_ids, a, b):
        swap(rec, edge_ids, a, b)
        if rec.big in (a, b):
            rec.n_top += 1

    g, f = _HUB_PATH, EdgeColoring(4, _B2_ATTEMPTS["dragged"][0])
    rec, delta, _, _ = _checked_inputs(g, f)
    with mock.patch.object(_TopWork, "swap", growing_swap), \
            pytest.raises(InternalInvariantError, match="walk chain increased the top class"):
        _eliminate_or_walk_target(rec, 1, g.edge_id(1, 5), delta, "acyclic-B2")
    assert "acyclic-walk" in rec.tr.annotations


def _reference_case(g, is_max, dgd, eid):
    """The case of a top-colored edge as a round takes them: 0 (A), 1
    (B.1), 2 (B.2) or 3 (B.3)."""
    u, v = g.edges[eid]
    if is_max[u] and is_max[v]:
        return 0 if min(dgd[u], dgd[v]) == 1 else 1
    return 2 if is_max[u] or is_max[v] else 3


def _reference_pick(g, colors, big, is_max, dgd):
    """A round's pick by a full scan of the edges: (case, the least
    top-colored edge of the first case that has one)."""
    top = [eid for eid in range(g.m) if colors[eid] == big]
    return min((_reference_case(g, is_max, dgd, eid), eid) for eid in top)


def _degrees(g):
    """is_max and dgd of g, read off g's degrees."""
    delta = g.max_degree()
    is_max = [v > 0 and g.degree(v) == delta for v in range(g.n + 1)]
    dgd = [sum(is_max[w] for w, _ in g.adj[v]) if is_max[v] else 0 for v in range(g.n + 1)]
    return is_max, dgd


def _acyclic_sweep(deltas, seeds, n_extra):
    for delta in deltas:
        for seed in seeds:
            g = acyclic_max_degree_graph(delta, seed, n_extra)
            yield g, random_proper_coloring(g, delta + 1, seed)


def test_round_picks_the_full_scan_edge():
    """Every pick of a round, the first and each redispatch, is the edge a
    full scan of the top class picks, on random acyclic-high graphs; the
    sweep reaches all four cases."""
    least_top = _TopWork.least_top
    seen = set()

    def checked(rec):
        is_max, dgd = _degrees(rec.g)
        want = _reference_pick(rec.g, rec.colors, rec.big, is_max, dgd)
        got = least_top(rec)
        assert got == want
        seen.add(got[0])
        return got

    with mock.patch.object(_TopWork, "least_top", checked):
        for g, f in _acyclic_sweep(range(3, 8), range(12), 30):
            out, tr = acyclic_reduce(g, f)
            assert apply_transcript(g, f, tr, check=True).colors == out.colors
    assert seen == {0, 1, 2, 3}


def _counting_heapq(counts):
    """A stand-in for the module's heapq that counts pushes and pops."""
    import heapq

    def heappush(heap, item):
        counts["pushes"] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        counts["pops"] += 1
        return heapq.heappop(heap)

    return mock.Mock(heappush=heappush, heappop=heappop)


def test_kept_top_class_stays_current():
    """After every swap of the acyclic_reduce and equalize_peel golden
    families and of an acyclic-high sweep with Delta = 5..7, the kept count
    is a recount of the top class, every top-colored edge is on its case's
    heap, and the heaps have popped no more than the initial top edges plus
    the pushes: no edge is scanned twice."""
    from test_golden_transcripts import GOLDEN

    counts = {"initial": 0, "pushes": 0, "pops": 0, "swaps": 0}
    init, swap = _TopWork.__init__, _TopWork.swap

    def counted_init(rec, g, f, big, is_max, dgd):
        init(rec, g, f, big, is_max, dgd)
        counts["initial"] += rec.n_top

    def checked_swap(rec, edge_ids, a, b):
        swap(rec, edge_ids, a, b)
        g, colors, big = rec.g, rec.colors, rec.big
        assert rec.n_top == colors.count(big)
        is_max, dgd = _degrees(g)
        for eid, c in enumerate(colors):
            if c == big:
                assert eid in rec.heaps[_reference_case(g, is_max, dgd, eid)]
        assert counts["pops"] <= counts["initial"] + counts["pushes"]
        counts["swaps"] += 1

    with mock.patch.object(_TopWork, "__init__", counted_init), \
            mock.patch.object(_TopWork, "swap", checked_swap), \
            mock.patch("kempe_edge.acyclic_reduce.heapq", _counting_heapq(counts)):
        for family in ("acyclic_reduce", "equalize_peel"):
            for _ in GOLDEN[family][0]():
                pass
        for g, f in _acyclic_sweep(range(5, 8), range(6), 20):
            acyclic_reduce(g, f)
    assert counts["swaps"] > 0 and counts["pushes"] > 0 and counts["pops"] > 0
    assert counts["pops"] <= counts["initial"] + counts["pushes"]


@pytest.mark.parametrize("entry", [acyclic_reduce, _checked_inputs])
def test_coloring_errors_come_before_palette_and_cycle_errors(entry):
    """An improper coloring at the wrong palette of a graph whose
    max-degree subgraph is a cycle is reported as not proper: the mask pass
    checks f before the palette and the cycle are looked at."""
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotProper, match="coloring is not proper"):
        entry(g, EdgeColoring(4, [1, 1, 2]))
