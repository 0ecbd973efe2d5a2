"""The (Delta+1) -> Delta reduction for acyclic max-degree subgraphs."""
import pytest

from kempe_edge.acyclic_reduce import (
    WalkState,
    acyclic_reduce,
    case_a_step,
    walk_init,
    walk_step,
)
from kempe_edge.errors import (
    MaxDegreeSubgraphCyclic,
    PaletteMismatch,
    PreconditionViolated,
)
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    random_proper_coloring,
)
from kempe_edge.graph_core import EdgeColoring, Graph, color_class, is_proper
from kempe_edge.kempe_engine import apply_transcript


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


def test_case_a_step_preconditions_and_effect():
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
    top_edges = sorted(color_class(f, 4))
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
    out, tr = case_a_step(g, f, hub_edge)
    assert len(color_class(out, 4)) < len(color_class(f.with_palette(4), 4))
    assert apply_transcript(g, f, tr, check=True).colors == out.colors
    with pytest.raises(PreconditionViolated):
        case_a_step(g, out.with_palette(4), hub_edge)


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
        state = walk_init(g, f, interior)
        baseline = len(color_class(f, delta + 1))
        res = walk_step(g, f, state)
        assert res.kind in ("terminal", "eliminated", "extended")
        top_after = len(color_class(res.coloring.with_palette(delta + 1), delta + 1))
        if res.kind == "extended":
            assert top_after <= baseline
            assert res.state.vertices[-1] not in state.vertices
        else:
            assert top_after < baseline
        assert apply_transcript(g, f, res.transcript, check=True).colors == res.coloring.colors
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
            eid = g.edge_id(u, v)
            if f.colors[eid] == delta + 1:
                state = walk_init(g, f, eid)
                seen.setdefault(walk_step(g, f, state).kind, (f, state))
    assert set(seen) == {"terminal", "eliminated", "extended"}
    for kind, (f, state) in seen.items():
        res = walk_step(g, f, state)
        assert apply_transcript(g, f, res.transcript, check=True).colors == res.coloring.colors
        top_after = res.coloring.colors.count(delta + 1)
        if kind == "extended":
            assert top_after <= state.baseline
            assert res.state.vertices[:-1] == state.vertices
        else:
            assert top_after < state.baseline
            assert res.state is None


def _walk_on_hub_edge():
    """The walk fixture, a 4-coloring with the top color on (1, 2), and the
    walk state started there."""
    g = _walk_fixture()
    f = random_proper_coloring(g, 4, 2)
    return g, f, walk_init(g, f, g.edge_id(1, 2))


def test_walk_step_rejects_a_state_above_its_baseline():
    """A baseline below the coloring's top class is bad input, not a bug."""
    g, f, state = _walk_on_hub_edge()
    assert state.baseline == 2
    with pytest.raises(PreconditionViolated, match="above the baseline 0"):
        walk_step(g, f, WalkState(state.vertices, 0))


@pytest.mark.parametrize(
    "vertices",
    [(2,), (1, 2, 1), (4, 1, 2), (3, 1, 2), (0, 1, 2), (-1, 1, 2), (11, 1, 2)],
    ids=["one", "repeat", "low-degree", "no-edge", "zero", "minus-one", "past-n"],
)
def test_walk_step_rejects_a_state_that_is_not_a_walk(vertices):
    """Each state ends on the top-colored (1, 2); what comes before it is
    not a path of distinct max-degree vertices in the graph."""
    g, f, state = _walk_on_hub_edge()
    assert walk_step(g, f, WalkState((2, 1), state.baseline)).kind == "terminal"
    with pytest.raises(PreconditionViolated, match="not a path of max-degree"):
        walk_step(g, f, WalkState(vertices, state.baseline))


def test_walk_rejects_other_palettes_and_cyclic_max_degree_subgraphs():
    g, f, state = _walk_on_hub_edge()
    wide = f.with_palette(5)
    with pytest.raises(PaletteMismatch):
        walk_init(g, wide, g.edge_id(1, 2))
    with pytest.raises(PaletteMismatch):
        walk_step(g, wide, state)
    triangle = Graph(3, [(1, 2), (2, 3), (1, 3)])
    f3 = EdgeColoring(3, [1, 2, 3])
    with pytest.raises(MaxDegreeSubgraphCyclic):
        walk_init(triangle, f3, 2)
    with pytest.raises(MaxDegreeSubgraphCyclic):
        walk_step(triangle, f3, WalkState((1, 3), 1))


# four degree-3 hubs on the path 1-2-3-4, with pendant edges; the top color
# 4 sits on the hub edge (2, 3), neither of whose ends is a leaf of the hub
# path, and on the pendant edge (1, 5)
_HUB_PATH = Graph(
    10, [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (4, 10)]
)
_HUB_PATH_F = EdgeColoring(4, [1, 4, 1, 4, 3, 2, 2, 2, 3])

_CALLER_ERRORS = {
    "case-a-palette": (lambda g, f, e: case_a_step(g, f.with_palette(5), e(2, 3)),
                       PaletteMismatch, "expected palette 4"),
    "case-a-outside": (lambda g, f, e: case_a_step(g, f, e(1, 5)),
                       PreconditionViolated, "not inside the max-degree subgraph"),
    "case-a-no-leaf": (lambda g, f, e: case_a_step(g, f, e(2, 3)),
                       PreconditionViolated, "no endpoint is a leaf"),
    "walk-init-not-top": (lambda g, f, e: walk_init(g, f, e(1, 2)),
                          PreconditionViolated, "is not colored 4"),
    "walk-init-outside": (lambda g, f, e: walk_init(g, f, e(1, 5)),
                          PreconditionViolated, "must start inside"),
    "walk-step-not-top": (lambda g, f, e: walk_step(g, f, WalkState((1, 2), 2)),
                          PreconditionViolated, "not carrying the top color"),
}


@pytest.mark.parametrize("case", sorted(_CALLER_ERRORS))
def test_step_functions_reject_caller_errors_with_typed_errors(case):
    """A caller's bad edge, palette or walk is bad input, not a bug."""
    call, error, match = _CALLER_ERRORS[case]
    g, f = _HUB_PATH, _HUB_PATH_F
    assert is_proper(g, f) and g.max_degree() == 3
    with pytest.raises(error, match=match):
        call(g, f, g.edge_id)
