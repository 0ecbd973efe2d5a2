"""The 4-regular case machine and its internal lemma steps, each driven on
a checked working state."""
from unittest import mock

import pytest

from kempe_edge.errors import (
    InternalInvariantError,
    NotRegular4,
    PaletteMismatch,
    TargetNotProper4,
)
from kempe_edge.fixtures_gen import (
    figure1_pair,
    octahedron,
    random_regular4_class1,
    random_proper_coloring,
)
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper, palette_at
from kempe_edge.kempe_engine import apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.oracle import same_class
from kempe_edge.regular4_core import (
    _Work,
    _case_B,
    _checked_work,
    _lemma_2_2_inner,
    _lemma_2_3_inner,
    _sides,
    _window_b,
    _window_escape_or_certify,
    _window_holds,
    theorem_4_1_transform,
)


def _stepped(g, f, h, step, *args):
    """Run one internal step on the checked working state of f toward h.
    Returns its outcome, the coloring and transcript it left, and its frame
    as a list from frame color to real color."""
    work = _checked_work(g, f, h)
    out = step(work, *args)
    return out, work.coloring(), work.tr, work.to_real


def _matched(f, h):
    """Edges colored 1 under both f and the target h."""
    return sum(1 for a, b in zip(f.colors, h.colors) if a == b == 1)


def _bicolored_paths(g, f, a, b):
    """All maximal (a,b)-paths as vertex sequences."""
    from kempe_edge.graph_core import bicolored_subgraph

    return [
        list(c.vertices)
        for c in bicolored_subgraph(g, f, a, b)
        if c.kind == "path"
    ]


def _windows(g, f, length):
    """All (1,2)-path windows of the given vertex count (both orientations)."""
    out = []
    for verts in _bicolored_paths(g, f, 1, 2):
        for i in range(len(verts) - length + 1):
            out.append(verts[i: i + length])
            out.append(list(reversed(verts[i: i + length])))
    return out


def test_theorem_4_1_trivial_equal():
    g = octahedron()
    _, h = figure1_pair()
    f5 = EdgeColoring(5, h.colors)
    tr = theorem_4_1_transform(g, f5, h)
    assert len(tr.moves) == 0


def test_theorem_4_1_input_validation():
    g = octahedron()
    f, h = figure1_pair()
    with pytest.raises(Exception):
        theorem_4_1_transform(g, f, h)  # palette 4 working coloring
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    with pytest.raises(NotRegular4):
        theorem_4_1_transform(
            star, EdgeColoring(5, [1, 2, 3, 4]), EdgeColoring(4, [1, 2, 3, 4])
        )
    bad_h = EdgeColoring(4, [1] * 12)
    with pytest.raises(TargetNotProper4):
        theorem_4_1_transform(g, EdgeColoring(5, f.colors), bad_h)


def test_theorem_4_1_octahedron_end_to_end():
    g = octahedron()
    _, h = figure1_pair()
    for seed in range(10):
        f = random_proper_coloring(g, 5, seed)
        stats = []
        tr = theorem_4_1_transform(g, f, h, stats)
        final = apply_transcript(g, f, tr)
        assert final.colors == h.colors
        assert all(after > before for before, after in stats)


def test_theorem_4_1_sweep_with_monovariant():
    for n in (6, 8, 10, 12):
        for seed in range(8):
            g, h = random_regular4_class1(n, seed)
            f = random_proper_coloring(g, 5, seed * 13 + n)
            stats = []
            tr = theorem_4_1_transform(g, f, h, stats)
            assert apply_transcript(g, f, tr).colors == h.colors
            assert all(after > before for before, after in stats)


def test_matched_count_is_kept_current():
    """After every swap of the theorem_4_1 golden families, the one hook
    that keeps the measures, the kept matched count equals a full recount
    and every defect edge is on the heap.  Each move of phase 1 and phase 2
    is one swap."""
    from test_golden_transcripts import GOLDEN

    checked = [0]
    swap = _Work.swap

    def checking(work, *args):
        swap(work, *args)
        target = [e for e, on in enumerate(work.h1_mask) if on]
        assert work.matched() == sum(1 for e in target if work.colors[e] == 1)
        assert {e for e in target if work.colors[e] != 1} <= set(work.defects)
        checked[0] += 1

    moves = phase1 = 0
    with mock.patch.object(_Work, "swap", checking):
        for family in sorted(GOLDEN):
            if family.startswith("theorem_4_1"):
                for _, _, tr in GOLDEN[family][0]():
                    moves += len(tr)
                    phase1 += sum(1 for note in tr.annotations if note != "phase2")
    assert checked[0] == moves >= phase1 > 0


def test_theorem_4_1_oracle_cross_check():
    g = octahedron()
    _, h = figure1_pair()
    f = random_proper_coloring(g, 5, 123)
    tr = theorem_4_1_transform(g, f, h)
    assert apply_transcript(g, f, tr).colors == h.colors
    ok, _ = same_class(g, 5, f, EdgeColoring(5, h.colors))
    assert ok


def test_lemma_2_1_a_outcomes_and_derived_postconditions():
    improved = 0
    for seed in range(40):
        g, h = random_regular4_class1(10, seed)
        f = random_proper_coloring(g, 5, seed)
        for pv in _windows(g, f, 5)[:12]:
            res, coloring, tr, to_real = _stepped(g, f, h, _window_escape_or_certify, pv)
            if res[0] == "improved":
                pair_edge, c = res[1], to_real[res[2]]
                assert c in (3, 4, 5)
                assert is_proper(g, coloring)
                # the color is missing at both ends of the returned edge
                u, v = g.edges[pair_edge]
                assert c not in palette_at(g, coloring, u)
                assert c not in palette_at(g, coloring, v)
                # every move stays inside {3,4,5}
                for mv in tr.moves:
                    assert {mv.a, mv.b} <= {3, 4, 5}
                assert apply_transcript(g, f, tr) == coloring
                improved += 1
            else:
                assert len(tr) == 0
                assert _window_holds(g, lambda v: palette_at(g, f, v), *pv[1:4])
    assert improved > 50


def test_lemma_2_1_a_settled_window_certificate():
    # frozen instance where both window conditions hold (settled windows are
    # rare under random colorings; found by seeded scan)
    g, h = random_regular4_class1(8, 248)
    f = random_proper_coloring(g, 5, 4224)
    pv = [5, 2, 8, 7, 3]
    res, _, tr, _ = _stepped(g, f, h, _window_escape_or_certify, pv)
    assert res[0] == "holds" and len(tr) == 0
    assert _window_holds(g, lambda v: palette_at(g, f, v), 2, 8, 7)
    # the certificate is literal: both off-path neighbors of the middle
    # vertex carry all of {3,4,5}
    for x in res[1:]:
        assert g.edge_id(8, x) is not None
        assert {3, 4, 5} <= palette_at(g, f, x)


def test_lemma_2_1_a_direct_missing_color_needs_no_moves():
    for seed in range(60):
        g, h = random_regular4_class1(10, seed)
        f = random_proper_coloring(g, 5, seed + 77)
        for pv in _windows(g, f, 5)[:8]:
            v1, v2, v3 = pv[1], pv[2], pv[3]
            direct = [
                c
                for c in (3, 4, 5)
                if c not in palette_at(g, f, v1) | palette_at(g, f, v2)
                or c not in palette_at(g, f, v2) | palette_at(g, f, v3)
            ]
            if direct:
                res, _, tr, _ = _stepped(g, f, h, _window_escape_or_certify, pv)
                assert res[0] == "improved"
                assert len(tr.moves) == 0
                return
    pytest.skip("no direct-missing window found")


def test_lemma_2_1_b_postcondition():
    found = 0
    for seed in range(60):
        g, h = random_regular4_class1(12, seed)
        f = random_proper_coloring(g, 5, seed * 3)
        for pv in _windows(g, f, 6)[:8]:
            (pair_edge, c), coloring, tr, to_real = _stepped(g, f, h, _window_b, pv)
            c = to_real[c]
            window = [g.edge_id(pv[i], pv[i + 1]) for i in (1, 2, 3)]
            i = window.index(pair_edge) + 1
            assert 1 <= i <= 3 and c in (3, 4, 5)
            u, v = pv[i], pv[i + 1]
            assert c not in palette_at(g, coloring, u)
            assert c not in palette_at(g, coloring, v)
            for mv in tr.moves:
                assert {mv.a, mv.b} <= {3, 4, 5}
            assert apply_transcript(g, f, tr) == coloring
            found += 1
        if found > 60:
            break
    assert found > 30


def test_lemma_2_2_outcomes():
    seen = set()
    ctx_checks = 0
    for seed in range(200):
        g, h = random_regular4_class1(10, seed % 60)
        f = random_proper_coloring(g, 5, seed)
        for pv in _windows(g, f, 5):
            e = g.edge_id(pv[0], pv[1])
            if f.colors[e] != 2 or h.colors[e] != 1:
                continue
            out, coloring, tr, to_real = _stepped(g, f, h, _lemma_2_2_inner, pv)
            seen.add(out[0])
            if out[0] == "I":
                assert len(tr) == 0
                assert _window_holds(g, lambda v: palette_at(g, f, v), *pv[1:4])
            elif out[0] == "II":
                assert _matched(coloring, h) == _matched(f, h)
                assert 1 not in palette_at(g, coloring, pv[1])
                assert apply_transcript(g, f, tr) == coloring
            elif out[0] == "III":
                pair_edge, c = out[1], to_real[out[2]]
                u, v = g.edges[pair_edge]
                assert c not in palette_at(g, coloring, u)
                assert c not in palette_at(g, coloring, v)
                for mv in tr.moves:
                    assert {mv.a, mv.b} <= {3, 4, 5}
            else:
                assert _matched(coloring, h) > _matched(f, h)
            ctx_checks += 1
        if seen >= {"II", "III"} and ctx_checks > 80:
            break
    assert "III" in seen and "II" in seen


def test_lemma_2_3_increases_matched_count():
    done = 0
    for seed in range(120):
        g, h = random_regular4_class1(10, seed % 50)
        f = random_proper_coloring(g, 5, seed + 999)
        for eid in range(g.m):
            if f.colors[eid] != 2 or h.colors[eid] != 1:
                continue
            # check the distance precondition independently
            comp, verts, cyc = backend.trace_component(
                g, list(f.colors), 1, 2, eid
            )
            s = comp.index(eid)
            near = []
            if cyc:
                nn = len(comp)
                near = [comp[(s + d) % nn] for d in (-3, -2, -1, 1, 2, 3)]
            else:
                near = comp[max(0, s - 3): s] + comp[s + 1: s + 4]
            if any(f.colors[x] == 1 and h.colors[x] == 1 for x in near):
                continue
            out, coloring, tr, _ = _stepped(g, f, h, _lemma_2_3_inner, eid)
            assert out is None
            assert _matched(coloring, h) > _matched(f, h)
            assert apply_transcript(g, f, tr) == coloring
            done += 1
            break
        if done >= 25:
            break
    assert done >= 10


def test_lemma_2_3_rejects_a_correct_edge_within_distance_2():
    """The flip's distance precondition is the caller's; broken, it is an
    internal error before any move."""
    g, h = random_regular4_class1(10, 1)
    f = random_proper_coloring(g, 5, 10_001)
    assert f.colors[2] == 2 and h.colors[2] == 1
    work = _checked_work(g, f, h)
    with pytest.raises(InternalInvariantError, match="within distance 2"):
        _lemma_2_3_inner(work, 2)
    assert len(work.tr) == 0


def test_lemma_2_3_rejects_an_edge_the_target_does_not_color_1():
    g, h = random_regular4_class1(10, 1)
    f = random_proper_coloring(g, 5, 10_001)
    e = next(e for e in range(g.m) if f.colors[e] != 1 and h.colors[e] != 1)
    work = _checked_work(g, f, h)
    with pytest.raises(InternalInvariantError, match="not a target 1-edge"):
        _lemma_2_3_inner(work, e)
    assert len(work.tr) == 0


@pytest.mark.parametrize(
    "step",
    [_window_escape_or_certify, _window_b, _lemma_2_2_inner],
    ids=["window_escape_or_certify", "window_b", "lemma_2_2_inner"],
)
def test_window_steps_reject_a_window_off_the_12_component(step):
    """A window whose inner vertex misses color 1 or 2 does not lie on a
    (1,2)-path; with no free edge on it, each window step raises
    InternalInvariantError before any move: only the case machine builds
    windows, so a bad one is its own fault."""
    g, h = random_regular4_class1(8, 0)
    f = random_proper_coloring(g, 5, 0)
    pv = [1, 7, 5, 6, 2]
    assert all(g.edge_id(a, b) is not None for a, b in zip(pv, pv[1:]))
    assert any(not {1, 2} <= palette_at(g, f, v) for v in pv[1:4])
    work = _checked_work(g, f, h)
    with pytest.raises(
        InternalInvariantError, match="must carry colors 1,2 plus two others"
    ):
        step(work, pv)
    assert len(work.tr) == 0


def _checked_work_inputs(case):
    g = octahedron()
    f, h = figure1_pair()
    f5 = EdgeColoring(5, f.colors)
    if case == "not 4-regular":
        star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        return star, EdgeColoring(5, [1, 2, 3, 4]), EdgeColoring(4, [1, 2, 3, 4])
    if case == "palette 4":
        return g, f, h
    if case == "palette 6":
        return g, EdgeColoring(6, f.colors), h
    if case == "target palette 5":
        return g, f5, EdgeColoring(5, h.colors)
    return g, f5, EdgeColoring(4, [1] * g.m)  # an improper target


_CHECKED_WORK_REFUSALS = {
    "not 4-regular": (NotRegular4, "graph is not 4-regular"),
    "palette 4": (PaletteMismatch, "working coloring must use palette 5, got 4"),
    "palette 6": (PaletteMismatch, "working coloring must use palette 5, got 6"),
    "target palette 5": (TargetNotProper4, "target must be a proper 4-edge coloring"),
    "target improper": (TargetNotProper4, "target must be a proper 4-edge coloring"),
}


@pytest.mark.parametrize("case", sorted(_CHECKED_WORK_REFUSALS))
def test_checked_work_refuses_inputs_outside_the_machine(case):
    """The internal steps run on `_checked_work`'s state, which holds only
    for a 4-regular graph, a 5-coloring and a proper 4-coloring target."""
    error, message = _CHECKED_WORK_REFUSALS[case]
    g, f, h = _checked_work_inputs(case)
    with pytest.raises(error) as info:
        _checked_work(g, f, h)
    assert type(info.value) is error
    assert str(info.value) == message


def _case_b_step(work, e):
    work.reframe_edge2(e)
    return _case_B(work, e)


def _check_case_b(g, f, h, eid):
    """Case B on eid: "done" when the matched count rose, otherwise the
    case the next working edge presents to the dispatch."""
    nxt, coloring, tr, _ = _stepped(g, f, h, _case_b_step, eid)
    assert is_proper(g, coloring)
    assert apply_transcript(g, f, tr) == coloring
    if nxt is None:
        assert _matched(coloring, h) > _matched(f, h)
        return "done"
    assert _matched(coloring, h) >= _matched(f, h)
    ones = sum(1 in palette_at(g, coloring, v) for v in g.edges[nxt])
    return "case_A" if ones <= 1 else "case_B1"


def test_case_b_step_outcomes():
    done = 0
    for seed in range(300):
        g, h = random_regular4_class1(12, seed % 80)
        f = random_proper_coloring(g, 5, seed)
        for eid in range(g.m):
            if h.colors[eid] != 1 or f.colors[eid] == 1:
                continue
            u, v = g.edges[eid]
            has1 = lambda w: any(f.colors[e2] == 1 for _, e2 in g.adj[w])
            if not (has1(u) and has1(v)):
                continue
            _check_case_b(g, f, h, eid)
            done += 1
            break
        if done >= 20:
            break
    assert done >= 10
    # the two tags naming the next dispatch, on (n, seed, edge)
    for (n, s, eid), tag in (((8, 41, 0), "case_A"), ((8, 57, 2), "case_B1")):
        g, h = random_regular4_class1(n, s)
        f = random_proper_coloring(g, 5, 10_000 + s)
        assert _check_case_b(g, f, h, eid) == tag


def test_sides_name_the_component():
    g, h = random_regular4_class1(10, 3)
    f = random_proper_coloring(g, 5, 9)
    for eid in range(g.m):
        if f.colors[eid] != 1:
            work = _checked_work(g, f, h)
            work.reframe_edge2(eid)
            u_side, v_side, *_ = _sides(work, eid)
            u, v = g.edges[eid]
            assert {u_side[0], v_side[0]} == {u, v}
            # the off-path neighbors of v2 carry the frame colors 5 and 4
            if len(v_side) > 1:
                for color in (5, 4):
                    x = g.other_end(work.edge_at(v_side[1], color), v_side[1])
                    assert g.edge_id(v_side[1], x) is not None
            break


# kind -> (random_regular4_class1(10, seed) and its 5-coloring's seed, edge)
_SIDES = {"path": (0, 1), "cycle": (24, 0)}


@pytest.mark.parametrize("kind", sorted(_SIDES))
def test_sides_read_the_component_away_from_the_edge(kind):
    """Each side starts at an end of e; a side's i-th edge joins its
    vertices i and i + 1.  A path's sides cover it; a cycle of n edges
    gives min(n, 7) vertices each way."""
    seed, e = _SIDES[kind]
    g, h = random_regular4_class1(10, seed)
    f = random_proper_coloring(g, 5, seed)
    work = _checked_work(g, f, h)
    work.reframe_edge2(e)
    u_side, v_side, n, eids, u_edges, v_edges = _sides(work, e)
    assert {u_side[0], v_side[0]} == set(g.edges[e])
    for side, edges in ((u_side, u_edges), (v_side, v_edges)):
        assert len(edges) == len(side) - 1
        for i, edge in enumerate(edges):
            assert set(g.edges[edge]) == {side[i], side[i + 1]}
    assert {f.colors[x] for x in eids} == {1, f.colors[e]}
    if kind == "path":
        assert n == 0
        assert sorted(u_edges + [e] + v_edges) == sorted(eids)
        assert len(set(u_side + v_side)) == len(eids) + 1
    else:
        assert n == len(eids) == 10
        assert len(u_side) == len(v_side) == 7
