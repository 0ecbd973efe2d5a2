"""Palette reduction to Delta+1 (classical fan recoloring)."""
import random
from unittest import mock

import pytest

from kempe_edge.errors import InternalInvariantError, PaletteTooSmall
from kempe_edge.fixtures_gen import random_graph, random_proper_coloring
from kempe_edge.graph_core import EdgeColoring, Graph, color_class, is_proper
from kempe_edge.kempe_engine import (
    Recorder,
    apply_transcript,
    downshift,
    grow_fan,
    least_color,
    palette_bits,
)
from kempe_edge.vizing_reduce import (
    _check_left_top_color,
    eliminate_via_fan,
    reduce_to_delta_plus_one,
)


def test_already_within_palette_gives_empty_transcript():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    f = EdgeColoring(4, [1, 2, 3])  # declared palette 4, uses only 3 colors
    out, tr = reduce_to_delta_plus_one(g, f)
    assert len(tr.moves) == 0
    assert out.t == 3 and out.colors == f.colors


def test_triangle_with_top_color():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    f = EdgeColoring(4, [1, 2, 4])
    out, tr = reduce_to_delta_plus_one(g, f)
    assert out.t == 3
    assert is_proper(g, out)
    assert not [c for c in out.colors if c > 3]
    # moves may only touch the color-4 offender's neighborhood
    replay = apply_transcript(g, f, tr)
    assert replay.colors == out.colors
    assert len(color_class(replay.with_palette(4), 4)) == 0


def test_palette_too_small_rejected():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(PaletteTooSmall):
        reduce_to_delta_plus_one(g, EdgeColoring(3, [1, 2, 3]))


def test_random_sweep_delta_plus_two():
    rng = random.Random(0)
    done = 0
    for seed in range(100):
        g = random_graph(rng.randint(4, 16), 0.45, seed)
        if g.m == 0:
            continue
        d = g.max_degree()
        f = random_proper_coloring(g, d + 2, seed)
        out, tr = reduce_to_delta_plus_one(g, f)
        assert out.t == d + 1
        assert is_proper(g, out)
        replay = apply_transcript(g, f, tr)
        assert replay.colors == out.colors
        done += 1
    assert done >= 95


def test_multiple_top_colors():
    rng = random.Random(3)
    for seed in range(25):
        g = random_graph(rng.randint(5, 12), 0.5, seed + 400)
        if g.m == 0:
            continue
        d = g.max_degree()
        f = random_proper_coloring(g, d + 3, seed)
        out, tr = reduce_to_delta_plus_one(g, f)
        assert out.t == d + 1
        assert is_proper(g, out)
        assert apply_transcript(g, f, tr).colors == out.colors


def test_top_color_check_rejects_a_move_that_spreads_it():
    """The per-elimination check accepts e1's single-edge recolor and
    rejects an interchange whose component carries c_top past e1, or a move
    on c_top at another edge."""
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    f = EdgeColoring(5, [2, 5, 2])  # path colored x, c_top, x with x = 2
    rec = Recorder(g, f)
    rec.recolor_edge(1, 1)
    _check_left_top_color(rec, 1, 5, 0)
    rec = Recorder(g, f)
    rec.apply(5, 2, 1)  # component is the whole path: 5 moves to edges 0, 2
    with pytest.raises(InternalInvariantError):
        _check_left_top_color(rec, 1, 5, 0)
    rec = Recorder(g, EdgeColoring(5, [5, 1, 5]))
    rec.recolor_edge(0, 2)
    rec.recolor_edge(2, 2)
    with pytest.raises(InternalInvariantError):
        _check_left_top_color(rec, 0, 5, 0)


def test_reduction_refuses_a_color_left_above_delta_plus_one(monkeypatch):
    """Each top color's offenders are collected once, before any move, so
    an elimination that moved an edge into a lower top class after its
    turn would leave it there; the final check names that fault."""
    from kempe_edge import vizing_reduce

    def misplace(rec, pivot, e1, allowed, note):
        # the 7-edge drops into class 6, which was collected already; the
        # 6-edge leaves for color 3
        rec.swap((e1,), rec.colors[e1], 6 if rec.colors[e1] == 7 else 3)

    monkeypatch.setattr(vizing_reduce, "eliminate_via_fan", misplace)
    monkeypatch.setattr(vizing_reduce, "_check_left_top_color", lambda *args: None)
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    with pytest.raises(InternalInvariantError, match="above Delta"):
        reduce_to_delta_plus_one(star, EdgeColoring(7, [1, 2, 6, 7]))


def test_one_edge_fan_is_the_public_fan_and_downshift():
    """On an edge with an allowed color free at both ends, eliminate_via_fan
    records the single move that the public grow_fan and downshift record,
    and grows no fan."""
    from kempe_edge import vizing_reduce

    done = 0
    for seed in range(40):
        g = random_graph(10, 0.4, seed + 700)
        if g.m == 0:
            continue
        d = g.max_degree()
        f = random_proper_coloring(g, d + 3, seed)
        allowed = palette_bits(d + 1)
        for e1, c in enumerate(f.colors):
            pivot, leaf = g.edges[e1]
            rec = Recorder(g, f)
            free = allowed & ~(rec.mask[pivot] | rec.mask[leaf])
            if c <= d + 1 or not free:
                continue
            with mock.patch.object(vizing_reduce, "extend_fan") as fan_engine:
                assert eliminate_via_fan(rec, pivot, e1, allowed, "note") is None
            assert fan_engine.call_count == 0
            # the public fan at the pivot, cut after its first edge, e1,
            # where the reduction's fan stops: the least free color is
            # missing at its leaf
            fan = grow_fan(g, f, pivot, e1)
            assert fan.edges[0] == e1
            fan = fan._replace(edges=fan.edges[:1], associated=())
            out, tr = downshift(g, f, fan, least_color(free))
            assert rec.tr.moves == tr.moves and len(tr) == 1
            assert rec.tr.annotations == ["note"]
            assert rec.coloring() == out
            done += 1
    assert done >= 20
