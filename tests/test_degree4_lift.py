"""Doubling tower, transcript projection, and the search equalizer."""
import random
from collections import deque

import pytest

from kempe_edge.degree4_lift import (
    _agreement,
    _bfs_to_better,
    _kempe_components,
    _reconstruct,
    build_tower,
    lift_coloring,
    low_degree_equalize,
    project_transcript,
    transform_delta4,
)
from kempe_edge.errors import WrongMaxDegree
from kempe_edge.fixtures_gen import (
    octahedron,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper
from kempe_edge.kempe_engine import KempeMove, Transcript, apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.oracle import chromatic_index, kempe_classes


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
        lifted = lift_coloring(tower, 0, f)
        big = tower.levels[1]
        ga = big.arrays()
        # random walk on the big level
        state = bytes(lifted.colors)
        tr = Transcript()
        for _ in range(20):
            moves = backend.kempe_neighbor_moves(ga, state, 5)
            a, b, rep, nxt = rng.choice(moves)
            tr.append(KempeMove(a, b, rep))
            state = nxt
        projected = project_transcript(tower, 0, f, tr)
        # the projection replays and tracks the restriction exactly
        small_final = apply_transcript(base, f, projected, check=True)
        emap1 = tower.copy_edge_maps[0][0]
        for small_eid, big_eid in enumerate(emap1):
            assert small_final.colors[small_eid] == state[big_eid]


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
    projected = project_transcript(tower, 0, f, tr)
    # the joining component may touch copy edges; if it stayed within the
    # joining matching the projection is empty
    comp, _, _ = backend.trace_component(
        big.arrays(), list(lifted.colors), a, b, join_eid
    )
    emap1 = set(tower.copy_edge_maps[0][0])
    if not (set(comp) & emap1):
        assert len(projected.moves) == 0
    else:
        assert len(projected.moves) >= 1


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


def _reference_bfs_to_better(ga, start, goal, colors, t, cap):
    """The labeled BFS that scored every neighbor state in full, kept as the
    reference for the component-gain search."""
    base = _agreement(start, goal)
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for a, b, rep, nxt in backend.kempe_neighbor_moves(ga, cur, t, colors):
            if nxt in parent:
                continue
            parent[nxt] = (cur, (a, b, rep))
            if _agreement(nxt, goal) > base:
                return _reconstruct(parent, nxt), nxt
            queue.append(nxt)
            if len(parent) > cap:
                return None
    return None


def test_kempe_components_follow_neighbor_move_order():
    for n in (6, 8, 10, 12):
        for seed in range(5):
            g = _random_cubic(n, seed)
            ga = g.arrays()
            for t, colors in (
                (4, (1, 2, 3, 4)), (5, (1, 2, 3, 4, 5)), (5, (2, 3, 4, 5))
            ):
                state = bytes(random_proper_coloring(g, t, seed + 10 * n).colors)
                walk = list(_kempe_components(ga, state, colors))
                moves = backend.kempe_neighbor_moves(ga, state, t, colors)
                assert [(a, b, rep) for a, b, rep, _ in walk] == [
                    (a, b, rep) for a, b, rep, _ in moves
                ]
                for (a, b, rep, comp), (_, _, _, nxt) in zip(walk, moves):
                    swapped = bytearray(state)
                    backend.swap_component(swapped, comp, a, b)
                    assert bytes(swapped) == nxt


def test_bfs_to_better_matches_labeled_bfs():
    """Every step of the equalizer loop, including steps where no single
    interchange gains and the fallback BFS runs, and a cap small enough to
    stop the one-move scan."""
    deep = 0
    for n in (8, 10, 12):
        for seed in range(22):
            g = _random_cubic(n, seed)
            ga = g.arrays()
            cur = bytes(random_proper_coloring(g, 4, seed).colors)
            goal = bytes(random_proper_coloring(g, 4, seed + 100).colors)
            colors = (1, 2, 3, 4)
            assert _bfs_to_better(ga, cur, goal, colors, 4, 3) == (
                _reference_bfs_to_better(ga, cur, goal, colors, 4, 3)
            )
            while cur != goal:
                found = _bfs_to_better(ga, cur, goal, colors, 4, 250_000)
                assert found == _reference_bfs_to_better(
                    ga, cur, goal, colors, 4, 250_000
                )
                if found is None:
                    break
                deep += len(found[0]) > 1
                cur = found[1]
    assert deep > 0
