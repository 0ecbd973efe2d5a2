"""Doubling tower, transcript projection, and the search equalizer."""
import random
from collections import Counter, deque

import pytest

from kempe_edge import degree4_lift
from kempe_edge.degree4_lift import (
    _agreement,
    _bfs_to_better,
    _ComponentIndex,
    _equalize_search,
    _gain,
    _kempe_components,
    build_tower,
    lift_coloring,
    low_degree_equalize,
    project_transcript,
    transform_delta4,
)
from kempe_edge.errors import EdgeOutOfRange, SearchBudgetExceeded, WrongMaxDegree
from kempe_edge.fixtures_gen import (
    octahedron,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper
from kempe_edge.kempe_engine import KempeMove, Transcript, apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.oracle import chromatic_index, kempe_classes
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
        ga = tower.levels[-1].arrays()
        # random walk on the top level
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
    ga = top.arrays()
    rng = random.Random(11)
    for fseed in range(4):
        f = random_proper_coloring(star, 5, fseed)
        lifted = [f]
        for i in range(len(tower.levels) - 1):
            lifted.append(lift_coloring(tower, i, lifted[-1]))
        state = bytes(lifted[-1].colors)
        tr = Transcript()
        for _ in range(30):
            a, b, rep, state = rng.choice(backend.kempe_neighbor_moves(ga, state, 5))
            tr.append(KempeMove(a, b, rep))
        for i, g_i in enumerate(tower.levels):
            projected = project_transcript(tower, i, lifted[i], tr)
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
    projected = project_transcript(tower, 0, f, tr)
    # the joining component may touch copy edges; if it stayed within the
    # joining matching the projection is empty
    comp, _, _ = backend.trace_component(
        big.arrays(), list(lifted.colors), a, b, join_eid
    )
    if not (set(comp) & set(range(base.m))):
        assert len(projected.moves) == 0
    else:
        assert len(projected.moves) >= 1


def test_project_rejects_rep_outside_the_top_level():
    """Id -1 must not be read as the top level's last edge."""
    base = k5_minus_edge()
    tower = build_tower(base)
    f = random_proper_coloring(base, 5, 1)
    for rep in (-1, tower.levels[-1].m):
        with pytest.raises(EdgeOutOfRange, match=f"edge id {rep} not in"):
            project_transcript(tower, 0, f, Transcript([KempeMove(1, 2, rep)]))


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


# The search before the component index took every greedy step, kept
# verbatim (names prefixed `_old`) as the reference for the current one: a
# one-move scan ahead of the labeled BFS, and its own bidirectional search
# with its own parent-link walk.


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


def _old_bfs_to_better(ga, start, goal, colors, t, cap):
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
    for k, (a, b, rep, comp) in enumerate(_kempe_components(ga, start, colors), 2):
        if _gain(start, goal, a, b, comp) > 0:
            nxt = bytearray(start)
            backend.swap_component(nxt, comp, a, b)
            return [(a, b, rep)], bytes(nxt)
        if k > cap:
            return None
    base = _old_agreement(start, goal)
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for a, b, rep, nxt in backend.kempe_neighbor_moves(ga, cur, t, colors):
            if nxt in parent:
                continue
            parent[nxt] = (cur, (a, b, rep))
            if _old_agreement(nxt, goal) > base:
                return _old_reconstruct(parent, nxt), nxt
            queue.append(nxt)
            if len(parent) > cap:
                return None
    return None


def _old_bidirectional(ga, start, goal, colors, t, cap):
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
            for a, b, rep, nxt in backend.kempe_neighbor_moves(ga, cur, t, colors):
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


def _replay(ga, state, moves):
    state = bytearray(state)
    for a, b, rep in moves:
        comp, _, _ = backend.trace_component(ga, state, a, b, rep)
        backend.swap_component(state, comp, a, b)
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
    """The plain labeled BFS returns the moves of the old one-move scan plus
    BFS at every step of the search loop, including steps where no single
    interchange gains, and under a cap small enough to stop the scan."""
    deep = 0
    for n in (8, 10, 12):
        for seed in range(22):
            g = _random_cubic(n, seed)
            ga = g.arrays()
            cur = bytes(random_proper_coloring(g, 4, seed).colors)
            goal = bytes(random_proper_coloring(g, 4, seed + 100).colors)
            colors = (1, 2, 3, 4)
            old = _old_bfs_to_better(ga, cur, goal, colors, 4, 3)
            assert _bfs_to_better(ga, cur, goal, colors, 3) == (old and old[0])
            while cur != goal:
                moves = _bfs_to_better(ga, cur, goal, colors, 250_000)
                old = _old_bfs_to_better(ga, cur, goal, colors, 4, 250_000)
                if old is None:
                    assert moves is None
                    break
                assert moves == old[0]
                assert _replay(ga, cur, moves) == old[1]
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


def _assert_index_matches_walk(index, ga, goal, colors):
    walk = list(_kempe_components(ga, index.state, colors))
    expect = {p: {} for p in index.pairs}
    for a, b, rep, comp in walk:
        expect[a, b][rep] = comp
    for p in index.pairs:
        assert {r: sorted(c) for r, c in index.comps[p].items()} == {
            r: sorted(c) for r, c in expect[p].items()
        }
        owner = [-1] * ga.m
        for r, comp in expect[p].items():
            for e in comp:
                owner[e] = r
        assert index.owner[p] == owner
        assert index.gaining[p] == {
            r for r, comp in expect[p].items()
            if _gain(index.state, goal, *p, comp) > 0
        }
    first = next(
        (
            (a, b, rep)
            for a, b, rep, comp in walk
            if _gain(index.state, goal, a, b, comp) > 0
        ),
        None,
    )
    assert index.first_gaining() == first


def test_component_index_matches_fresh_walk_after_every_swap():
    """Swaps on the first gaining component and on random (also losing)
    components keep the index equal to a fresh walk of the coloring."""
    rng = random.Random(5)
    swaps = 0
    for g, start, goal, colors, t in _search_instances((8, 10, 12), range(3)):
        ga = g.arrays()
        index = _ComponentIndex(ga, start, goal, colors)
        _assert_index_matches_walk(index, ga, goal, colors)
        for _ in range(25):
            step = index.first_gaining()
            if step is None or rng.random() < 0.5:
                p = rng.choice([p for p in index.pairs if index.comps[p]])
                step = (*p, rng.choice(sorted(index.comps[p])))
            expect = bytearray(index.state)
            comp, _, _ = backend.trace_component(ga, expect, *step)
            backend.swap_component(expect, comp, step[0], step[1])
            index.swap(*step)
            swaps += 1
            assert index.state == expect
            _assert_index_matches_walk(index, ga, goal, colors)
    assert swaps > 1000


def _reference_equalize_search(g, start, goal, colors, t, cap):
    """The search loop before the component index, a fresh walk per step,
    on the old `_bfs_to_better` and `_bidirectional`.  As in the indexed
    loop, `cap` binds only when no single interchange gains."""
    if start == goal:
        return []
    ga = g.arrays()
    out = []
    cur = start
    for _ in range(len(start) * 4 + 8):
        if cur == goal:
            return out
        gains = any(
            _gain(cur, goal, a, b, comp) > 0
            for a, b, _, comp in _kempe_components(ga, cur, colors)
        )
        found = _old_bfs_to_better(ga, cur, goal, colors, t, 250_000 if gains else cap)
        if found is None:
            tail = _old_bidirectional(ga, cur, goal, colors, t, 2_000_000)
            assert tail is not None and _replay(ga, cur, tail) == goal
            return out + tail
        moves, cur = found
        out.extend(moves)
    raise AssertionError("agreement failed to converge")


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
        total = len(list(_kempe_components(g.arrays(), start, colors)))
        for cap in (*range(total - 2, total + 3), 16 * total):
            monkeypatch.setattr(degree4_lift, "_IMPROVE_BUDGET", cap)
            assert _equalize_search(g, start, goal, colors) == (
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
    for g, start, goal, colors, _ in _search_instances((6, 8), range(6)):
        before = bfs_calls()
        moves = _equalize_search(g, start, goal, colors)
        runs.append((g, start, goal, colors, moves, bfs_calls() == before))
    exact = counts["_meet_in_middle", True]
    for cap in (1, 3, 10):
        monkeypatch.setattr(degree4_lift, "_IMPROVE_BUDGET", cap)
        for g, start, goal, colors, moves, greedy in runs:
            capped = _equalize_search(g, start, goal, colors)
            if greedy:
                assert capped == moves
            else:
                assert _replay(g.arrays(), start, capped) == goal
    assert any(greedy for *_, greedy in runs)
    assert counts["_meet_in_middle", True] > exact


def test_exact_search_budget_is_search_budget_exceeded(monkeypatch):
    """The shared exact search's BudgetExceeded reaches the equalizer's
    callers as SearchBudgetExceeded."""
    counts = Counter()
    _counting(monkeypatch, "_bfs_to_better", counts)
    for g, start, goal, colors, _ in _search_instances((6, 8), range(6)):
        _equalize_search(g, start, goal, colors)
        if counts:
            break
    assert counts
    monkeypatch.setattr(degree4_lift, "_IMPROVE_BUDGET", 1)
    monkeypatch.setattr(degree4_lift, "DEFAULT_SEARCH_BUDGET", 2)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 2 states"):
        _equalize_search(g, start, goal, colors)


def test_component_index_swap_retraces_locally(monkeypatch):
    """A swap on C re-traces at most 2 (k - 2) Delta |V(C)| components: the
    pairs (a, x) and (b, x), each at most the edges at V(C).  A rescan of
    the whole coloring exceeds this on the larger graphs."""
    traces = [0]
    trace = backend.trace_component

    def counting(*args):
        traces[0] += 1
        return trace(*args)

    monkeypatch.setattr(backend, "trace_component", counting)
    worst = 0.0
    for n, seed in ((12, 0), (60, 1), (120, 2)):
        g = _random_cubic(n, seed)
        ga = g.arrays()
        for colors, shift in (((1, 2, 3, 4), 0), ((2, 3, 4, 5), 1)):
            start = bytes(c + shift for c in _delta_plus_one_coloring(g, seed).colors)
            goal = bytes(c + shift for c in _delta_plus_one_coloring(g, seed + 1).colors)
            index = _ComponentIndex(ga, start, goal, colors)
            while (step := index.first_gaining()) is not None:
                comp = index.comps[step[0], step[1]][step[2]]
                verts = {v for e in comp for v in g.edges[e]}
                bound = 2 * (len(colors) - 2) * g.max_degree() * len(verts)
                traces[0] = 0
                index.swap(*step)
                assert traces[0] <= bound
                worst = max(worst, traces[0] / bound)
    assert worst > 0
