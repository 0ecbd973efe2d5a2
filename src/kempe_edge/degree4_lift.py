"""Doubling lift for maximum degree 4, plus the low-degree search equalizer.

A graph with maximum degree 4 is repeatedly doubled (two disjoint copies,
deficient twins joined by an edge) until 4-regular; colorings lift by copying
and coloring each joining edge with a free low color.  A transcript found on
the top level projects back down: restricted to one copy, every big component
decomposes into whole components of the lower level, so each big move becomes
a batch of lower-level moves whose restriction tracks the big run exactly.

The degree-at-most-3 equalizer is a certified search: iterated
nearest-improvement steps over the Kempe reconfiguration graph with an exact
bidirectional search as fallback.  The search keeps an index of the working
coloring's two-colored components, each scored by the agreement its
interchange gains on its own edges.  A step reads the first gaining
component in neighbor order from the index; after the swap the index
re-traces only the components that meet the swapped component's vertices.
Only when no component gains does a labeled BFS run to the nearest better
state.  Its transcripts are verified like any other; only termination
relies on the reachability guarantee.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    InternalInvariantError,
    NoFreeLowColor,
    PaletteMismatch,
    ProjectionMismatch,
    SearchBudgetExceeded,
    TargetNotProper4,
    WrongMaxDegree,
)
from .graph_core import EdgeColoring, Graph, is_proper, require_proper
from .kempe_engine import KempeMove, Transcript, apply_transcript
from .kernels import backend

DEFAULT_SEARCH_BUDGET = 2_000_000
_IMPROVE_BUDGET = 250_000


@dataclass
class DoublingTower:
    """Levels G_0..G_L (L = 4 - min degree), copy embeddings and joining edges.

    In level i+1, copy one of vertex v is v and copy two is v + n_i; copy-one
    edges keep their ids, copy-two edges follow, joining edges come last.
    """

    levels: list
    copy_edge_maps: list  # level i -> (ids of copy-1 images, ids of copy-2 images)
    joining_edges: list   # level i -> list of (vertex of G_i, edge id in G_{i+1})


def build_tower(g: Graph) -> DoublingTower:
    if g.max_degree() != 4:
        raise WrongMaxDegree(f"expected maximum degree 4, got {g.max_degree()}")
    levels = [g]
    copy_maps = []
    joining = []
    cur = g
    while cur.min_degree() < 4:
        n = cur.n
        edges = []
        emap1 = []
        emap2 = []
        for u, v in cur.edges:
            emap1.append(len(edges))
            edges.append((u, v))
        for u, v in cur.edges:
            emap2.append(len(edges))
            edges.append((u + n, v + n))
        join = []
        for v in range(1, n + 1):
            if cur.degree(v) < 4:
                join.append((v, len(edges)))
                edges.append((v, v + n))
        nxt = Graph(2 * n, edges)
        levels.append(nxt)
        copy_maps.append((emap1, emap2))
        joining.append(join)
        cur = nxt
        if len(levels) > 5:
            raise InternalInvariantError("tower failed to reach 4-regularity")
    return DoublingTower(levels, copy_maps, joining)


def lift_coloring(tower: DoublingTower, level: int, f: EdgeColoring) -> EdgeColoring:
    """Color level+1: both copies as f, each joining edge with the smallest
    color of {1,2,3,4} not used at its base vertex."""
    g = tower.levels[level]
    big = tower.levels[level + 1]
    if f.m != g.m:
        raise PaletteMismatch("coloring does not fit the level")
    colors = [0] * big.m
    emap1, emap2 = tower.copy_edge_maps[level]
    for eid in range(g.m):
        colors[emap1[eid]] = f.colors[eid]
        colors[emap2[eid]] = f.colors[eid]
    for v, join_eid in tower.joining_edges[level]:
        used = {f.colors[eid] for _, eid in g.adj[v]}
        free = [c for c in (1, 2, 3, 4) if c not in used]
        if not free:
            raise NoFreeLowColor(f"vertex {v} sees every low color")
        colors[join_eid] = free[0]
    lifted = EdgeColoring(f.t, colors)
    require_proper(big, lifted, "lifted coloring")
    return lifted


def project_transcript(
    tower: DoublingTower, level: int, f_small: EdgeColoring, big_tr: Transcript
) -> Transcript:
    """Project a transcript on level+1 down to level, tracking the copy-one
    restriction in lockstep (any divergence raises ProjectionMismatch)."""
    g_small = tower.levels[level]
    g_big = tower.levels[level + 1]
    emap1 = tower.copy_edge_maps[level][0]
    inv1 = {big_eid: small_eid for small_eid, big_eid in enumerate(emap1)}
    big_colors = list(lift_coloring(tower, level, f_small).colors)
    small_colors = list(f_small.colors)
    ga_big = g_big.arrays()
    ga_small = g_small.arrays()
    out = Transcript()
    for mv in big_tr.moves:
        if big_colors[mv.rep_edge] not in (mv.a, mv.b):
            raise ProjectionMismatch("big transcript does not replay")
        comp, _, _ = backend.trace_component(ga_big, big_colors, mv.a, mv.b, mv.rep_edge)
        backend.swap_component(big_colors, comp, mv.a, mv.b)
        hits = {inv1[e] for e in comp if e in inv1}
        reps = []
        seen = set()
        for se in sorted(hits):
            if se in seen:
                continue
            comp_small, _, _ = backend.trace_component(
                ga_small, small_colors, mv.a, mv.b, se
            )
            if not set(comp_small) <= hits:
                raise ProjectionMismatch(
                    "copy component extends outside the big component"
                )
            seen |= set(comp_small)
            reps.append((min(comp_small), comp_small))
        for rep, comp_small in sorted(reps):
            backend.swap_component(small_colors, comp_small, mv.a, mv.b)
            out.append(KempeMove(mv.a, mv.b, rep), "projected")
        for small_eid, big_eid in enumerate(emap1):
            if small_colors[small_eid] != big_colors[big_eid]:
                raise ProjectionMismatch("restriction diverged from the big run")
    return out


# ---------------------------------------------------------------------------
# Search equalizer (Delta <= 3 stand-in)
# ---------------------------------------------------------------------------


def _agreement(state: bytes, goal: bytes) -> int:
    return sum(1 for a, b in zip(state, goal) if a == b)


def _reconstruct(parent, state):
    moves = []
    while parent[state] is not None:
        prev, mv = parent[state]
        moves.append(mv)
        state = prev
    moves.reverse()
    return moves


def _kempe_components(ga, state, colors):
    """Yield (a, b, rep, edge ids) for every (a, b)-component of `state`.

    The order is that of `backend.kempe_neighbor_moves(ga, state, t,
    colors)`: color pairs a < b ascending over `colors`, then components by
    their least edge id `rep`.  Each component is traced only when reached.
    """
    cs = sorted(colors)
    for i, a in enumerate(cs):
        for b in cs[i + 1:]:
            seen = bytearray(len(state))
            for eid, c in enumerate(state):
                if (c == a or c == b) and not seen[eid]:
                    # the scan is ascending, so eid is the component's least edge
                    comp, _, _ = backend.trace_component(ga, state, a, b, eid)
                    for e in comp:
                        seen[e] = 1
                    yield a, b, eid, comp


def _gain(state, goal, a, b, comp):
    """Change in agreement with `goal` when a and b swap on `comp`."""
    gain = 0
    for e in comp:
        c = state[e]
        want = goal[e]
        gain += ((b if c == a else a) == want) - (c == want)
    return gain


class _ComponentIndex:
    """The (a, b)-components of a working coloring for every color pair of
    the search, kept current through interchanges.

    Per pair: `owner` maps an edge id to its component's representative
    (least edge id, -1 outside the pair), `comps` maps a representative to
    the component's edge ids, and `gaining` holds the representatives whose
    interchange raises the agreement with `goal`.  An (a, b) interchange on
    C keeps every (a, b)-component and every pair that avoids a and b; on
    the pairs (a, x) and (b, x) it changes only components that meet V(C).
    """

    def __init__(self, ga, state, goal, colors):
        self.ga = ga
        self.state = bytearray(state)
        self.goal = goal
        cs = sorted(colors)
        self.pairs = [(a, b) for i, a in enumerate(cs) for b in cs[i + 1:]]
        self.owner = {p: [-1] * ga.m for p in self.pairs}
        self.comps = {p: {} for p in self.pairs}
        self.gaining = {p: set() for p in self.pairs}
        self.total = 0
        for a, b, rep, comp in _kempe_components(ga, self.state, colors):
            self._add(a, b, rep, comp)

    def _add(self, a, b, rep, comp):
        owner = self.owner[a, b]
        for e in comp:
            owner[e] = rep
        self.comps[a, b][rep] = comp
        if _gain(self.state, self.goal, a, b, comp) > 0:
            self.gaining[a, b].add(rep)
        self.total += 1

    def first_gaining(self):
        """(a, b, rep) of the first gaining component in walk order, or None."""
        for a, b in self.pairs:
            gaining = self.gaining[a, b]
            if gaining:
                return a, b, min(gaining)
        return None

    def swap(self, a, b, rep):
        """Interchange a and b on the (a, b)-component `rep` and update."""
        ga = self.ga
        comp = self.comps[a, b][rep]
        verts = {ga.edge_u[e] for e in comp} | {ga.edge_v[e] for e in comp}
        touched = sorted({
            ga.adj_eid[k]
            for v in verts
            for k in range(ga.adj_start[v], ga.adj_start[v + 1])
        })
        affected = [p for p in self.pairs if p != (a, b) and (a in p or b in p)]
        for p in affected:
            owner, comps, gaining = self.owner[p], self.comps[p], self.gaining[p]
            for e in touched:
                r = owner[e]
                if r >= 0:
                    for e2 in comps.pop(r):
                        owner[e2] = -1
                    gaining.discard(r)
                    self.total -= 1
        backend.swap_component(self.state, comp, a, b)
        gaining = self.gaining[a, b]
        gaining.discard(rep)
        if _gain(self.state, self.goal, a, b, comp) > 0:
            gaining.add(rep)
        # A new component avoiding every edge at V(C) would be an old one
        # that met no vertex of C, and those were kept; so the edges at
        # V(C) reach every new component.
        state = self.state
        for x, y in affected:
            owner = self.owner[x, y]
            for e in touched:
                if owner[e] < 0 and state[e] in (x, y):
                    new, _, _ = backend.trace_component(ga, state, x, y, e)
                    self._add(x, y, min(new), new)


def _bfs_to_better(ga, start, goal, colors, t, cap):
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


def _bidirectional(ga, start, goal, colors, t, cap):
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
    forward = _reconstruct(pf, meet)
    # walk from the meet point to the goal: each backward parent move applied
    # to the meet-side state is its own inverse
    backward = []
    state = meet
    while pb[state] is not None:
        prev, mv = pb[state]
        backward.append(mv)
        state = prev
    return forward + backward


def _equalize_search(g: Graph, start: bytes, goal: bytes, colors, t: int):
    """Move list carrying `start` to `goal` with interchanges over `colors`;
    the exact fallback stores at most DEFAULT_SEARCH_BUDGET states."""
    if start == goal:
        return []
    ga = g.arrays()
    out = []
    index = _ComponentIndex(ga, start, goal, colors)
    for _ in range(len(start) * 4 + 8):
        if index.state == goal:
            return out
        # `_bfs_to_better` gives up at its cap-th component; below that
        # many components its first gaining one is the index's
        step = index.first_gaining() if index.total < _IMPROVE_BUDGET else None
        if step is not None:
            index.swap(*step)
            out.append(step)
            continue
        cur = bytes(index.state)
        found = _bfs_to_better(ga, cur, goal, colors, t, _IMPROVE_BUDGET)
        if found is None:
            tail = _bidirectional(ga, cur, goal, colors, t, DEFAULT_SEARCH_BUDGET)
            if tail is None:
                raise SearchBudgetExceeded(
                    f"equalizer exceeded {DEFAULT_SEARCH_BUDGET} states (graph m={g.m})"
                )
            state = bytearray(cur)
            for a, b, rep in tail:
                comp, _, _ = backend.trace_component(ga, state, a, b, rep)
                backend.swap_component(state, comp, a, b)
            if state != goal:
                raise InternalInvariantError("bidirectional splice missed the goal")
            return out + tail
        for step in found[0]:
            index.swap(*step)
        out.extend(found[0])
    raise InternalInvariantError("agreement failed to converge")


def low_degree_equalize(g: Graph, f: EdgeColoring, h: EdgeColoring) -> Transcript:
    """Transcript from f to h for maximum degree <= 3 at palette Delta+1.

    No chromatic index is needed, whether the graph is Class 1 or Class 2:
    all 4-colorings of a subcubic graph are Kempe equivalent
    (McDonald-Mohar-Scheide 2012), so existence is guaranteed.  The result
    is found by search and certified by replay like every other
    transcript."""
    delta = g.max_degree()
    if delta > 3:
        raise WrongMaxDegree(f"equalizer handles maximum degree <= 3, got {delta}")
    t = delta + 1
    if f.t != t or h.t != t:
        raise PaletteMismatch(f"expected palette {t}")
    require_proper(g, f)
    require_proper(g, h)
    moves = _equalize_search(
        g, bytes(f.colors), bytes(h.colors), tuple(range(1, t + 1)), t
    )
    tr = Transcript()
    for a, b, rep in moves:
        tr.append(KempeMove(a, b, rep), "search")
    return tr


def transform_delta4(g: Graph, f: EdgeColoring, h: EdgeColoring) -> Transcript:
    """Transcript from a proper t-coloring (t >= 5) to a given proper
    4-coloring of a graph with maximum degree 4.

    Above palette 5 the coloring is first reduced; irregular graphs are
    lifted through the doubling tower, solved 4-regularly on top, and the
    transcript projected back level by level.  The 4-coloring h certifies
    chi' = 4, so no chromatic index is computed."""
    if g.max_degree() != 4:
        raise WrongMaxDegree(f"expected maximum degree 4, got {g.max_degree()}")
    if h.t != 4 or not is_proper(g, h):
        raise TargetNotProper4("target must be a proper 4-edge coloring")
    require_proper(g, f)
    if f.t < 5:
        raise PaletteMismatch(f"working coloring must have palette >= 5, got {f.t}")
    from .regular4_core import theorem_4_1_transform
    from .vizing_reduce import reduce_to_delta_plus_one

    tr = Transcript()
    cur = f
    if f.t > 5:
        reduced, tr0 = reduce_to_delta_plus_one(g, f)
        tr.extend(tr0)
        cur = reduced
    if g.min_degree() == 4:
        tr.extend(theorem_4_1_transform(g, cur, h))
    else:
        tower = build_tower(g)
        f_levels = [cur]
        h_levels = [h]
        for i in range(len(tower.levels) - 1):
            f_levels.append(lift_coloring(tower, i, f_levels[-1]))
            h_levels.append(lift_coloring(tower, i, h_levels[-1]))
        top_tr = theorem_4_1_transform(tower.levels[-1], f_levels[-1], h_levels[-1])
        for i in reversed(range(len(tower.levels) - 1)):
            top_tr = project_transcript(tower, i, f_levels[i], top_tr)
        tr.extend(top_tr)
    if apply_transcript(g, f, tr, check=False).colors != h.colors:
        raise InternalInvariantError("delta-4 transform terminated off target")
    return tr
