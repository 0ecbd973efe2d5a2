"""Doubling lift for maximum degree 4, plus the low-degree search equalizer.

A graph with maximum degree 4 is repeatedly doubled (two disjoint copies,
deficient twins joined by an edge) until 4-regular; colorings lift by copying
and coloring each joining edge with a free low color.  Every doubling keeps
the lower level's edges, with their ids, as copy one, so each level is a
subgraph of the top one and a lifted coloring restricts to the coloring it
was lifted from.  A transcript found on the top level therefore projects
straight onto any level: the (a, b)-components of a subgraph refine those of
the whole graph, so each top move becomes a batch of moves on the level's
components inside the top component, and the level's coloring tracks the
restriction of the top run exactly.

The degree-at-most-3 equalizer is a certified search over the Kempe
reconfiguration graph.  It keeps an index of the working coloring's
two-colored components, each scored by the agreement with the goal that its
interchange gains on its own edges.  Every greedy step takes the first
gaining component in neighbor order from the index; after the swap the
index re-traces only the components that meet the swapped component's
vertices.  Only when no component gains does a labeled BFS run to the
nearest better state, and only when that BFS runs out of states does the
oracle's exact bidirectional search carry the coloring to the goal.  Every
move, from any of the three, goes through the index.  The transcripts are
verified like any other; only termination relies on the reachability
guarantee.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    NoFreeLowColor,
    PaletteMismatch,
    ProjectionMismatch,
    SearchBudgetExceeded,
    TargetNotProper4,
    WrongMaxDegree,
)
from .graph_core import EdgeColoring, Graph, check_edge_id, is_proper, require_proper
from .kempe_engine import KempeMove, Transcript, apply_transcript
from .kernels import backend
from .oracle import _meet_in_middle, _path_to

DEFAULT_SEARCH_BUDGET = 2_000_000  # states the exact fallback may store
_IMPROVE_BUDGET = 250_000  # states one `_bfs_to_better` may store


@dataclass
class DoublingTower:
    """Levels G_0..G_L (L = 4 - min degree) and the joining edges.

    In level i+1, copy one of vertex v is v and copy two is v + n_i; copy-one
    edges keep their ids 0..m_i-1, copy-two edge e + m_i is the image of e,
    joining edges come last.  So G_i is the subgraph of every higher level
    on the edge ids 0..m_i-1.
    """

    levels: list
    joining_edges: list   # level i -> list of (vertex of G_i, edge id in G_{i+1})


def build_tower(g: Graph) -> DoublingTower:
    if g.max_degree() != 4:
        raise WrongMaxDegree(f"expected maximum degree 4, got {g.max_degree()}")
    levels = [g]
    joining = []
    cur = g
    while cur.min_degree() < 4:
        n = cur.n
        edges = list(cur.edges) + [(u + n, v + n) for u, v in cur.edges]
        join = []
        for v in range(1, n + 1):
            if cur.degree(v) < 4:
                join.append((v, len(edges)))
                edges.append((v, v + n))
        nxt = Graph(2 * n, edges)
        levels.append(nxt)
        joining.append(join)
        cur = nxt
        if len(levels) > 5:
            raise InternalInvariantError("tower failed to reach 4-regularity")
    return DoublingTower(levels, joining)


def lift_coloring(tower: DoublingTower, level: int, f: EdgeColoring) -> EdgeColoring:
    """Color level+1: both copies as f, each joining edge with the smallest
    color of {1,2,3,4} not used at its base vertex."""
    g = tower.levels[level]
    big = tower.levels[level + 1]
    if f.m != g.m:
        raise PaletteMismatch("coloring does not fit the level")
    colors = list(f.colors) * 2
    for v, _ in tower.joining_edges[level]:
        used = {f.colors[eid] for _, eid in g.adj[v]}
        free = [c for c in (1, 2, 3, 4) if c not in used]
        if not free:
            raise NoFreeLowColor(f"vertex {v} sees every low color")
        colors.append(free[0])
    lifted = EdgeColoring(f.t, colors)
    require_proper(big, lifted, "lifted coloring")
    return lifted


def project_transcript(
    tower: DoublingTower, level: int, f_small: EdgeColoring, big_tr: Transcript
) -> Transcript:
    """Project a transcript on the top level down to `level`, tracking the
    restriction to the level's edge ids in lockstep (any divergence raises
    ProjectionMismatch).

    The top run starts from `f_small` lifted to the top.  G_level is the
    subgraph of the top level on the ids below m_level, and the colors
    agree there, so every (a, b)-component of G_level lies inside one top
    component.  A top move on C becomes one move per G_level-component
    inside C, by ascending representative; only C's edges change on either
    side, so only they are compared.
    """
    g_small = tower.levels[level]
    g_big = tower.levels[-1]
    m = g_small.m
    lifted = f_small
    for i in range(level, len(tower.levels) - 1):
        lifted = lift_coloring(tower, i, lifted)
    big_colors = list(lifted.colors)
    small_colors = list(f_small.colors)
    ga_big = g_big.arrays()
    ga_small = g_small.arrays()
    out = Transcript()
    for mv in big_tr.moves:
        check_edge_id(g_big, mv.rep_edge)
        if big_colors[mv.rep_edge] not in (mv.a, mv.b):
            raise ProjectionMismatch("big transcript does not replay")
        comp, _, _ = backend.trace_component(ga_big, big_colors, mv.a, mv.b, mv.rep_edge)
        backend.swap_component(big_colors, comp, mv.a, mv.b)
        hits = {e for e in comp if e < m}
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
        if any(small_colors[e] != big_colors[e] for e in hits):
            raise ProjectionMismatch("restriction diverged from the big run")
    return out


# ---------------------------------------------------------------------------
# Search equalizer (Delta <= 3 stand-in)
# ---------------------------------------------------------------------------


def _agreement(state: bytes, goal: bytes) -> int:
    """Edges on which `state` and `goal` (of equal length) agree: the zero
    bytes of their XOR, counted in C."""
    x = int.from_bytes(state, "little") ^ int.from_bytes(goal, "little")
    return x.to_bytes(len(goal), "little").count(0)


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
        for a, b, rep, comp in _kempe_components(ga, self.state, colors):
            self._add(a, b, rep, comp)

    def _add(self, a, b, rep, comp):
        owner = self.owner[a, b]
        for e in comp:
            owner[e] = rep
        self.comps[a, b][rep] = comp
        if _gain(self.state, self.goal, a, b, comp) > 0:
            self.gaining[a, b].add(rep)

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


def _bfs_to_better(ga, start, goal, colors, cap):
    """Moves (a, b, rep) to a nearest state with strictly larger agreement
    with `goal`, or None once more than `cap` states are stored.

    A labeled BFS from `start` over interchanges on `colors`, read back
    along its parent links.  The equalizer calls it only when the index
    shows that no single interchange gains, so the nearest better state is
    at least two moves away.
    """
    base = _agreement(start, goal)
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        # the palette argument is read only when no color set is given
        for a, b, rep, nxt in backend.kempe_neighbor_moves(ga, cur, None, colors):
            if nxt in parent:
                continue
            parent[nxt] = (cur, (a, b, rep))
            if _agreement(nxt, goal) > base:
                moves = _path_to(parent, nxt)
                moves.reverse()
                return moves
            queue.append(nxt)
            if len(parent) > cap:
                return None
    return None


def _equalize_search(g: Graph, start: bytes, goal: bytes, colors):
    """Move list carrying `start` to `goal` with interchanges over `colors`.

    Each step takes the index's first gaining component.  When none gains,
    `_bfs_to_better` looks for the nearest better state among at most
    `_IMPROVE_BUDGET` states; when it finds none, the exact search
    `oracle._meet_in_middle` runs to the goal, storing at most
    `DEFAULT_SEARCH_BUDGET` states.  Every move's rep is its component's
    least edge id, so all of them are applied through the index.
    """
    if start == goal:
        return []
    ga = g.arrays()
    out = []
    index = _ComponentIndex(ga, start, goal, colors)
    for _ in range(len(start) * 4 + 8):
        if index.state == goal:
            return out
        step = index.first_gaining()
        if step is not None:
            index.swap(*step)
            out.append(step)
            continue
        cur = bytes(index.state)
        moves = _bfs_to_better(ga, cur, goal, colors, _IMPROVE_BUDGET)
        exact = moves is None
        if exact:
            try:
                moves = _meet_in_middle(ga, cur, goal, colors, DEFAULT_SEARCH_BUDGET)
            except BudgetExceeded:
                raise SearchBudgetExceeded(
                    f"equalizer exceeded {DEFAULT_SEARCH_BUDGET} states (graph m={g.m})"
                ) from None
            if moves is None:
                raise InternalInvariantError("goal outside the start's Kempe class")
        for step in moves:
            index.swap(*step)
        out.extend(moves)
        if exact:
            if index.state != goal:
                raise InternalInvariantError("bidirectional splice missed the goal")
            return out
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
    moves = _equalize_search(g, bytes(f.colors), bytes(h.colors), range(1, t + 1))
    tr = Transcript()
    for a, b, rep in moves:
        tr.append(KempeMove(a, b, rep), "search")
    return tr


def transform_delta4(g: Graph, f: EdgeColoring, h: EdgeColoring) -> Transcript:
    """Transcript from a proper t-coloring (t >= 5) to a given proper
    4-coloring of a graph with maximum degree 4.

    Above palette 5 the coloring is first reduced; irregular graphs are
    lifted through the doubling tower, solved 4-regularly on top, and the
    transcript projected straight back onto the input graph.  The 4-coloring h certifies
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
        top_f, top_h = cur, h
        for i in range(len(tower.levels) - 1):
            top_f = lift_coloring(tower, i, top_f)
            top_h = lift_coloring(tower, i, top_h)
        top_tr = theorem_4_1_transform(tower.levels[-1], top_f, top_h)
        tr.extend(project_transcript(tower, 0, cur, top_tr))
    if apply_transcript(g, f, tr, check=False).colors != h.colors:
        raise InternalInvariantError("delta-4 transform terminated off target")
    return tr
