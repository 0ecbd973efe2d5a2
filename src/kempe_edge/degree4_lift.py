"""Doubling lift for maximum degree 4, plus the low-degree search equalizer.

A graph with maximum degree 4 is repeatedly doubled (two disjoint copies,
deficient twins joined by an edge) until 4-regular; colorings lift by copying
and coloring each joining edge with a free low color.  Every doubling keeps
the lower level's edges, with their ids, as copy one, so each level is a
subgraph of the top one and a lifted coloring restricts to the coloring it
was lifted from.  A transcript found on the top level therefore projects
straight onto any level, reading the level's coloring off the top run's one
color list: the (a, b)-components of a subgraph refine those of the whole
graph, so each top move becomes a batch of moves on the level's components
inside the top component.

The degree-at-most-3 equalizer is a certified search over the Kempe
reconfiguration graph.  It works on the caller's `Recorder`, swapping its
colors in place through `Recorder.swap` (which keeps the recorder's color
masks current) and recording every move in its transcript.  It keeps a
sparse index of the coloring's two-colored components: only those holding
a fixable edge (colored a with goal b, or the reverse) can gain agreement
with the goal, so only those are traced, each scored by the agreement its
interchange gains on its own edges.  Every greedy step takes the first
gaining component in neighbor order from the index's per-pair heaps; after
the swap the index re-traces, from fixable edges only, the pairs' indexed
components that met the swapped component's vertices.  The index and the
projection read components as bare edge sets, through
``backend.component_edges``.  Only when no component gains does a labeled
BFS run to the nearest better state, and only when that BFS runs out of
states does the oracle's exact bidirectional search carry the coloring to
the goal.  Every move, from any of the three, goes through the index, which
traces on demand a component it does not hold.  The transcripts are
verified like any other; only termination relies on the reachability
guarantee.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    NoFreeLowColor,
    PaletteMismatch,
    PreconditionViolated,
    ProjectionMismatch,
    SearchBudgetExceeded,
    TargetNotProper4,
    WrongMaxDegree,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    check_edge_id,
    is_proper,
    require_proper,
)
from .kempe_engine import KempeMove, Recorder, Transcript, _replay
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
    top = len(tower.levels) - 1
    if not 0 <= level < top:
        raise PreconditionViolated(f"level {level} not in 0..{top - 1} (below the top)")
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
    """Project a transcript on the top level down to `level`.

    The top run starts from `f_small` lifted to the top, and one color list,
    the top level's, serves both levels: G_level is the subgraph of the top
    level on the ids below m_level, and a lifted coloring restricts to the
    one it was lifted from.  Before a top move on C, the list is read
    through G_level: every (a, b)-component of G_level that meets C lies
    inside C, and each becomes one move, by ascending representative.
    Swapping C then swaps exactly those components.
    """
    top = len(tower.levels) - 1
    if not 0 <= level <= top:
        raise PreconditionViolated(f"level {level} not in 0..{top}")
    g_small = tower.levels[level]
    g_big = tower.levels[-1]
    m = g_small.m
    lifted = f_small
    for i in range(level, len(tower.levels) - 1):
        lifted = lift_coloring(tower, i, lifted)
    colors = list(lifted.colors)
    out = Transcript()
    for mv in big_tr.moves:
        check_edge_id(g_big, mv.rep_edge)
        if colors[mv.rep_edge] not in (mv.a, mv.b):
            raise ProjectionMismatch("big transcript does not replay")
        comp = backend.component_edges(g_big, colors, mv.a, mv.b, mv.rep_edge)
        hits = {e for e in comp if e < m}
        seen = set()
        for se in sorted(hits):
            if se in seen:
                continue
            # the scan is ascending, so se is the component's least edge
            comp_small = backend.component_edges(g_small, colors, mv.a, mv.b, se)
            if not hits.issuperset(comp_small):
                raise ProjectionMismatch(
                    "copy component extends outside the big component"
                )
            seen.update(comp_small)
            out.append(KempeMove(mv.a, mv.b, se), "projected")
        backend.swap_component(colors, comp, mv.a, mv.b)
    return out


# ---------------------------------------------------------------------------
# Search equalizer (Delta <= 3 stand-in)
# ---------------------------------------------------------------------------


def _agreement(state: bytes, goal: bytes) -> int:
    """Edges on which `state` and `goal` (of equal length) agree: the zero
    bytes of their XOR, counted in C."""
    x = int.from_bytes(state, "little") ^ int.from_bytes(goal, "little")
    return x.to_bytes(len(goal), "little").count(0)


class _ComponentIndex:
    """The (a, b)-components that hold a fixable edge, for every color
    pair of the search, kept current through interchanges.

    It works on a :class:`Recorder`: `state` is the recorder's color list,
    and every interchange goes through :meth:`Recorder.swap`, which keeps
    the recorder's color masks current.  An edge is *fixable* for (a, b)
    when it is colored a with goal b, or the reverse; only a component
    holding a fixable edge can raise the agreement with `goal`, so only
    those are indexed (a pair's long cycles that already agree with the
    goal are never traced).  Per pair: `owner` maps an edge id to its
    indexed component's representative (least edge id) and is -1 on every
    other edge, `comps` maps a representative to the component's edge ids,
    `gaining` holds the representatives whose interchange raises the
    agreement, and `heaps` holds them too, as a min-heap with lazy
    deletion: a top not in `gaining` is stale.

    An (a, b) interchange on C changes the fixability of C's edges only.
    It keeps every (a, b)-component and every pair that avoids a and b; on
    the pairs (a, x) and (b, x) it changes only components that meet V(C).
    Those indexed are dropped, and the pair is traced again from C's edges
    and the dropped components' edges, each only if it is fixable.  That
    reaches every new component with a fixable edge: one off C lies in an
    old component, which held it, was indexed and met V(C).  An unindexed
    old component meeting V(C) has no fixable edge off C.
    """

    def __init__(self, rec, goal, colors):
        self.rec = rec
        self.g = g = rec.g
        self.state = state = rec.colors
        self.goal = goal
        cs = sorted(colors)
        self.pairs = [(a, b) for i, a in enumerate(cs) for b in cs[i + 1:]]
        self.owner = {p: [-1] * g.m for p in self.pairs}
        self.comps = {p: {} for p in self.pairs}
        self.gaining = {p: set() for p in self.pairs}
        self.heaps = {p: [] for p in self.pairs}
        fixable = {p: [] for p in self.pairs}
        for e, (c, want) in enumerate(zip(state, goal)):
            p = (c, want) if c < want else (want, c)
            if p in fixable:
                fixable[p].append(e)
        for (a, b), seeds in fixable.items():
            self._trace(a, b, seeds)

    def _trace(self, a, b, seeds):
        """Index the (a, b)-component of every seed fixable for (a, b)
        that no indexed component holds."""
        owner, state, goal = self.owner[a, b], self.state, self.goal
        for e in seeds:
            c = state[e]
            if (c == a or c == b) and goal[e] == a + b - c and owner[e] < 0:
                self._add(a, b, backend.component_edges(self.g, state, a, b, e))

    def _add(self, a, b, comp):
        # owner and gain (as in swapping a and b on comp) in one pass
        owner = self.owner[a, b]
        state, goal = self.state, self.goal
        rep = min(comp)
        gain = 0
        for e in comp:
            owner[e] = rep
            c = state[e]
            want = goal[e]
            gain += (a + b - c == want) - (c == want)
        self.comps[a, b][rep] = comp
        if gain > 0:
            self.gaining[a, b].add(rep)
            heapq.heappush(self.heaps[a, b], rep)

    def _pop(self, p, rep):
        """Drop the indexed component `rep` of pair p; its edge ids."""
        owner = self.owner[p]
        comp = self.comps[p].pop(rep)
        for e in comp:
            owner[e] = -1
        self.gaining[p].discard(rep)
        return comp

    def first_gaining(self):
        """(a, b, rep) of the first gaining component in walk order, or None."""
        for p in self.pairs:
            gaining, heap = self.gaining[p], self.heaps[p]
            while heap and heap[0] not in gaining:
                heapq.heappop(heap)
            if heap:
                return (*p, heap[0])
        return None

    def swap(self, a, b, rep):
        """Interchange a and b on the (a, b)-component of edge `rep` and
        update.  A component the index does not hold (a BFS or exact move
        may name one) is traced here."""
        g, state = self.g, self.state
        r = self.owner[a, b][rep]
        if r >= 0:
            comp = self._pop((a, b), r)
        else:
            comp = backend.component_edges(g, state, a, b, rep)
        verts = {v for e in comp for v in g.edges[e]}
        touched = {e for v in verts for _, e in g.adj[v]}
        affected = [p for p in self.pairs if p != (a, b) and (a in p or b in p)]
        seeds = {}
        for p in affected:
            owner = self.owner[p]
            seeds[p] = popped = list(comp)
            for e in touched:
                r = owner[e]
                if r >= 0:
                    popped.extend(self._pop(p, r))
        self.rec.swap(comp, a, b)
        goal = self.goal
        if any(goal[e] == a + b - state[e] for e in comp):
            self._add(a, b, comp)
        for p, popped in seeds.items():
            self._trace(*p, popped)


def _bfs_to_better(g, start, goal, colors, cap):
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
        for a, b, rep, nxt in backend.kempe_neighbor_moves(g, cur, None, colors):
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


def _equalize_search(rec: Recorder, goal: bytes, colors, note: str):
    """Carry the recorder's coloring to `goal` with interchanges over
    `colors`, recording each move with `note`; returns the moves (a, b, rep).

    The index swaps `rec.colors` in place, through the recorder.  Each
    step takes the index's first gaining component.  When none gains,
    `_bfs_to_better` looks for the nearest better state among at most
    `_IMPROVE_BUDGET` states; when it finds none, the exact search
    `oracle._meet_in_middle` runs to the goal, storing at most
    `DEFAULT_SEARCH_BUDGET` states of m bytes each.  Every move's rep is
    its component's least edge id, so all of them are applied through the
    index.
    """
    state = rec.colors
    if bytes(state) == goal:
        return []
    g = rec.g
    out = []
    index = _ComponentIndex(rec, goal, colors)
    for _ in range(len(goal) * 4 + 8):
        step = index.first_gaining()
        if step is not None:
            index.swap(*step)
            rec.tr.append(KempeMove(*step), note)
            out.append(step)
            continue
        # no component gains at the goal, so only here can it be reached
        cur = bytes(state)
        if cur == goal:
            return out
        moves = _bfs_to_better(g, cur, goal, colors, _IMPROVE_BUDGET)
        exact = moves is None
        if exact:
            try:
                moves = _meet_in_middle(g, cur, goal, colors, DEFAULT_SEARCH_BUDGET)
            except BudgetExceeded:
                raise SearchBudgetExceeded(
                    f"equalizer exceeded {DEFAULT_SEARCH_BUDGET} states (graph m={g.m})"
                ) from None
            if moves is None:
                raise InternalInvariantError("goal outside the start's Kempe class")
        for step in moves:
            index.swap(*step)
            rec.tr.append(KempeMove(*step), note)
        out.extend(moves)
        if exact:
            if bytes(state) != goal:
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
    rec = Recorder(g, f)
    _equalize_search(rec, bytes(h.colors), range(1, t + 1), "search")
    return rec.tr


def transform_delta4(g: Graph, f: EdgeColoring, h: EdgeColoring) -> Transcript:
    """Transcript from a proper t-coloring (t >= 5) to a given proper
    4-coloring of a graph with maximum degree 4.

    Above palette 5 the coloring is first reduced; irregular graphs are
    lifted through the doubling tower, solved 4-regularly on top, and the
    transcript projected straight back onto the input graph.  The 4-coloring h certifies
    chi' = 4, so no chromatic index is computed.

    f is checked once: here, or first thing in the reduction.  The final
    replay of the transcript onto h starts from that checked f."""
    if g.max_degree() != 4:
        raise WrongMaxDegree(f"expected maximum degree 4, got {g.max_degree()}")
    if h.t != 4 or not is_proper(g, h):
        raise TargetNotProper4("target must be a proper 4-edge coloring")
    if f.t <= 5:
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
    if _replay(g, list(f.colors), f.t, tr, check=False) != list(h.colors):
        raise InternalInvariantError("delta-4 transform terminated off target")
    return tr
