"""Reduction (Delta+1) -> Delta when the max-degree subgraph is acyclic.

Strategy per round (each round clears at least one top-colored edge):

* Case A: a top-colored edge inside the max-degree subgraph with an endpoint
  that is a leaf there; the fan elimination at that leaf always succeeds.
* Case B.1: a top-colored edge inside the max-degree subgraph, both ends of
  degree >= 2 there; walk along the forest, dragging the top-colored edge
  with a chain of bicolored-path interchanges, until a leaf is reached
  (walk vertices stay pairwise distinct because the subgraph is acyclic).
* Cases B.2 / B.3: a top-colored edge touching at most one max-degree vertex;
  one fan attempt either eliminates directly or drags the edge onto a
  max-degree vertex, reducing to B.1 / B.2.

A round takes the least top-colored edge of the first case that has one.
An edge's case depends only on which vertices have maximum degree and on
their degrees in the max-degree subgraph, both fixed, so the working state
(:class:`_TopWork`) keeps the top class in one lazy min-heap of edge ids per
case, with its size, current through :meth:`Recorder.swap`: a change costs
O(log m) per edge that gains the top color, and no round rescans the edges.
"""
from __future__ import annotations

import heapq

from .errors import (
    InternalInvariantError,
    MaxDegreeSubgraphCyclic,
    PaletteMismatch,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    induced_high_degree_subgraph,
    is_acyclic,
)
from .kempe_engine import Recorder, palette_bits
from .vizing_reduce import eliminate_via_fan


def _gd_degree(g: Graph, delta: int):
    """Degree within the max-degree subgraph, for max-degree vertices."""
    is_max = [False] * (g.n + 1)
    for v in range(1, g.n + 1):
        if g.degree(v) == delta:
            is_max[v] = True
    dgd = [0] * (g.n + 1)
    for v in range(1, g.n + 1):
        if is_max[v]:
            dgd[v] = sum(1 for w, _ in g.adj[v] if is_max[w])
    return is_max, dgd


class _TopWork(Recorder):
    """The reduction's recorder, keeping its top class (color `big`) current.

    `case[e]` is edge e's case as a round takes them: 0 (A), 1 (B.1), 2
    (B.2) or 3 (B.3).  `n_top` counts the edges colored big, and
    `heaps[k]` holds every top-colored edge of case k, plus stale entries
    dropped when they surface.  :meth:`swap` keeps both, on every
    interchange that involves the top color.
    """

    __slots__ = ("big", "case", "n_top", "heaps")

    def __init__(self, g: Graph, f: EdgeColoring, big: int, is_max, dgd):
        super().__init__(g, f)
        self.big = big
        self.case = bytearray(
            (0 if min(dgd[u], dgd[v]) == 1 else 1) if is_max[u] and is_max[v]
            else 2 if is_max[u] or is_max[v] else 3
            for u, v in g.edges
        )
        self.heaps = ([], [], [], [])
        for e, c in enumerate(self.colors):
            if c == big:
                self.heaps[self.case[e]].append(e)  # ascending, so a heap
        self.n_top = sum(map(len, self.heaps))

    def swap(self, edge_ids, a: int, b: int) -> None:
        """:meth:`Recorder.swap`, keeping the top class: with the top color
        in the pair, every edge of the component gained or lost it."""
        super().swap(edge_ids, a, b)
        big = self.big
        if a == big or b == big:
            colors, case, heaps = self.colors, self.case, self.heaps
            for e in edge_ids:
                if colors[e] == big:
                    self.n_top += 1
                    heapq.heappush(heaps[case[e]], e)
                else:
                    self.n_top -= 1

    def least_top(self):
        """(case, edge): the least top-colored edge of the first case that
        has one."""
        colors, big = self.colors, self.big
        for k, heap in enumerate(self.heaps):
            while heap and colors[heap[0]] != big:
                heapq.heappop(heap)
            if heap:
                return k, heap[0]
        raise InternalInvariantError("no top-colored edge left")


def _step_series(rec: _TopWork, pivot: int, fan, big: int) -> int:
    """The Step-i interchange chain: drag the top color from the first fan
    edge onto the last one.  Returns the far end of the last fan edge."""
    edges = fan.edges
    k = len(edges)
    if k < 2:
        raise InternalInvariantError("walk handoff with a single-edge fan")
    colors = rec.colors
    cs = [colors[e] for e in edges]
    for idx in range(k - 1):
        rep = edges[idx]
        if colors[rep] != big:
            raise InternalInvariantError("top color lost during walk chain")
        before = rec.n_top
        rec.apply(big, cs[idx + 1], rep, "acyclic-walk")
        if colors[edges[idx + 1]] != big:
            raise InternalInvariantError("walk chain failed to advance top color")
        if rec.n_top > before:
            raise InternalInvariantError("walk chain increased the top class")
    return rec.g.other_end(edges[-1], pivot)


def _eliminate_or_walk_target(rec: _TopWork, pivot: int, e1: int, delta: int, note: str):
    """One fan attempt.  Returns None if eliminated, else the new walk vertex."""
    big = delta + 1
    fan = eliminate_via_fan(rec, pivot, e1, palette_bits(delta), note)
    if fan is None:
        return None
    u_k = fan.leaves(rec.g)[-1]
    if rec.g.degree(u_k) != delta:
        raise InternalInvariantError("stuck fan leaf is not max-degree")
    return _step_series(rec, pivot, fan, big)


def _case_a(rec: Recorder, leaf: int, eid: int, delta: int) -> None:
    """Case A: clear the top color from eid by the fan elimination at `leaf`,
    an endpoint of eid that is a leaf of the max-degree subgraph."""
    if eliminate_via_fan(rec, leaf, eid, palette_bits(delta), "acyclic-A") is not None:
        raise InternalInvariantError("case A elimination stuck")


def _walk_step(rec: _TopWork, a_prev: int, a_cur: int, delta: int, dgd):
    """One step of the Case B.1 walk, with the top color on a_prev a_cur.

    At a leaf of the max-degree subgraph Case A clears it ("terminal");
    elsewhere one fan attempt clears it ("eliminated") or drags it onto an
    edge a_cur nxt ("extended").  Returns (kind, nxt or None).
    """
    e1 = rec.g.edge_id(a_cur, a_prev)
    if rec.colors[e1] != delta + 1:
        raise InternalInvariantError("walk lost the top-colored edge")
    if dgd[a_cur] == 1:
        _case_a(rec, a_cur, e1, delta)
        return "terminal", None
    nxt = _eliminate_or_walk_target(rec, a_cur, e1, delta, "acyclic-walk-escape")
    return ("eliminated", None) if nxt is None else ("extended", nxt)


def _walk(rec: _TopWork, eid: int, delta: int, dgd) -> None:
    """Case B.1: walk until a leaf of the max-degree subgraph, then eliminate."""
    g = rec.g
    a_prev, a_cur = g.edges[eid]  # stored with u < v
    visited = {a_prev, a_cur}
    for _ in range(g.n + 1):
        _, nxt = _walk_step(rec, a_prev, a_cur, delta, dgd)
        if nxt is None:
            return
        if nxt in visited:
            raise InternalInvariantError(
                "walk revisited a vertex; max-degree subgraph not acyclic?"
            )
        visited.add(nxt)
        a_prev, a_cur = a_cur, nxt
    raise InternalInvariantError("walk exceeded the vertex count")


def _round(rec: _TopWork, delta: int, is_max, dgd, target: int) -> None:
    """Clear top-colored edges until at most `target` are left (the caller
    passes one less than it has)."""
    g = rec.g
    for _ in range(g.n + 4):
        case, eid = rec.least_top()
        u, v = g.edges[eid]
        if case == 0:
            _case_a(rec, u if dgd[u] == 1 else v, eid, delta)
            return
        if case == 1:
            _walk(rec, eid, delta, dgd)
            return
        if case == 2:
            pivot = u if is_max[u] else v
            note = "acyclic-B2"
        else:
            pivot = u
            note = "acyclic-B3"
        if _eliminate_or_walk_target(rec, pivot, eid, delta, note) is None:
            return
        # top edge dragged onto a max-degree vertex; redispatch
        if rec.n_top <= target:
            return
    raise InternalInvariantError("case chain failed to reduce the top class")


def _checked_inputs(g: Graph, f: EdgeColoring):
    """Check what the reduction relies on (a proper (Delta+1)-coloring, an
    acyclic max-degree subgraph); return (the working state on f, Delta,
    is_max, dgd).  f is checked first, by the mask pass of the working
    state, which needs is_max and dgd (read off g alone) to be built."""
    delta = g.max_degree()
    is_max, dgd = _gd_degree(g, delta)
    rec = _TopWork(g, f, delta + 1, is_max, dgd)
    if f.t != delta + 1:
        raise PaletteMismatch(f"expected palette {delta + 1}, got {f.t}")
    gd, _ = induced_high_degree_subgraph(g, delta)
    if not is_acyclic(gd):
        raise MaxDegreeSubgraphCyclic("max-degree subgraph contains a cycle")
    return rec, delta, is_max, dgd


def acyclic_reduce(g: Graph, f: EdgeColoring, stats: list | None = None):
    """Transform a proper (Delta+1)-coloring into a Delta-coloring.

    Requires the subgraph induced by max-degree vertices to be acyclic.
    Returns (coloring with palette Delta, transcript); `stats` (when given)
    collects (before, after) top-class sizes per round.
    """
    rec, delta, is_max, dgd = _checked_inputs(g, f)
    budget = 10 * g.m * max(1, g.n)
    before = rec.n_top
    while before > 0:
        _round(rec, delta, is_max, dgd, before - 1)
        after = rec.n_top
        if after >= before:
            raise InternalInvariantError("round did not shrink the top class")
        if stats is not None:
            stats.append((before, after))
        if len(rec.tr) > budget:
            raise InternalInvariantError("move budget exceeded (10*m*n)")
        before = after
    rec.check_proper("after acyclic reduction")
    return EdgeColoring(delta, rec.colors), rec.tr
