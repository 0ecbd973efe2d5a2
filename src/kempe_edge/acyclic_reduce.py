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
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalInvariantError,
    MaxDegreeSubgraphCyclic,
    PaletteMismatch,
    PreconditionViolated,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    check_edge_id,
    induced_high_degree_subgraph,
    is_acyclic,
    require_proper,
)
from .kempe_engine import Recorder, Transcript
from .vizing_reduce import eliminate_via_fan


@dataclass(frozen=True)
class WalkState:
    """Vertex walk of Case B.1: a_0..a_i in the max-degree subgraph, with the
    top color currently on the edge a_{i-1} a_i."""

    vertices: tuple
    baseline: int  # |M(f, Delta+1)| at walk start; never exceeded


@dataclass(frozen=True)
class WalkStepResult:
    kind: str  # "eliminated" | "terminal" | "extended"
    coloring: EdgeColoring
    transcript: Transcript
    state: WalkState | None


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


def _big_count(rec: Recorder, big: int) -> int:
    return sum(1 for c in rec.colors if c == big)


def _step_series(rec: Recorder, pivot: int, fan, big: int) -> int:
    """The Step-i interchange chain: drag the top color from the first fan
    edge onto the last one.  Returns the far end of the last fan edge."""
    g = rec.g
    edges = list(fan.edges)
    leaves = list(fan.leaves(g))
    k = len(edges)
    if k < 2:
        raise InternalInvariantError("walk handoff with a single-edge fan")
    cs = [rec.colors[e] for e in edges]
    count = _big_count(rec, big)
    for idx in range(k - 1):
        rep = edges[idx]
        if rec.colors[rep] != big:
            raise InternalInvariantError("top color lost during walk chain")
        rec.apply(big, cs[idx + 1], rep, "acyclic-walk")
        if rec.colors[edges[idx + 1]] != big:
            raise InternalInvariantError("walk chain failed to advance top color")
        now = _big_count(rec, big)
        if now > count:
            raise InternalInvariantError("walk chain increased the top class")
        count = now
    return leaves[-1]


def _eliminate_or_walk_target(rec: Recorder, pivot: int, e1: int, delta: int, note: str):
    """One fan attempt.  Returns None if eliminated, else the new walk vertex."""
    big = delta + 1
    out = eliminate_via_fan(rec, pivot, e1, range(1, delta + 1), note)
    if out.eliminated:
        return None
    u_k = out.fan.leaves(rec.g)[-1]
    if rec.g.degree(u_k) != delta:
        raise InternalInvariantError("stuck fan leaf is not max-degree")
    return _step_series(rec, pivot, out.fan, big)


def _walk(rec: Recorder, eid: int, delta: int, dgd) -> None:
    """Case B.1: walk until a leaf of the max-degree subgraph, then eliminate."""
    g = rec.g
    big = delta + 1
    u, v = g.edges[eid]
    a_prev, a_cur = (u, v) if u < v else (v, u)
    visited = {a_prev, a_cur}
    for _ in range(g.n + 1):
        e1 = g.edge_id(a_cur, a_prev)
        if rec.colors[e1] != big:
            raise InternalInvariantError("walk lost the top-colored edge")
        if dgd[a_cur] == 1:
            out = eliminate_via_fan(rec, a_cur, e1, range(1, delta + 1), "acyclic-A")
            if not out.eliminated:
                raise InternalInvariantError("case A elimination stuck")
            return
        nxt = _eliminate_or_walk_target(rec, a_cur, e1, delta, "acyclic-walk-escape")
        if nxt is None:
            return
        if nxt in visited:
            raise InternalInvariantError(
                "walk revisited a vertex; max-degree subgraph not acyclic?"
            )
        visited.add(nxt)
        a_prev, a_cur = a_cur, nxt
    raise InternalInvariantError("walk exceeded the vertex count")


def _round(rec: Recorder, delta: int, is_max, dgd) -> None:
    """Clear at least one top-colored edge."""
    g = rec.g
    big = delta + 1
    target = _big_count(rec, big) - 1
    for _ in range(g.n + 4):
        if _big_count(rec, big) <= target:
            return
        big_edges = [eid for eid in range(g.m) if rec.colors[eid] == big]
        a_edges = []
        b1_edges = []
        b2_edges = []
        for eid in big_edges:
            u, v = g.edges[eid]
            if is_max[u] and is_max[v]:
                if min(dgd[u], dgd[v]) == 1:
                    a_edges.append(eid)
                else:
                    b1_edges.append(eid)
            elif is_max[u] or is_max[v]:
                b2_edges.append(eid)
        if a_edges:
            eid = a_edges[0]
            u, v = g.edges[eid]
            cand = [x for x in (u, v) if dgd[x] == 1]
            out = eliminate_via_fan(
                rec, min(cand), eid, range(1, delta + 1), "acyclic-A"
            )
            if not out.eliminated:
                raise InternalInvariantError("case A elimination stuck")
            return
        if b1_edges:
            _walk(rec, b1_edges[0], delta, dgd)
            return
        if b2_edges:
            eid = b2_edges[0]
            u, v = g.edges[eid]
            pivot = u if is_max[u] else v
            note = "acyclic-B2"
        else:
            eid = big_edges[0]
            pivot = min(g.edges[eid])
            note = "acyclic-B3"
        if _eliminate_or_walk_target(rec, pivot, eid, delta, note) is None:
            return
        # top edge dragged onto a max-degree vertex; redispatch
    raise InternalInvariantError("case chain failed to reduce the top class")


def acyclic_reduce(g: Graph, f: EdgeColoring, stats: list | None = None):
    """Transform a proper (Delta+1)-coloring into a Delta-coloring.

    Requires the subgraph induced by max-degree vertices to be acyclic.
    Returns (coloring with palette Delta, transcript); `stats` (when given)
    collects (before, after) top-class sizes per round.
    """
    require_proper(g, f)
    delta = g.max_degree()
    if f.t != delta + 1:
        raise PaletteMismatch(f"expected palette {delta + 1}, got {f.t}")
    gd, _ = induced_high_degree_subgraph(g, delta)
    if not is_acyclic(gd):
        raise MaxDegreeSubgraphCyclic("max-degree subgraph contains a cycle")
    is_max, dgd = _gd_degree(g, delta)
    rec = Recorder(g, f)
    big = delta + 1
    budget = 10 * g.m * max(1, g.n)
    while _big_count(rec, big) > 0:
        before = _big_count(rec, big)
        _round(rec, delta, is_max, dgd)
        after = _big_count(rec, big)
        if after >= before:
            raise InternalInvariantError("round did not shrink the top class")
        if stats is not None:
            stats.append((before, after))
        if len(rec.tr) > budget:
            raise InternalInvariantError("move budget exceeded (10*m*n)")
    rec.check_proper("after acyclic reduction")
    return EdgeColoring(delta, rec.colors), rec.tr


def case_a_step(g: Graph, f: EdgeColoring, eid: int):
    """One Case A elimination.  The edge must carry the top color, lie inside
    the max-degree subgraph, and have an endpoint that is a leaf there."""
    check_edge_id(g, eid)
    require_proper(g, f)
    delta = g.max_degree()
    big = delta + 1
    if f.t != big:
        raise PaletteMismatch(f"expected palette {big}, got {f.t}")
    if f.colors[eid] != big:
        raise PreconditionViolated(f"edge {eid} is not colored {big}")
    is_max, dgd = _gd_degree(g, delta)
    u, v = g.edges[eid]
    if not (is_max[u] and is_max[v]):
        raise PreconditionViolated("edge not inside the max-degree subgraph")
    cand = [x for x in (u, v) if dgd[x] == 1]
    if not cand:
        raise PreconditionViolated("no endpoint is a leaf of the max-degree subgraph")
    rec = Recorder(g, f)
    before = _big_count(rec, big)
    out = eliminate_via_fan(rec, min(cand), eid, range(1, delta + 1), "acyclic-A")
    if not out.eliminated or _big_count(rec, big) >= before:
        raise InternalInvariantError("case A failed to reduce the top class")
    return rec.coloring(), rec.tr


def walk_init(g: Graph, f: EdgeColoring, eid: int) -> WalkState:
    check_edge_id(g, eid)
    delta = g.max_degree()
    if f.colors[eid] != delta + 1:
        raise PreconditionViolated(f"edge {eid} is not colored {delta + 1}")
    u, v = g.edges[eid]
    is_max, dgd = _gd_degree(g, delta)
    if not (is_max[u] and is_max[v]):
        raise PreconditionViolated("walk must start inside the max-degree subgraph")
    big = delta + 1
    baseline = sum(1 for c in f.colors if c == big)
    return WalkState(vertices=(min(u, v), max(u, v)), baseline=baseline)


def walk_step(g: Graph, f: EdgeColoring, state: WalkState) -> WalkStepResult:
    """One step of the Case B.1 walk algorithm."""
    require_proper(g, f)
    delta = g.max_degree()
    big = delta + 1
    is_max, dgd = _gd_degree(g, delta)
    a_prev, a_cur = state.vertices[-2], state.vertices[-1]
    e1 = g.edge_id(a_cur, a_prev)
    if e1 is None or f.colors[e1] != big:
        raise PreconditionViolated("walk edge is not carrying the top color")
    rec = Recorder(g, f)
    if dgd[a_cur] == 1:
        out = eliminate_via_fan(rec, a_cur, e1, range(1, delta + 1), "acyclic-A")
        if not out.eliminated:
            raise InternalInvariantError("terminal leaf elimination stuck")
        return WalkStepResult("terminal", rec.coloring(), rec.tr, None)
    nxt = _eliminate_or_walk_target(rec, a_cur, e1, delta, "acyclic-walk-escape")
    if nxt is None:
        return WalkStepResult("eliminated", rec.coloring(), rec.tr, None)
    if nxt in state.vertices:
        raise InternalInvariantError("walk revisited a vertex")
    if _big_count(rec, big) > state.baseline:
        raise InternalInvariantError("walk exceeded the starting top-class size")
    return WalkStepResult(
        "extended",
        rec.coloring(),
        rec.tr,
        WalkState(state.vertices + (nxt,), state.baseline),
    )
