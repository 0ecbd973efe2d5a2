"""Palette reduction t -> Delta+1 by interchanges (classical fan recoloring).

The core is :func:`eliminate_via_fan`: clear one edge whose color lies outside
the working palette by growing a fan at a pivot, then downshifting, with at
most one bicolored-path interchange to restore saturation.  When an allowed
color is missing at both ends of the edge, that fan is the edge alone and
its downshift one recolor, so the edge is recolored with the least such
color and no fan is built.  The same engine
is reused by the acyclic max-degree reduction, which additionally needs the
"stuck" fan (its last leaf misses only the color being eliminated).
"""
from __future__ import annotations

from .errors import InternalInvariantError, PaletteTooSmall
from .graph_core import EdgeColoring, Graph
from .kempe_engine import Fan, Recorder, extend_fan, least_color, palette_bits


def eliminate_via_fan(rec: Recorder, pivot: int, e1: int, allowed: int, note: str) -> Fan | None:
    """Recolor e1 (whose color is outside `allowed`, a bitmask color set)
    using colors in `allowed`.

    Returns None once the offending color is cleared from e1, or the grown
    fan (no move applied) when its last leaf misses no allowed color; the
    caller then walks toward a better pivot.
    """
    g, mask = rec.g, rec.mask
    if allowed >> rec.colors[e1] & 1:
        raise InternalInvariantError("edge to eliminate already inside palette")
    u, v = g.edges[e1]
    free = allowed & ~(mask[u] | mask[v])
    if free:
        # the one-edge fan: recolor e1 with the least color free at both ends
        rec.recolor_edge(e1, least_color(free), note)
        return None
    # grow until an allowed color is missing at the pivot and the last leaf
    pivot_missing = allowed & ~mask[pivot]
    fan, sat_color = extend_fan(g, rec.colors, mask, pivot, e1, allowed, pivot_missing)
    if sat_color is not None:
        # saturated prefix: straight downshift
        rec.downshift(fan.edges, sat_color, note)
        return None
    edges = list(fan.edges)
    leaves = list(fan.leaves(g))
    k = len(edges)
    u_k = leaves[-1]
    missing_allowed = allowed & ~mask[u_k]
    if not missing_allowed:
        return fan
    # unsaturated maximal fan: every allowed color missing at the last leaf
    # appears at the pivot, necessarily on a fan edge
    c_next = least_color(missing_allowed)
    pivot_edge = rec.edge_with_color(pivot, c_next)
    if pivot_edge < 0:
        raise InternalInvariantError("unsaturated fan with a free pivot color")
    try:
        idx = edges.index(pivot_edge)
    except ValueError:
        raise InternalInvariantError(
            "maximal fan left an extendable edge unused"
        ) from None
    if not (1 <= idx <= k - 2):
        raise InternalInvariantError(f"fan repeat at invalid position {idx}")
    if not pivot_missing:
        raise InternalInvariantError("pivot sees every allowed color")
    # extend_fan found no pivot-missing color free at u_k, so c0 is there;
    # walk the (c0, c_next) path from u_k and split on where it lands
    c0 = least_color(pivot_missing)
    rep, path = rec.path_from(u_k, c0, c_next)
    vset = set(path)
    u_j1 = leaves[idx]      # u_{j+1}: far end of the repeated fan edge
    u_j = leaves[idx - 1]   # u_j: the leaf missing the repeated color
    rec.apply(c0, c_next, rep, note)
    if u_j1 in vset:
        if path[-1] != pivot:
            raise InternalInvariantError("pivot expected as path endpoint")
        rec.downshift(edges[:idx], c_next, note)
    elif u_j in vset:
        rec.downshift(edges[:idx], c0, note)
    else:
        rec.downshift(edges, c0, note)
    return None


def reduce_to_delta_plus_one(g: Graph, f: EdgeColoring):
    """Drive every color above Delta+1 out of the coloring.

    Returns (coloring with palette Delta+1, transcript).  The transcript
    replayed from f ends with the same assignment; shrinking the palette
    header is a no-move bookkeeping step.
    """
    rec = Recorder(g, f)
    delta = g.max_degree()
    if f.t <= delta + 1:
        raise PaletteTooSmall(f"palette {f.t} <= Delta+1 = {delta + 1}")
    allowed = palette_bits(delta + 1)
    # an elimination moves only allowed colors besides e1's c_top, and the
    # c_top class loses exactly e1 (checked below), so the buckets, filled
    # once, stay each top color's offenders in ascending id order
    offenders = {c: [] for c in range(delta + 2, f.t + 1)}
    for eid, c in enumerate(rec.colors):
        if c > delta + 1:
            offenders[c].append(eid)
    moves = rec.tr.moves
    for c_top in range(f.t, delta + 1, -1):
        note = f"vizing-fan:{c_top}"
        for eid in offenders[c_top]:
            pivot = g.edges[eid][0]  # canonical u < v: lower endpoint
            first = len(moves)
            if eliminate_via_fan(rec, pivot, eid, allowed, note) is not None:
                raise InternalInvariantError("fan elimination stuck below Delta+1")
            _check_left_top_color(rec, eid, c_top, first)
    if max(rec.colors, default=0) > delta + 1:
        raise InternalInvariantError("a color above Delta+1 survived the reduction")
    rec.check_proper("after palette reduction")
    return EdgeColoring(delta + 1, rec.colors), rec.tr


def _check_left_top_color(rec: Recorder, e1: int, c_top: int, first: int) -> None:
    """Raise unless the moves from index `first` on removed exactly e1 from
    color c_top.

    The one move touching c_top must be on e1, and afterwards e1 and every
    edge at its endpoints must avoid c_top.  Had that move's component been
    more than e1, an edge adjacent to e1 would have taken c_top, and the
    moves that avoid c_top leave the class as it was.
    """
    moves = rec.tr.moves
    top_moves, on_e1 = 0, False
    for k in range(first, len(moves)):
        a, b, rep = moves[k]
        if a == c_top or b == c_top:
            top_moves += 1
            if top_moves == 2:
                break
            on_e1 = rep == e1
    if top_moves != 1 or not on_e1:
        raise InternalInvariantError(
            f"elimination of edge {e1} moved color {c_top} on other edges"
        )
    for v in rec.g.edges[e1]:
        if rec.mask[v] >> c_top & 1:
            raise InternalInvariantError(
                f"color {c_top} still at vertex {v} after eliminating edge {e1}"
            )
