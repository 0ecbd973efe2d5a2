"""Recursive peeling and the unified equalization dispatch.

To connect two proper (chi'+1)-edge colorings, both are peeled at once along
one chi'-coloring w whose top class M is a maximal matching: each side's
palette is reduced by one (the acyclic reduction for Class 1 inputs, the
classical one otherwise) and M is re-opened with the spare color; then M is
deleted and the smaller-degree remainder is equalized once, between the two
sides.  The recursion bottoms out in the degree-3 search equalizer and the
maximum-degree-4 machine.
"""
from __future__ import annotations

from .acyclic_reduce import acyclic_reduce
from .degree4_lift import low_degree_equalize, transform_delta4
from .errors import (
    ColorOutOfRange,
    InternalInvariantError,
    PaletteMismatch,
    PreconditionViolated,
    UnsupportedFamily,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    color_class,
    delete_edges,
    induced_high_degree_subgraph,
    is_acyclic,
    proper_masks,
    require_proper,
)
from .kempe_engine import Recorder, Transcript
from .vizing_reduce import reduce_to_delta_plus_one


def maximalize_top_class(g: Graph, h: EdgeColoring, top: int):
    """Grow M(h, top) into a maximal matching by single-edge recolorings
    (the component of each recoloring is exactly the edge, since the top
    color is missing at both ends).

    One ascending pass recolors each edge whose ends are both still
    uncovered, read off the working state's masks: coverage only grows, so
    this is the order in which always taking the least such edge would
    pick them."""
    if not 1 <= top <= h.t:
        raise ColorOutOfRange(f"color {top} not in 1..{h.t}")
    rec = Recorder(g, h)
    mask = rec.mask
    for eid, (u, v) in enumerate(g.edges):
        if not (mask[u] | mask[v]) >> top & 1:
            rec.recolor_edge(eid, top, "maximalize")
    return rec.coloring(), rec.tr


def _certify_chi(g: Graph, witness: EdgeColoring | None):
    """(chi'(g), a chi'(g)-coloring): the caller's witness when its palette
    is Delta, which certifies chi' = Delta, else the exact oracle's answer."""
    if witness is not None and witness.t == g.max_degree():
        return witness.t, witness
    from .oracle import chromatic_index

    return chromatic_index(g)


def peel_and_recurse(
    g: Graph, f: EdgeColoring, h: EdgeColoring, w: EdgeColoring, chi: int
) -> Transcript:
    """Transcript from f to h, two proper (chi+1)-colorings, peeled along
    the chi-coloring w whose top class M = M(w, chi) is a maximal matching.

    Each side is reduced to chi colors and re-opens M with the spare color;
    the remainder g - M is then equalized once, from f's side to h's, at
    palette chi, with w's restriction there, a (chi-1)-coloring, as the
    witness of chi - 1: no recursive call runs the chromatic-index oracle.

    A witness that is not a proper chi-coloring with a maximal top class,
    or a chi outside {Delta, Delta+1}, is the caller's error and raises
    MissingEdgeColor, NotProper, PaletteMismatch or PreconditionViolated."""
    if f.t != chi + 1 or h.t != chi + 1:
        raise PaletteMismatch("peel expects palette chi+1 input")
    mask = proper_masks(g, w.colors, w.t, "peel witness")
    if any(c > chi for c in w.colors):
        raise PaletteMismatch("peel witness must stay within chi colors")
    if not all((mask[u] | mask[v]) >> chi & 1 for u, v in g.edges):
        raise PreconditionViolated("peel witness's top class is not maximal")
    delta = g.max_degree()
    if chi not in (delta, delta + 1):
        raise PreconditionViolated(
            f"chi' = {chi} outside Vizing bounds {delta}..{delta + 1}"
        )
    reduce = acyclic_reduce if chi == delta else reduce_to_delta_plus_one
    top_edges = sorted(color_class(w, chi))
    recs = []
    for side in (f, h):
        # 1. palette reduction chi+1 -> chi
        reduced, tr = reduce(g, side)
        # 2. re-open the witness's top class with the spare color
        rec = Recorder(g, EdgeColoring(chi + 1, reduced.colors))
        rec.tr = tr
        for eid in top_edges:
            rec.recolor_edge(eid, chi + 1, "peel-open")
        recs.append(rec)
    rec, rec_h = recs
    # 3. delete the matching, equalize the remainder between the two sides
    sub, kept = delete_edges(g, top_edges)
    f_sub = EdgeColoring(chi, [rec.colors[eid] for eid in kept])
    h_sub = EdgeColoring(chi, [rec_h.colors[eid] for eid in kept])
    w_sub = EdgeColoring(chi - 1, [w.colors[eid] for eid in kept])
    sub_tr = equalize(sub, f_sub, h_sub, witness=w_sub, chi=chi - 1)
    for (a, b, rep), note in zip(sub_tr.moves, sub_tr.annotations):
        rec.apply(a, b, kept[rep], note or "peel-sub")
    if rec.colors != rec_h.colors:
        raise InternalInvariantError("peel sides did not meet")
    rec.tr.extend(rec_h.tr.reversed())
    return rec.tr


def equalize(
    g: Graph,
    f: EdgeColoring,
    h: EdgeColoring,
    witness: EdgeColoring | None = None,
    chi: int | None = None,
) -> Transcript:
    """Transcript from f to h, two proper colorings at one palette.

    Maximum degree <= 3 takes any palette >= Delta+1 and never asks for the
    chromatic index: above Delta+1 both sides are first reduced to Delta+1,
    where the search equalizer connects them (all 4-colorings of a subcubic
    graph are Kempe equivalent, McDonald-Mohar-Scheide 2012).

    Every other graph needs palette chi'+1.  chi' is certified at most once
    per top-level call: by `witness` when it is a Delta-coloring (then no
    oracle runs), otherwise by the exact `oracle.chromatic_index`, whose
    witness replaces the caller's, and a given `chi` it contradicts raises
    PreconditionViolated.  A given `chi` is trusted when `witness` has
    palette `chi`: the peel recursion passes each level its maximal
    witness's restriction that way.  Maximum degree 4 Class 1 routes both
    sides through the common 4-coloring `witness`; Class 2 with maximum
    degree 4 or 5 peels the top class off both sides and recurses once, as
    does any graph whose degree->=5 vertices induce a forest.  Everything
    else is out of reach and raises UnsupportedFamily.
    """
    require_proper(g, f, "start coloring")
    require_proper(g, h, "target coloring")
    if witness is not None:
        require_proper(g, witness, "witness coloring")
    if f.t != h.t:
        raise PaletteMismatch(f"palettes differ: {f.t} vs {h.t}")
    if f.colors == h.colors:
        return Transcript()
    delta = g.max_degree()
    if delta <= 3:
        if f.t <= delta:
            raise PaletteMismatch(
                f"equalize needs palette >= Delta+1 = {delta + 1}, got {f.t}"
            )
        if f.t == delta + 1:
            return low_degree_equalize(g, f, h)
        f1, tr = reduce_to_delta_plus_one(g, f)
        h1, tr_h = reduce_to_delta_plus_one(g, h)
        tr.extend(low_degree_equalize(g, f1, h1))
        tr.extend(tr_h.reversed())
        return tr
    if chi is None or witness is None or witness.t != chi:
        found, witness = _certify_chi(g, witness)
        if chi is not None and found != chi:
            raise PreconditionViolated(f"given chi' = {chi}, but chi' = {found}")
        chi = found
    if f.t != chi + 1:
        raise PaletteMismatch(
            f"equalize needs palette chi'+1 = {chi + 1}, got {f.t}"
        )
    if delta == 4 and chi == 4:
        tr = transform_delta4(g, f, witness)
        tr.extend(transform_delta4(g, h, witness).reversed())
        return tr
    high, _ = induced_high_degree_subgraph(g, 5)
    acyclic_high = is_acyclic(high)
    supported_peel = (
        (delta == 4 and chi == 5)
        or (delta == 5 and chi == 6)
        or (delta >= 5 and chi == delta and acyclic_high)
    )
    if not supported_peel:
        raise UnsupportedFamily(
            f"no reduction covers Delta={delta}, chi'={chi}, "
            f"acyclic high-degree subgraph={acyclic_high}"
        )
    w_max, _ = maximalize_top_class(g, witness, chi)
    return peel_and_recurse(g, f, h, w_max, chi)
