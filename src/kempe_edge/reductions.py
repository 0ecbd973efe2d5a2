"""Recursive peeling and the unified equalization dispatch.

To connect two proper (chi'+1)-edge colorings, both are driven onto one fixed
chi'-coloring whose top class is a maximal matching: reduce the palette by
one (the acyclic reduction for Class 1 inputs, the classical one otherwise),
re-open the top class as the target's matching, delete it, and recurse on the
smaller-degree remainder.  The recursion bottoms out in the degree-3 search
equalizer and the maximum-degree-4 machine.
"""
from __future__ import annotations

from .acyclic_reduce import acyclic_reduce
from .degree4_lift import (
    DEFAULT_SEARCH_BUDGET,
    _equalize_search,
    transform_delta4,
)
from .errors import (
    InternalInvariantError,
    PaletteMismatch,
    UnsupportedFamily,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    color_class,
    delete_edges,
    induced_high_degree_subgraph,
    is_acyclic,
    is_proper,
    require_proper,
)
from .kempe_engine import KempeMove, Recorder, Transcript
from .vizing_reduce import reduce_to_delta_plus_one


def maximalize_top_class(g: Graph, h: EdgeColoring, top: int):
    """Grow M(h, top) into a maximal matching by single-edge recolorings
    (the component of each recoloring is exactly the edge, since the top
    color is missing at both ends)."""
    require_proper(g, h)
    rec = Recorder(g, h)
    while True:
        top_at = [False] * (g.n + 1)
        for eid in range(g.m):
            if rec.colors[eid] == top:
                u, v = g.edges[eid]
                top_at[u] = top_at[v] = True
        cand = [
            eid
            for eid, (u, v) in enumerate(g.edges)
            if rec.colors[eid] != top and not top_at[u] and not top_at[v]
        ]
        if not cand:
            break
        rec.recolor_edge(cand[0], top, "maximalize")
    return rec.coloring(), rec.tr


def _matching_is_maximal(g: Graph, colors, top: int) -> bool:
    covered = [False] * (g.n + 1)
    for eid, c in enumerate(colors):
        if c == top:
            u, v = g.edges[eid]
            covered[u] = covered[v] = True
    return all(
        covered[u] or covered[v] for u, v in g.edges
    )


def _certify_chi(g: Graph, witness: EdgeColoring | None):
    from .oracle import chromatic_index

    delta = g.max_degree()
    if witness is not None:
        require_proper(g, witness, "witness coloring")
        if witness.t == delta:
            return delta, witness
    return chromatic_index(g)


def peel_and_recurse(
    g: Graph,
    f: EdgeColoring,
    h: EdgeColoring,
    chi: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Transcript:
    """Drive a proper (chi+1)-coloring f onto the chi-coloring h (read at the
    same palette) whose top class M(h, chi) is a maximal matching."""
    if f.t != chi + 1 or h.t > chi + 1:
        raise PaletteMismatch("peel expects palette chi+1 input")
    if any(c > chi for c in h.colors):
        raise PaletteMismatch("peel target must stay within chi colors")
    if not _matching_is_maximal(g, h.colors, chi):
        raise InternalInvariantError("peel target's top class is not maximal")
    delta = g.max_degree()
    tr = Transcript()
    # 1. palette reduction chi+1 -> chi
    if chi == delta:
        reduced, tr1 = acyclic_reduce(g, f)
    else:
        if chi != delta + 1:
            raise InternalInvariantError("chromatic index outside Vizing bounds")
        reduced, tr1 = reduce_to_delta_plus_one(g, f)
    tr.extend(tr1)
    # 2. re-open the target's top class with the spare color
    rec = Recorder(g, EdgeColoring(chi + 1, reduced.colors))
    top_edges = sorted(color_class(h, chi))
    for eid in top_edges:
        rec.recolor_edge(eid, chi + 1, "peel-open")
    # 3. delete the matching, recurse on the remainder
    sub, kept = delete_edges(g, top_edges)
    f_sub = EdgeColoring(chi, [rec.colors[eid] for eid in kept])
    h_sub = EdgeColoring(chi, [h.colors[eid] for eid in kept])
    sub_tr = equalize(sub, f_sub, h_sub, chi=chi - 1, budget=budget)
    for mv, note in zip(sub_tr.moves, sub_tr.annotations):
        rec.apply(mv.a, mv.b, kept[mv.rep_edge], note or "peel-sub")
    # 4. hand the matching its target color back
    for eid in top_edges:
        rec.recolor_edge(eid, chi, "peel-close")
    if rec.colors != list(h.colors):
        raise InternalInvariantError("peel terminated off target")
    tr.extend(rec.tr)
    return tr


def equalize(
    g: Graph,
    f: EdgeColoring,
    h: EdgeColoring,
    witness: EdgeColoring | None = None,
    chi: int | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Transcript:
    """Transcript from f to h, both proper (chi'(g)+1)-edge colorings.

    Dispatch: maximum degree <= 3 goes to the search equalizer (after a
    palette reduction when the graph is Class 2); maximum degree 4 Class 1
    routes both sides through a common 4-coloring; Class 2 with maximum
    degree 4 or 5 peels the top class and recurses, as does any graph whose
    degree->=5 vertices induce a forest.  Everything else is out of reach and
    raises UnsupportedFamily.
    """
    require_proper(g, f, "start coloring")
    require_proper(g, h, "target coloring")
    if f.t != h.t:
        raise PaletteMismatch(f"palettes differ: {f.t} vs {h.t}")
    if f.colors == h.colors:
        return Transcript()
    delta = g.max_degree()
    if chi is None:
        chi, witness_found = _certify_chi(g, witness)
        if witness is None and witness_found.t == chi:
            witness = witness_found
    if f.t != chi + 1:
        raise PaletteMismatch(
            f"equalize needs palette chi'+1 = {chi + 1}, got {f.t}"
        )
    if delta <= 3:
        if chi == delta:
            moves = _equalize_search(
                g, bytes(f.colors), bytes(h.colors),
                tuple(range(1, delta + 2)), f.t, budget,
            )
            tr = Transcript()
            for a, b, rep in moves:
                tr.append(KempeMove(a, b, rep), "search")
            return tr
        # Class 2: reduce both sides to Delta+1 colors, search there
        f1, tr_f = reduce_to_delta_plus_one(g, f)
        h1, tr_h = reduce_to_delta_plus_one(g, h)
        moves = _equalize_search(
            g, bytes(f1.colors), bytes(h1.colors),
            tuple(range(1, delta + 2)), f.t, budget,
        )
        tr = tr_f
        for a, b, rep in moves:
            tr.append(KempeMove(a, b, rep), "search")
        tr.extend(tr_h.reversed())
        return tr
    if delta == 4 and chi == 4:
        if witness is None or witness.t != 4:
            witness = _certify_chi(g, None)[1]
            if witness.t != 4:
                raise InternalInvariantError("oracle contradicts the class certificate")
        tr = transform_delta4(g, f, witness, None)
        tr_h = transform_delta4(g, h, witness, None)
        tr.extend(tr_h.reversed())
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
    if witness is None or witness.t != chi:
        witness = _certify_chi(g, None)[1]
        if witness.t != chi:
            raise InternalInvariantError("oracle witness palette mismatch")
    w_max, _ = maximalize_top_class(g, witness, chi)
    target = EdgeColoring(chi + 1, w_max.colors)
    tr = peel_and_recurse(g, f, target, chi, budget)
    tr_h = peel_and_recurse(g, h, target, chi, budget)
    tr.extend(tr_h.reversed())
    return tr
