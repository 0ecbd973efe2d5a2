"""Kernels: bicolored-path tracing, properness, state enumeration.

Every module reaches them through :data:`kempe_edge.kernels.backend`.  The
kernels read the :class:`~kempe_edge.graph_core.Graph` itself: ``g.edges[e]``
is the endpoint pair (u, v), u < v, of edge id e, and ``g.adj[v]`` lists the
(neighbor, edge id) pairs at v by ascending edge id, so every scan and
tie-break below is in edge-id order.  State vectors are ``bytes`` of length
m, one color per edge id, except in the memo path of
:func:`kempe_neighbor_moves` (below), which holds them as ints.

Two kernels trace a bicolored component.  :func:`component_edges` returns
only the edge set: every move swaps it (``Recorder.component_edges``), replay
too, and ``Recorder.path_from`` reads a path's far end and vertex set from
it.  :func:`trace_component` is the ordered one: it returns the vertices
along the path or around the cycle with the edges between them, for the
two callers that need that order, the case machine's side split and
`graph_core.bicolored_subgraph`.

:func:`is_proper` is only ``Recorder.check_proper``'s self-check: it
compares each vertex's color set with its degree, so it shares no code
with `graph_core`'s one mask pass, which every other check runs.

:func:`canonical_colorings` is the one backtracker over proper colorings,
with its stack in lists, not Python frames; :func:`enumerate_proper` and the
oracle's chromatic-index search both walk it.

:func:`kempe_neighbor_moves` lists every interchange of a state whose two
colors lie in the set its caller passes.  The two oracle searches that
enumerate a whole Kempe class (``same_class`` and ``kempe_classes``) pass
it a memo, ``chains``, that they keep for one search over one graph.  In a
proper coloring the (a, b)-components depend only on the edge set
E_a | E_b, and many states of a class share one: the memo holds each
set's components once, each as an int with one byte per edge id (1 on its
edges).  On that path a state is an int of the same form (one
byte per edge id, little-endian), so a next state is one integer xor and
is never written out as bytes only to be hashed.  The Delta <= 4
equalizer's fallbacks (``degree4_lift._bfs_to_better`` and its exact
``_meet_in_middle`` call) pass no memo and keep ``bytes`` states: through
the int/memo path (Python 3.11.7, 2-core Xeon VM) ``low_degree_equalize``
on ``tests/test_reductions._cubic(400, 0)`` took 1.8-2.0 s, not 1.33 s,
and ``_meet_in_middle`` (100,000 states) on ``_cubic(n, 0)``, n = 40, 200,
400, took 0.66-1.03 s, not 0.39, 0.44 and 0.31 s.  Walking components with
:func:`component_edges` instead of the per-color tables made the same runs
13-60 % slower.  No benchmark workload runs this path.
"""
from __future__ import annotations

import functools


def is_proper(g, colors) -> bool:
    for inc in g.adj:
        if len({colors[e] for _, e in inc}) != len(inc):
            return False
    return True


def trace_component(g, colors, a, b, e0):
    """Component of the (a, b)-subgraph containing edge e0.

    Returns (edge_ids, vertices, is_cycle) with vertices ordered along the
    path (smaller-id endpoint first) or around the cycle (smallest vertex
    first, toward its smaller-id neighbor).  edge_ids[i] joins vertices[i]
    and vertices[i+1] (wrapping for cycles).  It terminates only on a
    proper coloring.
    """
    edges, adj = g.edges, g.adj
    u0 = edges[e0][0]

    def walk(start, first_edge):
        # Extend from `start` away through `first_edge`; stop at a missing
        # color or when the start vertex reappears (cycle).
        verts = [start]
        eids = []
        v = start
        eid = first_edge
        while True:
            eids.append(eid)
            x, y = edges[eid]
            v = y if x == v else x
            verts.append(v)
            if v == start:
                return verts, eids, True
            want = b if colors[eid] == a else a
            nxt = -1
            for _, e in adj[v]:
                if e != eid and colors[e] == want:
                    nxt = e
                    break
            if nxt < 0:
                return verts, eids, False
            eid = nxt

    verts, eids, cyc = walk(u0, e0)
    if cyc:
        vs, es = verts[:-1], eids
        pos = vs.index(min(vs))
        vs = vs[pos:] + vs[:pos]
        es = es[pos:] + es[:pos]
        if len(vs) > 2 and vs[-1] < vs[1]:
            # reverse direction: vertices[0] stays, edges realign
            vs = [vs[0]] + vs[:0:-1]
            es = es[::-1]
        return es, vs, True
    # Path: continue from u0 in the other direction.
    want = b if colors[e0] == a else a
    back_first = -1
    for _, e in adj[u0]:
        if e != e0 and colors[e] == want:
            back_first = e
            break
    if back_first >= 0:
        verts2, eids2, cyc2 = walk(u0, back_first)
        assert not cyc2
        vs = verts2[::-1] + verts[1:]
        es = eids2[::-1] + eids
    else:
        vs, es = verts, eids
    if vs[0] > vs[-1]:
        vs = vs[::-1]
        es = es[::-1]
    return es, vs, False


def component_edges(g, colors, a, b, e0):
    """Edge ids of the component of the (a, b)-subgraph containing edge e0,
    in no promised order.

    The callers that only swap or count a component use this walk: each
    direction from e0 is walked once, and no vertex list is built or
    reordered.  On a cycle the first direction comes back to e0.  It
    terminates only on a proper coloring, and replay, which stops at a
    move's first clash, passes it only proper ones, as every caller does.
    """
    adj = g.adj
    c0 = colors[e0]
    other = b if c0 == a else a
    out = [e0]
    for v in reversed(g.edges[e0]):
        want = other
        while True:
            for w, e in adj[v]:
                if colors[e] == want:
                    break
            else:
                break  # a path end on this side
            if e == e0:
                return out  # around a cycle
            out.append(e)
            v = w
            want = c0 if want == other else other
    return out


def _enum_order(g):
    """Edge order for backtracking: BFS over edge adjacency for tight pruning."""
    m = g.m
    if m == 0:
        return []
    seen = [False] * m
    order = []
    for seed in range(m):
        if seen[seed]:
            continue
        stack = [seed]
        seen[seed] = True
        while stack:
            e = stack.pop()
            order.append(e)
            for v in g.edges[e]:
                for _, e2 in g.adj[v]:
                    if not seen[e2]:
                        seen[e2] = True
                        stack.append(e2)
    return order


def canonical_colorings(g, t, accept=None):
    """Every proper t-coloring up to a renaming of its colors, each yielded
    once as the live list of colors by edge id (copy it to keep it).

    Edges are colored along :func:`_enum_order`, colors tried in ascending
    order, and an edge takes a color already used or the next fresh one, so
    colors are numbered in order of first appearance.  A canonical coloring
    that uses k colors stands for perm(t, k) labeled ones, and it is the
    lexicographic minimum (along the order) of its orbit.

    `accept(i, bit, used)`, when given, is asked after the color ``bit`` (a
    one-bit mask) is placed on the i-th edge of the order, ``used`` holding
    the colors at each vertex as bitmasks; a false answer takes it back.
    """
    m = g.m
    order = _enum_order(g)
    ends = [g.edges[e] for e in order]
    colors = [0] * m
    used = [0] * (g.n + 1)
    top = [0] * (m + 1)  # colors used before step i: 1..top[i]
    i, c = 0, 0  # c: the last color tried at step i
    while i >= 0:
        if i == m:
            yield colors
        else:
            u, v = ends[i]
            busy = used[u] | used[v]
            last = min(t, top[i] + 1)
            c += 1
            while c <= last:
                bit = 1 << c
                if not busy & bit:
                    used[u] |= bit
                    used[v] |= bit
                    if accept is None or accept(i, bit, used):
                        break
                    used[u] ^= bit
                    used[v] ^= bit
                c += 1
            if c <= last:
                colors[order[i]] = c
                top[i + 1] = max(top[i], c)
                i, c = i + 1, 0
                continue
        # back to step i - 1: take its color off and try the next one
        i -= 1
        if i >= 0:
            c = colors[order[i]]
            u, v = ends[i]
            used[u] ^= 1 << c
            used[v] ^= 1 << c


def enumerate_proper(g, t, cap):
    """Every proper t-coloring up to a renaming of its colors, as bytes in
    the order of :func:`canonical_colorings`, or (partial, True) when more
    than `cap` exist."""
    out = []
    for colors in canonical_colorings(g, t):
        if len(out) >= cap:
            return out, True
        out.append(bytes(colors))
    return out, False


@functools.lru_cache(maxsize=256)
def _memo_tables(cs):
    """The per-color-set tables of :func:`_memo_moves`, built once per color
    set `cs` (a tuple, ascending): the one-hot translate table of each
    color (color c -> 1, every other byte -> 0), and the pairs a < b as
    (index of a, index of b, a, b, a ^ b)."""
    one_hot = tuple(bytes(c) + b"\x01" + bytes(255 - c) for c in cs)
    pairs = tuple(
        (i, j, cs[i], cs[j], cs[i] ^ cs[j])
        for i in range(len(cs))
        for j in range(i + 1, len(cs))
    )
    return one_hot, pairs


def _chains(g, state, a, b):
    """The components of the (a, b)-subgraph of `state` (bytes), in order of
    their least edge id, each as (that id, an int with one byte per edge id
    that is 1 on its edges)."""
    m = len(state)
    seen = bytearray(m)
    out = []
    for e, c in enumerate(state):
        if (c == a or c == b) and not seen[e]:
            comp = bytearray(m)
            for f in component_edges(g, state, a, b, e):
                seen[f] = comp[f] = 1
            out.append((e, int.from_bytes(comp, "little")))
    return out


def _memo_moves(g, s, cs, chains):
    """:func:`kempe_neighbor_moves` through the memo `chains`: edge set ->
    :func:`_chains` of any proper state whose (a, b)-subgraph has it.

    The state `s` and each color class are ints with one byte per edge id,
    little-endian, so the edge set of a pair is one ``|``, and swapping a
    component C is ``s ^ C * (a ^ b)``: a ^ b fits a byte, so nothing
    carries.  The state is written out as bytes once, to translate its
    color classes and to trace a missed pair.
    """
    one_hot, pairs = _memo_tables(cs)
    state = s.to_bytes(g.m, "little")
    sets = [int.from_bytes(state.translate(tbl), "little") for tbl in one_hot]
    out = []
    append = out.append
    for i, j, a, b, x in pairs:
        key = sets[i] | sets[j]
        if not key:
            continue  # two absent colors
        comps = chains.get(key)
        if comps is None:
            comps = chains[key] = _chains(g, state, a, b)
        # a loop, not a comprehension: Python 3.11 calls a comprehension
        # as a function, once per pair
        for rep, comp in comps:
            append((a, b, rep, s ^ comp * x))
    return out


def kempe_neighbor_moves(g, state, colors, chains=None):
    """Every Kempe interchange of `state` with both colors in `colors` as
    (a, b, rep, next_state).

    Color pairs a < b run in ascending order over `colors`, an iterable:
    the searches pass their palette, or the sub-palette a bounded search
    must not leave.  Within a pair the components come in order of their
    least edge id `rep`, and a pair of two absent colors is skipped.

    `chains`, when given, is a dict the caller keeps for one search over
    one graph, and `state` must be proper and an int: one byte per edge
    id, little-endian (``int.from_bytes(colors, "little")``), as is every
    next state.  The components of each pair are looked up by the pair's
    edge set, traced on a miss, and every next state is one integer xor
    (:func:`_memo_moves`), with the translate tables and the pair list
    built once per color set.  The memo holds at most one entry per
    distinct edge set, so at most min(2^m, pairs x states) of them.

    Without it, `state` and every next state are ``bytes`` of length m
    (measured faster there, see the module docstring): one pass over the
    edges builds, per color present, its edge list and a vertex -> edge
    table; a pair then walks each component from its least unseen edge
    and writes its next state edge by edge.  The moves are the same either
    way.
    """
    cs = tuple(sorted(colors))
    if chains is not None:
        return _memo_moves(g, state, cs, chains)
    edges = g.edges
    nv = g.n + 1
    edges_of = {}  # color -> its edge ids, ascending
    at = {}  # color -> vertex -> edge of that color there, or -1
    for e, c in enumerate(state):
        if c in edges_of:
            edges_of[c].append(e)
            tbl = at[c]
        else:
            edges_of[c] = [e]
            tbl = at[c] = [-1] * nv
        u, v = edges[e]
        tbl[u] = e
        tbl[v] = e
    out = []
    for i, a in enumerate(cs):
        edges_a = edges_of.get(a)
        for b in cs[i + 1:]:
            edges_b = edges_of.get(b)
            if edges_a is None or edges_b is None:
                # one color absent: every edge of the other is a component
                lone = edges_a or edges_b
                if lone is None:
                    continue
                other = a if edges_a is None else b
                for e in lone:
                    nxt = bytearray(state)
                    nxt[e] = other
                    out.append((a, b, e, bytes(nxt)))
                continue
            ta, tb = at[a], at[b]
            seen = bytearray(len(state))
            for e in sorted(edges_a + edges_b):
                if seen[e]:
                    continue
                # ascending scan: e is its component's least edge
                seen[e] = 1
                nxt = bytearray(state)
                nxt[e] = a if state[e] == b else b
                for y in edges[e]:
                    tbl = ta if state[e] == b else tb  # the color wanted at y
                    while True:
                        nx = tbl[y]
                        if nx < 0 or seen[nx]:
                            break
                        seen[nx] = 1
                        nxt[nx] = a if tbl is tb else b
                        p, q = edges[nx]
                        y = q if p == y else p
                        tbl = ta if tbl is tb else tb
                out.append((a, b, e, bytes(nxt)))
    return out


def kempe_neighbors(g, state, colors, chains=None):
    """The next states of :func:`kempe_neighbor_moves`, in the same order."""
    return [nxt for _, _, _, nxt in kempe_neighbor_moves(g, state, colors, chains)]
