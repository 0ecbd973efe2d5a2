"""Kernels: bicolored-path tracing and swapping, properness, state enumeration.

Every module reaches them through :data:`kempe_edge.kernels.backend`.
State vectors are ``bytes`` of length m, one color per edge id.
"""
from __future__ import annotations


class GraphArrays:
    """Flat adjacency view of a graph, built once per graph for the kernels."""

    __slots__ = ("n", "m", "edge_u", "edge_v", "adj_start", "adj_nbr", "adj_eid")

    def __init__(self, n, m, edge_u, edge_v, adj_start, adj_nbr, adj_eid):
        self.n = n
        self.m = m
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.adj_start = adj_start
        self.adj_nbr = adj_nbr
        self.adj_eid = adj_eid


def build_arrays(g) -> GraphArrays:
    n, m = g.n, g.m
    edge_u = [0] * m
    edge_v = [0] * m
    for eid, (u, v) in enumerate(g.edges):
        edge_u[eid] = u
        edge_v[eid] = v
    adj_start = [0] * (n + 2)
    adj_nbr = []
    adj_eid = []
    for v in range(1, n + 1):
        adj_start[v] = len(adj_nbr)
        for w, eid in g.adj[v]:
            adj_nbr.append(w)
            adj_eid.append(eid)
    adj_start[n + 1] = len(adj_nbr)
    return GraphArrays(n, m, edge_u, edge_v, adj_start, adj_nbr, adj_eid)


def is_proper(ga, colors) -> bool:
    for v in range(1, ga.n + 1):
        seen = set()
        for k in range(ga.adj_start[v], ga.adj_start[v + 1]):
            c = colors[ga.adj_eid[k]]
            if c in seen:
                return False
            seen.add(c)
    return True


def trace_component(ga, colors, a, b, e0):
    """Component of the (a, b)-subgraph containing edge e0.

    Returns (edge_ids, vertices, is_cycle) with vertices ordered along the
    path (smaller-id endpoint first) or around the cycle (smallest vertex
    first, toward its smaller-id neighbor).  edge_ids[i] joins vertices[i]
    and vertices[i+1] (wrapping for cycles).
    """
    u0, v0 = ga.edge_u[e0], ga.edge_v[e0]

    def walk(start, first_edge):
        # Extend from `start` away through `first_edge`; stop at a missing
        # color or when the start vertex reappears (cycle).
        verts = [start]
        eids = []
        v = start
        eid = first_edge
        while True:
            eids.append(eid)
            v = ga.edge_v[eid] if ga.edge_u[eid] == v else ga.edge_u[eid]
            verts.append(v)
            if v == start:
                return verts, eids, True
            want = b if colors[eid] == a else a
            nxt = -1
            for k in range(ga.adj_start[v], ga.adj_start[v + 1]):
                e = ga.adj_eid[k]
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
    for k in range(ga.adj_start[u0], ga.adj_start[u0 + 1]):
        e = ga.adj_eid[k]
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


def swap_component(colors, edge_ids, a, b):
    """Interchange colors a and b on the given edges, in place."""
    for e in edge_ids:
        colors[e] = b if colors[e] == a else a


def _enum_order(ga):
    """Edge order for backtracking: BFS over edge adjacency for tight pruning."""
    m = ga.m
    if m == 0:
        return []
    incident = [[] for _ in range(ga.n + 1)]
    for eid in range(m):
        incident[ga.edge_u[eid]].append(eid)
        incident[ga.edge_v[eid]].append(eid)
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
            for v in (ga.edge_u[e], ga.edge_v[e]):
                for e2 in incident[v]:
                    if not seen[e2]:
                        seen[e2] = True
                        stack.append(e2)
    return order


def enumerate_proper(ga, t, cap):
    """Every proper t-coloring up to a renaming of its colors, as bytes, or
    (partial, True) when `cap` is hit.

    Each coloring is emitted once, in canonical form: colors are numbered in
    order of first appearance along :func:`_enum_order`, so an edge takes a
    color already used or the next fresh one.  A canonical coloring that
    uses k colors stands for perm(t, k) labeled ones, and the canonical form
    is the lexicographic minimum (along the order) of its orbit.
    """
    m = ga.m
    order = _enum_order(ga)
    colors = bytearray(m)
    used = [0] * (ga.n + 1)  # bitmask of colors at each vertex
    out = []
    truncated = False

    def rec(i, k):
        nonlocal truncated
        if truncated:
            return
        if i == m:
            if len(out) >= cap:
                truncated = True
                return
            out.append(bytes(colors))
            return
        e = order[i]
        u, v = ga.edge_u[e], ga.edge_v[e]
        avail = ~(used[u] | used[v])
        for c in range(1, min(t, k + 1) + 1):
            bit = 1 << c
            if avail & bit:
                colors[e] = c
                used[u] |= bit
                used[v] |= bit
                rec(i + 1, max(k, c))
                used[u] &= ~bit
                used[v] &= ~bit
                if truncated:
                    return
        colors[e] = 0

    rec(0, 0)
    return out, truncated


def kempe_neighbor_moves(ga, state, t, color_set=None):
    """Every Kempe interchange of `state` (bytes) as (a, b, rep, next_state).

    Color pairs a < b run in ascending order over `color_set` (all of
    1..t when None; a given set restricts the move colors, as the bounded
    searches that must not leave a sub-palette need).  Within a pair the
    components come in order of their least edge id `rep`.  One pass over
    the edges builds, per color present, its edge list and a vertex -> edge
    table; a pair then walks each component from its least unseen edge, and
    a pair of two absent colors is skipped.
    """
    cs = sorted(color_set) if color_set is not None else range(1, t + 1)
    eu, ev = ga.edge_u, ga.edge_v
    nv = ga.n + 1
    edges_of = {}  # color -> its edge ids, ascending
    at = {}  # color -> vertex -> edge of that color there, or -1
    for e, c in enumerate(state):
        if c in edges_of:
            edges_of[c].append(e)
            tbl = at[c]
        else:
            edges_of[c] = [e]
            tbl = at[c] = [-1] * nv
        tbl[eu[e]] = e
        tbl[ev[e]] = e
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
                for y in (eu[e], ev[e]):
                    tbl = ta if state[e] == b else tb  # the color wanted at y
                    while True:
                        nx = tbl[y]
                        if nx < 0 or seen[nx]:
                            break
                        seen[nx] = 1
                        nxt[nx] = a if tbl is tb else b
                        y = ev[nx] if eu[nx] == y else eu[nx]
                        tbl = ta if tbl is tb else tb
                out.append((a, b, e, bytes(nxt)))
    return out


def kempe_neighbors(ga, state, t, color_set=None):
    """The next states of :func:`kempe_neighbor_moves`, in the same order."""
    return [nxt for _, _, _, nxt in kempe_neighbor_moves(ga, state, t, color_set)]
