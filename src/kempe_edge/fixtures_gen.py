"""Deterministic generators for test instances."""
from __future__ import annotations

import random

from .errors import InfeasibleN, InternalInvariantError
from .graph_core import MAX_VERTICES, EdgeColoring, Graph, is_proper

# The octahedron K_{2,2,2}: 6 vertices, 12 edges, 4-regular.
_OCTAHEDRON_EDGES = [
    (1, 2), (1, 4), (1, 5), (1, 6),
    (2, 3), (2, 4), (2, 6),
    (3, 4), (3, 5), (3, 6),
    (4, 5),
    (5, 6),
]

# Two proper 4-colorings of the octahedron lying in distinct Kempe classes at
# palette 4 (verified exhaustively by oracle.kempe_classes; they become
# connected at palette 5).  Derived once by oracle search and committed.
_FIGURE1_F = (1, 2, 4, 3, 3, 4, 2, 1, 2, 4, 3, 1)
_FIGURE1_G = (1, 3, 2, 4, 3, 4, 2, 2, 4, 1, 1, 3)


def octahedron() -> Graph:
    return Graph(6, _OCTAHEDRON_EDGES)


def figure1_pair():
    """Committed pair of proper 4-colorings of the octahedron that no sequence
    of interchanges connects at palette 4."""
    return EdgeColoring(4, _FIGURE1_F), EdgeColoring(4, _FIGURE1_G)


def random_regular4_class1(n: int, seed: int):
    """4-regular graph on n vertices as a union of two edge-disjoint
    Hamiltonian cycles, plus the witness 4-coloring obtained by splitting each
    cycle into two alternating perfect matchings.

    n must be even and >= 6 (odd cycles cannot alternate; below 6 the two
    cycles cannot be edge-disjoint and simple), and at most MAX_VERTICES, the
    most a graph file may declare.
    """
    if n % 2 != 0 or not 6 <= n <= MAX_VERTICES:
        raise InfeasibleN(f"need even n in 6..{MAX_VERTICES}, got {n}")
    rng = random.Random(seed)
    verts = list(range(1, n + 1))

    def ham_cycle():
        perm = verts[:]
        rng.shuffle(perm)
        return [
            (min(perm[i], perm[(i + 1) % n]), max(perm[i], perm[(i + 1) % n]))
            for i in range(n)
        ]

    for _ in range(10000):
        c1 = ham_cycle()
        c2 = ham_cycle()
        if set(c1) & set(c2):
            continue
        edges = c1 + c2
        colors = {}
        for cyc, (ca, cb) in ((c1, (1, 2)), (c2, (3, 4))):
            for i, e in enumerate(cyc):
                colors[e] = ca if i % 2 == 0 else cb
        g = Graph(n, edges)
        f = EdgeColoring(4, [colors[e] for e in g.edges])
        if not is_proper(g, f):
            raise InternalInvariantError("alternating witness not proper")
        return g, f
    raise InfeasibleN(f"could not build disjoint Hamiltonian cycles for n={n}")


def overfull_delta5() -> Graph:
    """K7 minus (a triangle on {1,2,3} and the matching {4-5, 6-7}).

    16 edges on 7 vertices with Delta = 5: overfull, hence Class 2.
    """
    removed = {(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)}
    edges = [
        (u, v)
        for u in range(1, 8)
        for v in range(u + 1, 8)
        if (u, v) not in removed
    ]
    return Graph(7, edges)


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle 1..5, spokes i -- i+5, inner
    pentagram on 6..10.  Cubic, not overfull, yet Class 2."""
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph(10, [tuple(sorted(e)) for e in outer + spokes + inner])


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi style test graph (deterministic per seed)."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < edge_prob
    ]
    return Graph(n, edges)


def _random_connected_order(g: Graph, rng: random.Random):
    """Edge order growing a connected colored region (keeps backtracking sane)."""
    remaining = set(range(g.m))
    order = []
    frontier = []
    while remaining:
        if not frontier:
            seed_edge = rng.choice(sorted(remaining))
            frontier = [seed_edge]
        eid = frontier.pop(rng.randrange(len(frontier)))
        if eid not in remaining:
            continue
        remaining.discard(eid)
        order.append(eid)
        for v in g.edges[eid]:
            for _, e2 in g.adj[v]:
                if e2 in remaining:
                    frontier.append(e2)
    return order


def random_proper_coloring(
    g: Graph, t: int, seed: int, node_cap: int = 300_000
) -> EdgeColoring:
    """Random proper t-coloring via seeded backtracking.

    Colors are tried in random order along a random connected edge order;
    stuck attempts are abandoned at `node_cap` nodes and reseeded.
    """
    rng = random.Random(seed)
    colors = [0] * g.m
    used = [0] * (g.n + 1)

    def attempt(order):
        nodes = 0
        choice_stack = []
        i = 0
        while 0 <= i < g.m:
            nodes += 1
            if nodes > node_cap:
                return False
            eid = order[i]
            u, v = g.edges[eid]
            if len(choice_stack) == i:
                avail = [
                    c
                    for c in range(1, t + 1)
                    if not ((used[u] | used[v]) & (1 << c))
                ]
                rng.shuffle(avail)
                choice_stack.append(avail)
            else:
                bit = 1 << colors[eid]
                used[u] &= ~bit
                used[v] &= ~bit
                colors[eid] = 0
            options = choice_stack[i]
            if options:
                c = options.pop()
                bit = 1 << c
                colors[eid] = c
                used[u] |= bit
                used[v] |= bit
                i += 1
            else:
                choice_stack.pop()
                i -= 1
        return i == g.m

    for _ in range(60):
        for v in range(g.n + 1):
            used[v] = 0
        for e in range(g.m):
            colors[e] = 0
        if attempt(_random_connected_order(g, rng)):
            return EdgeColoring(t, colors)
    raise InfeasibleN(f"no proper {t}-coloring found within the retry budget")


def acyclic_max_degree_graph(delta: int, seed: int, n_extra: int = 10):
    """Graph whose max-degree vertices induce a tree (hence acyclic).

    A seeded tree of 1..4 hub vertices is raised to degree `delta` by edges
    into a pool of filler vertices kept strictly below degree delta.
    """
    if delta < 2:
        raise InfeasibleN("need delta >= 2")
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    hubs = list(range(1, k + 1))
    fillers = list(range(k + 1, k + 1 + n_extra))
    edges = set()
    deg = {v: 0 for v in hubs + fillers}

    def add(u, v):
        e = (min(u, v), max(u, v))
        if u == v or e in edges:
            return False
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
        return True

    for i in range(1, k):
        add(hubs[i], rng.choice(hubs[:i]))
    for h in hubs:
        tries = 0
        while deg[h] < delta and tries < 400:
            tries += 1
            v = rng.choice(fillers)
            if deg[v] < delta - 1:
                add(h, v)
        if deg[h] < delta:
            raise InfeasibleN("could not raise hub degree; widen the pool")
    # sprinkle filler-filler edges, keeping fillers below delta
    for _ in range(n_extra):
        u, v = rng.sample(fillers, 2)
        if deg[u] < delta - 1 and deg[v] < delta - 1:
            add(u, v)
    used = sorted({v for e in edges for v in e})
    remap = {v: i + 1 for i, v in enumerate(used)}
    g = Graph(len(used), [(remap[u], remap[v]) for u, v in sorted(edges)])
    if g.max_degree() != delta:
        raise InternalInvariantError("generator missed the target max degree")
    return g
