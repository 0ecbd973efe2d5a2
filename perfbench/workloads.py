"""Seeded inputs, ops and correctness checks for the four workloads.

An *op* is one producing call into the library plus the certification of
what it returned.  Every input is generated here from the seed; the library
only ever sees the finished graphs and colorings.

Workloads (why each exists, and which layer metrics should move which
end-to-end metric, is written out in perfbench/README.md):

- ``regular4``      transform_delta4 on 4-regular Class 1 graphs, n = 320
- ``dense_reduce``  reduce_to_delta_plus_one on random graphs, n = 400, m = 4000
- ``oracle``        same_class / kempe_classes on small graphs
- ``equalize_mix``  equalize across the supported families

Library functions are always called through their module attribute
(``degree4_lift.transform_delta4``, not a name imported at load time), so
the traced run's rebinding reaches these calls too.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from kempe_edge import (
    degree4_lift,
    fixtures_gen,
    kempe_engine,
    oracle,
    reductions,
    vizing_reduce,
)
from kempe_edge.graph_core import EdgeColoring, Graph

# regular4: 4-regular graphs at this order; ~1.6 s produce per op on the
# pure-Python kernels.  Op cost grows faster than the transcript, so it
# varies with the seed's graphs; the median is taken over eight of them.
REGULAR4_N = 320
REGULAR4_GRAPHS = 8
# dense_reduce: uniform random graphs with n = 400 and m = 4000 (p ~ 0.05,
# Delta ~ 34); m is fixed so that the work per op does not swing with it.
DENSE_N = 400
DENSE_M = 4000
DENSE_GRAPHS = 5
# equalize_mix: fixed graphs (generator seeds), the run's seed draws the
# colorings, EQUALIZE_PAIRS pairs per graph.
ACYCLIC5_GRAPHS = tuple(range(8))
# irregular Delta = 4 graphs as (order, generator seed): eight small ones, and
# one at n = 20 on which the witness-free chromatic_index backtracking takes
# most of the op (~0.4 s), so that a change to it shows end to end.
IRREGULAR4_GRAPHS = tuple((16, gs) for gs in range(8)) + ((20, 1),)
EQUALIZE_PAIRS = 2
# octahedron at palette 5: every proper coloring, one Kempe class.
OCTAHEDRON_T5_COLORINGS = 11760


@dataclass
class Op:
    """One producing call and what its result is checked against."""

    kind: str  # delta4 | reduce | same_class | classes | equalize
    label: str
    g: Graph
    f: EdgeColoring | None = None
    target: EdgeColoring | None = None
    t: int = 0
    expect: object = None
    distance: int | None = None  # known shortest transcript length


@dataclass
class Outcome:
    ok: bool
    moves: int | None  # transcript length, None for ops without a transcript
    digest: str
    produce: tuple  # (start, end): clock readings around the call
    certify: tuple | None  # the same, None for ops without a transcript
    error: str | None = None


# ---------------------------------------------------------------------------
# Input generators (the benchmark's own; no library generator that searches)
# ---------------------------------------------------------------------------


def greedy_coloring(g: Graph, t: int, rng: random.Random) -> EdgeColoring:
    """Edges in seeded random order, each taking a random color free at both
    ends.  With t >= 2*Delta - 1 a free color always exists."""
    order = list(range(g.m))
    rng.shuffle(order)
    used = [0] * (g.n + 1)
    colors = [0] * g.m
    for eid in order:
        u, v = g.edges[eid]
        blocked = used[u] | used[v]
        free = [c for c in range(1, t + 1) if not blocked >> c & 1]
        c = rng.choice(free)
        colors[eid] = c
        used[u] |= 1 << c
        used[v] |= 1 << c
    return EdgeColoring(t, colors)


def backtrack_coloring(g: Graph, t: int, rng: random.Random, node_cap: int = 200_000):
    """Random proper t-coloring of a small graph by seeded backtracking.

    Edges are taken in a seeded depth-first order so that each new edge
    touches colored ones; colors are tried in random order."""
    for _ in range(100):
        order = _edge_dfs_order(g, rng)
        colors = [0] * g.m
        used = [0] * (g.n + 1)
        nodes = 0

        def rec(i):
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                return False
            if i == len(order):
                return True
            eid = order[i]
            u, v = g.edges[eid]
            palette = list(range(1, t + 1))
            rng.shuffle(palette)
            for c in palette:
                bit = 1 << c
                if (used[u] | used[v]) & bit:
                    continue
                colors[eid] = c
                used[u] |= bit
                used[v] |= bit
                if rec(i + 1):
                    return True
                used[u] &= ~bit
                used[v] &= ~bit
            return False

        if rec(0):
            return EdgeColoring(t, colors)
    raise RuntimeError(f"no proper {t}-coloring found for {g!r}")


def _edge_dfs_order(g: Graph, rng: random.Random):
    seen = [False] * g.m
    order = []
    roots = list(range(g.m))
    rng.shuffle(roots)
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            eid = stack.pop()
            order.append(eid)
            nxt = [e for v in g.edges[eid] for _, e in g.adj[v] if not seen[e]]
            rng.shuffle(nxt)
            for e in nxt:
                if not seen[e]:
                    seen[e] = True
                    stack.append(e)
    return order


def kempe_walk(g: Graph, f: EdgeColoring, steps: int, rng: random.Random) -> EdgeColoring:
    """f after `steps` random interchanges (component traced here, not by
    the library), so the result is Kempe-equivalent to f by construction."""
    colors = list(f.colors)
    for _ in range(steps):
        eid = rng.randrange(g.m)
        a = colors[eid]
        b = rng.choice([c for c in range(1, f.t + 1) if c != a])
        comp = {eid}
        stack = [eid]
        while stack:
            e = stack.pop()
            for v in g.edges[e]:
                for _, e2 in g.adj[v]:
                    if e2 not in comp and colors[e2] in (a, b):
                        comp.add(e2)
                        stack.append(e2)
        for e in comp:
            colors[e] = b if colors[e] == a else a
    return EdgeColoring(f.t, colors)


def _delete_random_edges(g: Graph, k: int, rng: random.Random):
    """g minus k random edges whose endpoints all keep degree >= 2."""
    deg = [len(g.adj[v]) for v in range(g.n + 1)]
    drop = set()
    for eid in rng.sample(range(g.m), g.m):
        if len(drop) == k:
            break
        u, v = g.edges[eid]
        if deg[u] > 2 and deg[v] > 2:
            drop.add(eid)
            deg[u] -= 1
            deg[v] -= 1
    kept = [eid for eid in range(g.m) if eid not in drop]
    return Graph(g.n, [g.edges[eid] for eid in kept]), kept


def _random_graph(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform random simple graph on n vertices with exactly m edges, drawn
    by rejection so that no list of all vertex pairs is ever held."""
    edges = {}  # insertion-ordered set
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges[min(u, v), max(u, v)] = None
    return Graph(n, list(edges))


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


def build_regular4(rng: random.Random):
    ops = []
    for i in range(REGULAR4_GRAPHS):
        g, witness = fixtures_gen.random_regular4_class1(REGULAR4_N, rng.randrange(2**31))
        f = greedy_coloring(g, 7, rng)
        ops.append(Op("delta4", f"regular4[{i}]", g, f, witness))
    return ops


def build_dense_reduce(rng: random.Random):
    ops = []
    for i in range(DENSE_GRAPHS):
        g = _random_graph(rng, DENSE_N, DENSE_M)
        f = greedy_coloring(g, 2 * g.max_degree() - 1, rng)
        ops.append(Op("reduce", f"dense[{i}]", g, f))
    return ops


# Hard same_class pairs at palette Delta + 2: (name, n, edges, f, h, Kempe
# distance).  h lies at the largest distance from f in their Kempe class (the
# class holds every proper 5-coloring), found once by a full BFS, so labeled
# BFS explores almost the whole class whatever the labels: the cost is fixed
# by the class size (3000 / 7620 / 11700 / 14280 colorings).
FAR_PAIRS = (
    ("far-A m=7", 5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)),
     (1, 4, 3, 3, 2, 2, 1), (5, 1, 2, 4, 3, 5, 4), 6),
    ("far-D m=7", 6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)),
     (1, 2, 1, 2, 1, 2, 3), (4, 3, 5, 4, 2, 5, 2), 7),
    ("far-C m=8", 6, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5)),
     (1, 3, 2, 3, 1, 2, 4, 2), (3, 4, 5, 1, 4, 5, 4, 5), 7),
    ("far-B m=8", 6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4), (2, 5)),
     (1, 3, 1, 3, 1, 3, 2, 2), (2, 4, 5, 2, 4, 5, 4, 5), 8),
)


def _relabel(rng: random.Random, n: int, edges, t: int, colorings):
    """Seeded isomorphic copy: vertices, edge order and colors permuted."""
    vert = list(range(1, n + 1))
    rng.shuffle(vert)
    order = list(range(len(edges)))
    rng.shuffle(order)
    sigma = list(range(1, t + 1))
    rng.shuffle(sigma)
    g = Graph(n, [(vert[edges[i][0] - 1], vert[edges[i][1] - 1]) for i in order])
    return g, [EdgeColoring(t, [sigma[col[i] - 1] for i in order]) for col in colorings]


def build_oracle(rng: random.Random):
    ops = []
    g = _random_graph(rng, 6, 8)
    t = g.max_degree() + 1
    f = backtrack_coloring(g, t, rng)
    h = f
    while h.colors == f.colors:
        h = kempe_walk(g, f, 2, rng)
    ops.append(Op("same_class", f"walk-pair m=8 t={t}", g, f, h, t, True))
    for name, n, edges, f0, h0, dist in FAR_PAIRS:
        g, (f, h) = _relabel(rng, n, edges, 5, (f0, h0))
        ops.append(Op("same_class", name, g, f, h, 5, True, dist))
    f1, h1 = fixtures_gen.figure1_pair()
    ops.append(Op("same_class", "figure1 t=4", fixtures_gen.octahedron(), f1, h1, 4, False))
    ops.append(
        Op("classes", "octahedron t=5", fixtures_gen.octahedron(), t=5,
           expect=(OCTAHEDRON_T5_COLORINGS, 1))
    )
    return ops


def build_equalize_mix(rng: random.Random):
    ops = []
    # Delta = 5, degree-5 vertices inducing a forest: Class 1, palette 6
    for gs in ACYCLIC5_GRAPHS:
        g = fixtures_gen.acyclic_max_degree_graph(5, gs)
        for k in range(EQUALIZE_PAIRS):
            f = backtrack_coloring(g, 6, rng)
            h = backtrack_coloring(g, 6, rng)
            ops.append(Op("equalize", f"acyclic5[{gs}].{k}", g, f, h))
    # overfull Delta = 5: Class 2, palette 7
    g = fixtures_gen.overfull_delta5()
    for k in range(EQUALIZE_PAIRS):
        f = backtrack_coloring(g, 7, rng)
        h = backtrack_coloring(g, 7, rng)
        ops.append(Op("equalize", f"overfull5.{k}", g, f, h))
    # irregular Delta = 4 Class 1: a 4-regular graph minus edges, palette 5
    for n, gs in IRREGULAR4_GRAPHS:
        g4, witness = fixtures_gen.random_regular4_class1(n, gs)
        g, kept = _delete_random_edges(g4, 3, random.Random(gs))
        base = EdgeColoring(5, [witness.colors[eid] for eid in kept])
        for k in range(EQUALIZE_PAIRS):
            f = kempe_walk(g, base, 20, rng)
            h = kempe_walk(g, base, 20, rng)
            ops.append(Op("equalize", f"delta4-irregular-n{n}[{gs}].{k}", g, f, h))
    return ops


BUILDERS = {
    "regular4": build_regular4,
    "dense_reduce": build_dense_reduce,
    "oracle": build_oracle,
    "equalize_mix": build_equalize_mix,
}


def build(workload: str, seed: int):
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------


def _produce(op: Op):
    if op.kind == "delta4":
        return degree4_lift.transform_delta4(op.g, op.f, op.target)
    if op.kind == "reduce":
        return vizing_reduce.reduce_to_delta_plus_one(op.g, op.f)
    if op.kind == "same_class":
        return oracle.same_class(op.g, op.t, op.f, op.target)
    if op.kind == "classes":
        return oracle.kempe_classes(op.g, op.t, jobs=1)
    if op.kind == "equalize":
        return reductions.equalize(op.g, op.f, op.target)
    raise ValueError(op.kind)


def _timed(call, clock):
    """call()'s result and the clock readings (start, end) around it."""
    t0 = clock()
    result = call()
    return result, (t0, clock())


def _check(op: Op, result, clock):
    """(error or None, transcript or None, certify timing, digest text)."""
    if op.kind == "classes":
        got = (result.total_colorings, result.class_count)
        if result.truncated or got != op.expect or sum(result.class_sizes) != got[0]:
            return f"classes {got}, expected {op.expect}", None, None, repr(got)
        return None, None, None, f"classes {got} {result.class_sizes}"
    if op.kind == "same_class":
        reachable, tr = result
        if reachable != op.expect:
            return f"same_class said {reachable}, expected {op.expect}", None, None, ""
        if not reachable:
            return None, None, None, "unreachable"
        if op.distance is not None and len(tr.moves) != op.distance:
            return f"shortest transcript has {len(tr.moves)} moves", None, None, ""
        want = op.target.colors
    elif op.kind == "reduce":
        reduced, tr = result
        delta = op.g.max_degree()
        if reduced.t != delta + 1 or max(reduced.colors, default=0) > delta + 1:
            return f"palette {reduced.t} after reduction, Delta={delta}", None, None, ""
        want = reduced.colors
    else:
        tr = result
        want = op.target.colors
    end, certify = _timed(lambda: kempe_engine.apply_transcript(op.g, op.f, tr, check=True), clock)
    text = kempe_engine.format_transcript(op.g, tr)
    if list(end.colors) != list(want):
        return "replayed transcript ends off target", tr, certify, text
    if not tr.moves:
        return "empty transcript for distinct colorings", tr, certify, text
    return None, tr, certify, text


def run_op(op: Op, clock) -> Outcome:
    """Produce and certify once, each call timed on `clock`."""
    t0 = clock()
    try:
        result, produce = _timed(lambda: _produce(op), clock)
    except Exception as exc:  # a failed op is counted and reported, not fatal
        return Outcome(False, None, "", (t0, clock()), None, f"{type(exc).__name__}: {exc}")
    try:
        error, tr, certify, text = _check(op, result, clock)
    except Exception as exc:
        return Outcome(False, None, "", produce, None, f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    moves = len(tr.moves) if tr is not None else None
    return Outcome(error is None, moves, digest, produce, certify, error)
