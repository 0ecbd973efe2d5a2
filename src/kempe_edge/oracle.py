"""Independent ground truth at desk scale.

Exact chromatic index via pruned backtracking, exhaustive enumeration of
proper colorings, and the partition of the coloring space into Kempe classes.
States are labeled colorings (no quotient by color permutation): equivalence
is between colorings as functions, exactly as the transforms produce them.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceeded, ColorOutOfRange
from .graph_core import EdgeColoring, Graph, check_palette, require_proper
from .kempe_engine import KempeMove, Transcript
from .kernels import backend

DEFAULT_STATE_CAP = 5_000_000
DEFAULT_NODE_CAP = 20_000_000


@dataclass(frozen=True)
class KempeClassReport:
    palette: int
    total_colorings: int
    class_count: int
    class_sizes: tuple
    representatives: tuple  # one EdgeColoring per class, discovery order
    truncated: bool


def _search_coloring(g: Graph, t: int, node_cap: int):
    """One proper t-coloring via backtracking, or None.  Breaks color-class
    symmetry by allowing at most one fresh color per step."""
    m = g.m
    if m == 0:
        return []
    from ._kernels_py import _enum_order

    order = _enum_order(g.arrays())
    colors = [0] * m
    used = [0] * (g.n + 1)
    nodes = 0

    def rec(i, maxc):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"backtracking exceeded {node_cap} nodes")
        if i == m:
            return True
        eid = order[i]
        u, v = g.edges[eid]
        avail = ~(used[u] | used[v])
        top = min(t, maxc + 1)
        for c in range(1, top + 1):
            bit = 1 << c
            if avail & bit:
                colors[eid] = c
                used[u] |= bit
                used[v] |= bit
                if rec(i + 1, max(maxc, c)):
                    return True
                used[u] &= ~bit
                used[v] &= ~bit
        colors[eid] = 0
        return False

    return colors[:] if rec(0, 0) else None


def chromatic_index(g: Graph, node_cap: int = DEFAULT_NODE_CAP):
    """Exact chromatic index with a witness coloring.

    The overfull bound m > Delta * floor(n/2) certifies Class 2 without
    search; otherwise a Delta-coloring is searched exhaustively.  The answer
    always lands in {Delta, Delta+1}.
    """
    delta = g.max_degree()
    if g.m == 0:
        return 0, EdgeColoring(1, [])
    if g.m > delta * (g.n // 2):
        witness = _search_coloring(g, delta + 1, node_cap)
        if witness is None:
            raise BudgetExceeded("no (Delta+1)-coloring found; graph invariant broken")
        return delta + 1, EdgeColoring(delta + 1, witness)
    witness = _search_coloring(g, delta, node_cap)
    if witness is not None:
        return delta, EdgeColoring(delta, witness)
    witness = _search_coloring(g, delta + 1, node_cap)
    if witness is None:
        raise BudgetExceeded("no (Delta+1)-coloring found; graph invariant broken")
    return delta + 1, EdgeColoring(delta + 1, witness)


def _enumerate_states(g: Graph, t: int, cap: int):
    states, truncated = backend.enumerate_proper(g.arrays(), t, cap)
    return states, truncated


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


_WORKER = {}


def _classes_init(n, edges, t, index):
    worker_graph = Graph(n, list(edges))
    _WORKER["ga"] = worker_graph.arrays()
    _WORKER["t"] = t
    _WORKER["index"] = index


def _classes_chunk(chunk):
    base, states = chunk
    ga, t, index = _WORKER["ga"], _WORKER["t"], _WORKER["index"]
    pairs = []
    for i, s in enumerate(states):
        for nxt in backend.kempe_neighbors(ga, s, t):
            j = index.get(nxt)
            if j is None:
                return None
            pairs.append((base + i, j))
    return pairs


def kempe_classes(
    g: Graph, t: int, cap: int = DEFAULT_STATE_CAP, jobs: int = 1
) -> KempeClassReport:
    """Partition all proper t-colorings into Kempe equivalence classes.

    With jobs > 1 the neighbor sweep runs on a process pool; the resulting
    partition is independent of scheduling (the union-find merge and the
    representative pass stay sequential).
    """
    check_palette(t)
    states, truncated = _enumerate_states(g, t, cap)
    index = {s: i for i, s in enumerate(states)}
    uf = _UnionFind(len(states))
    ga = g.arrays()
    if jobs > 1 and len(states) > 1:
        import multiprocessing as mp

        chunk_size = max(1, len(states) // (jobs * 8))
        chunks = [
            (base, states[base: base + chunk_size])
            for base in range(0, len(states), chunk_size)
        ]
        ctx = mp.get_context("fork")
        with ctx.Pool(jobs, _classes_init, (g.n, g.edges, t, index)) as pool:
            for pairs in pool.imap(_classes_chunk, chunks):
                if pairs is None:
                    raise BudgetExceeded("state space truncated mid-sweep")
                for i, j in pairs:
                    uf.union(i, j)
    else:
        for i, s in enumerate(states):
            for nxt in backend.kempe_neighbors(ga, s, t):
                j = index.get(nxt)
                if j is None:
                    raise BudgetExceeded("state space truncated mid-sweep")
                uf.union(i, j)
    roots = {}
    sizes = []
    reps = []
    for i, s in enumerate(states):
        r = uf.find(i)
        if r not in roots:
            roots[r] = len(sizes)
            sizes.append(0)
            reps.append(EdgeColoring(t, list(s)))
        sizes[roots[r]] += 1
    return KempeClassReport(
        palette=t,
        total_colorings=len(states),
        class_count=len(sizes),
        class_sizes=tuple(sizes),
        representatives=tuple(reps),
        truncated=truncated,
    )


def same_class(
    g: Graph,
    t: int,
    f: EdgeColoring,
    h: EdgeColoring,
    cap: int = DEFAULT_STATE_CAP,
):
    """BFS reachability from f to h under Kempe moves at palette t.

    Returns (reachable, shortest transcript or None).
    """
    check_palette(t)
    require_proper(g, f)
    require_proper(g, h)
    for col in (f, h):
        if any(c > t for c in col.colors):
            raise ColorOutOfRange(f"coloring uses colors above palette {t}")
    start = bytes(f.colors)
    goal = bytes(h.colors)
    if start == goal:
        return True, Transcript()
    ga = g.arrays()
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for a, b, rep, nxt in backend.kempe_neighbor_moves(ga, cur, t):
            if nxt in parent:
                continue
            parent[nxt] = (cur, KempeMove(a, b, rep))
            if nxt == goal:
                moves = []
                node = nxt
                while parent[node] is not None:
                    prev, mv = parent[node]
                    moves.append(mv)
                    node = prev
                moves.reverse()
                return True, Transcript(moves)
            queue.append(nxt)
            if len(parent) > cap:
                raise BudgetExceeded(f"BFS exceeded {cap} states")
    return False, None
