"""Graph and edge-coloring value types, properness checking, derived subgraphs.

Vertices are 1-based (DIMACS convention).  Edges are stored once with
endpoints u < v and get ids 0..m-1 in input order, so every artifact that
refers to edges (colorings, transcripts) is reproducible across runs.

Both :class:`Graph` and :class:`EdgeColoring` are immutable after
construction; every transformation produces a new coloring value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ColorOutOfRange,
    EdgeOutOfRange,
    EqualColors,
    FormatError,
    GraphInvariantError,
    MissingEdgeColor,
    NotProper,
)


class Graph:
    """Simple undirected graph (no loops, no parallel edges)."""

    __slots__ = ("n", "edges", "adj", "_edge_index", "_arrays")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphInvariantError("vertex count must be nonnegative")
        canon = []
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphInvariantError(f"vertex out of range in edge ({u},{v})")
            if u == v:
                raise GraphInvariantError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphInvariantError(f"parallel edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v))
        self.n = n
        self.edges = tuple(canon)
        adj = [[] for _ in range(n + 1)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.adj = tuple(tuple(x) for x in adj)
        self._edge_index = {e: i for i, e in enumerate(self.edges)}
        self._arrays = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(self.adj[v]) for v in range(1, self.n + 1)), default=0)

    def min_degree(self) -> int:
        return min((len(self.adj[v]) for v in range(1, self.n + 1)), default=0)

    def edge_id(self, u: int, v: int):
        """Edge id for endpoints (u, v), or None if not an edge."""
        if u > v:
            u, v = v, u
        return self._edge_index.get((u, v))

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphInvariantError(f"vertex {v} not an endpoint of edge {eid}")

    def arrays(self):
        """Flat adjacency arrays for the kernels (cached)."""
        if self._arrays is None:
            from .kernels import build_arrays

            self._arrays = build_arrays(self)
        return self._arrays

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# Colors are stored one byte per edge in the kernels' `bytes` state vectors
# (search, oracle, enumeration), so a palette cannot exceed 255.
MAX_PALETTE = 255


def check_edge_id(g: Graph, eid: int) -> None:
    """Raise EdgeOutOfRange unless eid is an edge id of g (0..m-1); a
    negative id would otherwise index from the end, and None is what
    `Graph.edge_id` gives for a non-edge."""
    if not isinstance(eid, int) or not 0 <= eid < g.m:
        raise EdgeOutOfRange(f"edge id {eid} not in 0..{g.m - 1}")


def check_palette(t: int) -> None:
    """Raise ColorOutOfRange unless 1 <= t <= MAX_PALETTE."""
    if t < 1:
        raise ColorOutOfRange(f"palette size {t} < 1")
    if t > MAX_PALETTE:
        raise ColorOutOfRange(f"palette size {t} above {MAX_PALETTE}")


class EdgeColoring:
    """Total assignment of palette colors 1..t to edge ids 0..m-1.

    The palette size t must lie in 1..MAX_PALETTE (255), since the kernels
    hold one color per byte; a larger t raises ColorOutOfRange.
    """

    __slots__ = ("t", "colors")

    def __init__(self, t: int, colors: Sequence[int]):
        check_palette(t)
        self.t = t
        self.colors = tuple(colors)

    @property
    def m(self) -> int:
        return len(self.colors)

    def color_of(self, eid: int) -> int:
        return self.colors[eid]

    def with_palette(self, t: int) -> "EdgeColoring":
        """Same assignment read against a different palette header."""
        if any(c > t for c in self.colors):
            raise ColorOutOfRange(f"coloring uses colors above {t}")
        return EdgeColoring(t, self.colors)

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColoring)
            and self.t == other.t
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.t, self.colors))

    def __repr__(self):
        return f"EdgeColoring(t={self.t}, colors={list(self.colors)})"


def _check_total(g: Graph, f: EdgeColoring) -> None:
    if f.m != g.m:
        raise MissingEdgeColor(
            f"coloring covers {f.m} edges, graph has {g.m}"
        )
    for eid, c in enumerate(f.colors):
        if not (1 <= c <= f.t):
            raise ColorOutOfRange(f"edge {eid} colored {c}, palette 1..{f.t}")


def palette_at(g: Graph, f: EdgeColoring, v: int) -> frozenset:
    return frozenset(f.colors[eid] for _, eid in g.adj[v])


def is_proper(g: Graph, f: EdgeColoring) -> bool:
    """True iff no two adjacent edges share a color."""
    _check_total(g, f)
    from .kernels import backend

    return backend.is_proper(g.arrays(), list(f.colors))


def require_proper(g: Graph, f: EdgeColoring, what: str = "coloring") -> None:
    if not is_proper(g, f):
        raise NotProper(f"{what} is not proper")


def color_class(f: EdgeColoring, k: int) -> frozenset:
    """M(f, k): ids of edges colored k."""
    if not (1 <= k <= f.t):
        raise ColorOutOfRange(f"color {k} not in 1..{f.t}")
    return frozenset(i for i, c in enumerate(f.colors) if c == k)


@dataclass(frozen=True)
class BicoloredComponent:
    """One component of the subgraph induced by two color classes."""

    vertices: tuple          # ordered along the path / around the cycle
    edge_ids: tuple
    kind: str                # "path" | "cycle"


def bicolored_subgraph(g: Graph, f: EdgeColoring, a: int, b: int):
    """Components of G_f(a, b), each a path or an even cycle."""
    if a == b:
        raise EqualColors(f"colors must differ, got {a} and {b}")
    for c in (a, b):
        if not (1 <= c <= f.t):
            raise ColorOutOfRange(f"color {c} not in 1..{f.t}")
    require_proper(g, f)
    from .kernels import backend

    colors = list(f.colors)
    ga = g.arrays()
    comps = []
    seen = [False] * g.m
    for eid in range(g.m):
        if seen[eid] or colors[eid] not in (a, b):
            continue
        edge_ids, verts, is_cycle = backend.trace_component(ga, colors, a, b, eid)
        for e in edge_ids:
            seen[e] = True
        comps.append(
            BicoloredComponent(
                vertices=tuple(verts),
                edge_ids=tuple(edge_ids),
                kind="cycle" if is_cycle else "path",
            )
        )
    return comps


def induced_subgraph(g: Graph, vertices: Iterable[int]):
    """Subgraph induced by a vertex set.

    Returns (subgraph, vertex_embedding, edge_embedding): embeddings map the
    subgraph's vertex ids / edge ids back to g's.
    """
    keep = sorted(set(vertices))
    index = {v: i + 1 for i, v in enumerate(keep)}
    sub_edges = []
    edge_embed = []
    for eid, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            sub_edges.append((index[u], index[v]))
            edge_embed.append(eid)
    return Graph(len(keep), sub_edges), keep, edge_embed


def induced_high_degree_subgraph(g: Graph, threshold: int):
    """Subgraph induced by vertices of degree >= threshold, plus embedding."""
    if threshold < 1:
        raise GraphInvariantError("threshold must be >= 1")
    verts = [v for v in range(1, g.n + 1) if g.degree(v) >= threshold]
    sub, vmap, _ = induced_subgraph(g, verts)
    return sub, vmap


def delete_edges(g: Graph, edge_ids: Iterable[int]):
    """Same vertex set, given edges removed.  Returns (graph, edge_embedding)."""
    drop = set(edge_ids)
    for eid in drop:
        check_edge_id(g, eid)
    kept = [eid for eid in range(g.m) if eid not in drop]
    return Graph(g.n, [g.edges[eid] for eid in kept]), kept


def is_acyclic(g: Graph) -> bool:
    """Forest test via union-find."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# ---------------------------------------------------------------------------
# File formats (UTF-8, LF line endings, single-space separated fields).
# Graph:     optional `c ...` comments, one `p edge <n> <m>` header, then
#            exactly m lines `e <u> <v>` with 1 <= u < v <= n.
# Coloring:  header `t <k>`, then one `e <u> <v> <c>` line per edge of the
#            graph, each edge exactly once, 1 <= c <= k.
# ---------------------------------------------------------------------------


def parse_int_fields(fields, ln: int) -> list:
    """The integer values of a record's fields, or FormatError naming the line."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise FormatError(
            f"line {ln}: expected integer fields, got {' '.join(fields)!r}"
        ) from None


def parse_graph(text: str) -> Graph:
    n = m = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {ln}: duplicate header")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {ln}: expected 'p edge <n> <m>'")
            n, m = parse_int_fields(parts[2:], ln)
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {ln}: edge before header")
            if len(parts) != 3:
                raise FormatError(f"line {ln}: expected 'e <u> <v>'")
            u, v = parse_int_fields(parts[1:], ln)
            if not u < v:
                raise FormatError(f"line {ln}: edges must satisfy u < v")
            edges.append((u, v))
        else:
            raise FormatError(f"line {ln}: unknown record '{parts[0]}'")
    if n is None:
        raise FormatError("missing 'p edge' header")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except GraphInvariantError as exc:
        raise FormatError(str(exc)) from exc


def format_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, g: Graph) -> EdgeColoring:
    t = None
    colors = [0] * g.m
    filled = [False] * g.m
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "t":
            if t is not None:
                raise FormatError(f"line {ln}: duplicate palette header")
            if len(parts) != 2:
                raise FormatError(f"line {ln}: expected 't <k>'")
            (t,) = parse_int_fields(parts[1:], ln)
        elif parts[0] == "e":
            if t is None:
                raise FormatError(f"line {ln}: edge record before palette header")
            if len(parts) != 4:
                raise FormatError(f"line {ln}: expected 'e <u> <v> <c>'")
            u, v, c = parse_int_fields(parts[1:], ln)
            eid = g.edge_id(u, v)
            if eid is None:
                raise FormatError(f"line {ln}: ({u},{v}) is not an edge of the graph")
            if filled[eid]:
                raise FormatError(f"line {ln}: edge ({u},{v}) colored twice")
            if not (1 <= c <= t):
                raise FormatError(f"line {ln}: color {c} not in 1..{t}")
            colors[eid] = c
            filled[eid] = True
        else:
            raise FormatError(f"line {ln}: unknown record '{parts[0]}'")
    if t is None:
        raise FormatError("missing 't <k>' header")
    if not all(filled):
        missing = filled.index(False)
        u, v = g.edges[missing]
        raise FormatError(f"edge ({u},{v}) has no color")
    return EdgeColoring(t, colors)


def format_coloring(g: Graph, f: EdgeColoring) -> str:
    """Canonical form: edges in graph id order."""
    _check_total(g, f)
    lines = [f"t {f.t}"]
    lines.extend(
        f"e {u} {v} {f.colors[eid]}" for eid, (u, v) in enumerate(g.edges)
    )
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_graph(g))


def read_coloring(path, g: Graph) -> EdgeColoring:
    with open(path, encoding="utf-8") as fh:
        return parse_coloring(fh.read(), g)


def write_coloring(path, g: Graph, f: EdgeColoring) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_coloring(g, f))
