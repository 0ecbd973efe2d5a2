"""Primitive moves: interchanges, fans, downshifts, transcripts.

A transcript certifies a transformation: it can be replayed move by move with
:func:`apply_transcript`, which re-checks every precondition instead of
trusting the producer.

:class:`Recorder` is the one mutable coloring state of the transforms: it
traces a two-colored component, swaps it and records the move.  Every swap
goes through ``backend.swap_component`` and every trace through
``backend.trace_component``.  :func:`extend_fan` is the one fan engine,
shared by :func:`grow_fan` and the palette reductions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    EdgeNotIncident,
    EqualColors,
    FormatError,
    InternalInvariantError,
    InvalidMoveAtIndex,
    NotProper,
    NotSaturated,
    RepEdgeNotBicolored,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    check_edge_id,
    palette_at,
    parse_int_fields,
    require_proper,
)
from .kernels import backend


@dataclass(frozen=True)
class KempeMove:
    """One interchange: swap colors a, b on the component containing rep_edge."""

    a: int
    b: int
    rep_edge: int

    def __post_init__(self):
        if self.a == self.b:
            raise EqualColors(f"move colors must differ, got {self.a}")


@dataclass
class Transcript:
    """Ordered move sequence with optional per-move case annotations."""

    moves: list = field(default_factory=list)
    annotations: list = field(default_factory=list)

    def __post_init__(self):
        if not self.annotations:
            self.annotations = [None] * len(self.moves)
        if len(self.annotations) != len(self.moves):
            raise FormatError("annotation list length differs from move list")

    def append(self, move: KempeMove, annotation: Optional[str] = None):
        self.moves.append(move)
        self.annotations.append(annotation)

    def extend(self, other: "Transcript"):
        self.moves.extend(other.moves)
        self.annotations.extend(other.annotations)

    def reversed(self) -> "Transcript":
        """Undo transcript: same moves in reverse order (interchange is an involution)."""
        return Transcript(list(reversed(self.moves)), list(reversed(self.annotations)))

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __eq__(self, other):
        return isinstance(other, Transcript) and self.moves == other.moves


@dataclass(frozen=True)
class Fan:
    """Ordered edge sequence at a pivot; each later edge's color is missing
    at the previous leaf."""

    pivot: int
    edges: tuple
    associated: tuple  # colors of edges[1:], associated with the previous leaf

    def leaves(self, g: Graph) -> tuple:
        return tuple(g.other_end(e, self.pivot) for e in self.edges)


def interchange(g: Graph, f: EdgeColoring, mv: KempeMove) -> EdgeColoring:
    """Swap colors a, b on the component of G_f(a,b) containing rep_edge."""
    check_edge_id(g, mv.rep_edge)
    require_proper(g, f)
    for c in (mv.a, mv.b):
        if not (1 <= c <= f.t):
            raise RepEdgeNotBicolored(f"color {c} outside palette 1..{f.t}")
    if f.colors[mv.rep_edge] not in (mv.a, mv.b):
        raise RepEdgeNotBicolored(
            f"edge {mv.rep_edge} colored {f.colors[mv.rep_edge]}, move is ({mv.a},{mv.b})"
        )
    colors = list(f.colors)
    edge_ids, _, _ = backend.trace_component(g.arrays(), colors, mv.a, mv.b, mv.rep_edge)
    backend.swap_component(colors, edge_ids, mv.a, mv.b)
    return EdgeColoring(f.t, colors)


def involution_check(g: Graph, f: EdgeColoring, mv: KempeMove) -> bool:
    """Applying the same move twice must restore the coloring."""
    return interchange(g, interchange(g, f, mv), mv) == f


def extend_fan(g: Graph, colors, pivot: int, first_edge: int, allowed, stop_colors):
    """The fan engine: grow a fan at `pivot` starting with `first_edge`.

    Extension rule: among unused edges at the pivot whose color lies in
    `allowed` and is missing at the current last leaf, take the lowest edge
    id (determinism of emitted transcripts depends on this tie-break).
    Growth stops at a maximal fan, or as soon as a color of `stop_colors` is
    missing at the current leaf.  Returns (fan, the least such color or None).
    """
    edges = [first_edge]
    used = {first_edge}
    leaf = g.other_end(first_edge, pivot)
    associated = []
    while True:
        leaf_pal = frozenset(colors[eid] for _, eid in g.adj[leaf])
        free = [c for c in stop_colors if c not in leaf_pal]
        if free:
            return Fan(pivot, tuple(edges), tuple(associated)), min(free)
        cand = [
            eid
            for _, eid in g.adj[pivot]
            if eid not in used
            and colors[eid] in allowed
            and colors[eid] not in leaf_pal
        ]
        if not cand:
            return Fan(pivot, tuple(edges), tuple(associated)), None
        nxt = min(cand)
        edges.append(nxt)
        used.add(nxt)
        associated.append(colors[nxt])
        leaf = g.other_end(nxt, pivot)


def grow_fan(g: Graph, f: EdgeColoring, pivot: int, first_edge: int) -> Fan:
    """Maximal fan at `pivot` starting with `first_edge` (see :func:`extend_fan`)."""
    check_edge_id(g, first_edge)
    require_proper(g, f)
    if pivot not in g.edges[first_edge]:
        raise EdgeNotIncident(f"edge {first_edge} not incident to vertex {pivot}")
    return extend_fan(g, f.colors, pivot, first_edge, range(1, f.t + 1), ())[0]


def check_fan(g: Graph, f: EdgeColoring, fan: Fan) -> None:
    """Validate the fan property against a coloring (raises on violation)."""
    if len(set(fan.edges)) != len(fan.edges):
        raise InternalInvariantError("fan edges not distinct")
    leaf = None
    for i, eid in enumerate(fan.edges):
        check_edge_id(g, eid)
        if fan.pivot not in g.edges[eid]:
            raise EdgeNotIncident(f"fan edge {eid} not at pivot {fan.pivot}")
        if i > 0 and f.colors[eid] in palette_at(g, f, leaf):
            raise InternalInvariantError(
                f"fan edge {eid} color {f.colors[eid]} appears at previous leaf {leaf}"
            )
        leaf = g.other_end(eid, fan.pivot)


def downshift(g: Graph, f: EdgeColoring, fan: Fan, free_color: int):
    """Rotate fan colors: last edge takes `free_color`, each earlier edge takes
    its successor's color.

    Returns (coloring, transcript).  The transcript is the expansion into
    single-edge interchanges (recolor the last edge, then shift backwards);
    each expanded move's bicolored component is exactly the edge itself, which
    is asserted.
    """
    require_proper(g, f)
    check_fan(g, f, fan)
    last_leaf = g.other_end(fan.edges[-1], fan.pivot)
    if free_color in palette_at(g, f, fan.pivot) or free_color in palette_at(
        g, f, last_leaf
    ):
        raise NotSaturated(
            f"color {free_color} appears at pivot {fan.pivot} or leaf {last_leaf}"
        )
    rec = Recorder(g, f)
    rec.downshift(fan.edges, free_color, "downshift")
    return rec.coloring(), rec.tr


def apply_transcript(
    g: Graph, f: EdgeColoring, tr: Transcript, check: bool = True
) -> EdgeColoring:
    """Replay a transcript.  Fails atomically on the first invalid move.

    The starting coloring is always checked in full.  With check=True
    (verification mode) each move is then checked at the endpoints of the
    edges it recolored: no two edges at such a vertex may share a color.
    That is as strong as a full properness check after every move, because
    the coloring before the move was proper and any new clash involves a
    recolored edge.  The endpoints come from the graph, not from the
    kernel's vertex list, so a faulty kernel cannot hide a clash.
    """
    require_proper(g, f, "starting coloring")
    colors = list(f.colors)
    ga = g.arrays()
    for i, mv in enumerate(tr.moves):
        if not (1 <= mv.a <= f.t and 1 <= mv.b <= f.t):
            raise InvalidMoveAtIndex(i, f"colors ({mv.a},{mv.b}) outside palette")
        if not (0 <= mv.rep_edge < g.m):
            raise InvalidMoveAtIndex(i, f"edge {mv.rep_edge} out of range")
        if colors[mv.rep_edge] not in (mv.a, mv.b):
            raise InvalidMoveAtIndex(
                i,
                f"edge {mv.rep_edge} colored {colors[mv.rep_edge]}, move is ({mv.a},{mv.b})",
            )
        edge_ids, _, _ = backend.trace_component(ga, colors, mv.a, mv.b, mv.rep_edge)
        backend.swap_component(colors, edge_ids, mv.a, mv.b)
        if check:
            clash = _clash_at_endpoints(ga, colors, edge_ids)
            if clash is not None:
                v, c, e1, e2 = clash
                raise InvalidMoveAtIndex(
                    i,
                    f"intermediate coloring not proper at vertex {v}: "
                    f"color {c} on edges {e1} and {e2}",
                )
    return EdgeColoring(f.t, colors)


def _clash_at_endpoints(ga, colors, edge_ids):
    """First (vertex, color, edge, edge) where two edges at an endpoint of
    an edge in `edge_ids` share a color, or None."""
    done = set()
    for e in edge_ids:
        for v in (ga.edge_u[e], ga.edge_v[e]):
            if v in done:
                continue
            done.add(v)
            seen = {}
            for k in range(ga.adj_start[v], ga.adj_start[v + 1]):
                e2 = ga.adj_eid[k]
                c = colors[e2]
                if c in seen:
                    return v, c, seen[c], e2
                seen[c] = e2
    return None


# ---------------------------------------------------------------------------
# Transcript file format: `# ...` comments; move lines `K <a> <b> <u> <v>`
# where (u, v) identifies rep_edge with u < v; optional annotation after a
# tab character.
# ---------------------------------------------------------------------------


def parse_transcript(text: str, g: Graph) -> Transcript:
    tr = Transcript()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        body, _, note = line.partition("\t")
        parts = body.split()
        if len(parts) != 5 or parts[0] != "K":
            raise FormatError(f"line {ln}: expected 'K <a> <b> <u> <v>'")
        a, b, u, v = parse_int_fields(parts[1:], ln)
        eid = g.edge_id(u, v)
        if eid is None:
            raise FormatError(f"line {ln}: ({u},{v}) is not an edge of the graph")
        tr.append(KempeMove(a, b, eid), note if note else None)
    return tr


def format_transcript(g: Graph, tr: Transcript) -> str:
    lines = []
    for mv, note in zip(tr.moves, tr.annotations):
        u, v = g.edges[mv.rep_edge]
        line = f"K {mv.a} {mv.b} {u} {v}"
        if note:
            line += f"\t{note}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def read_transcript(path, g: Graph) -> Transcript:
    with open(path, encoding="utf-8") as fh:
        return parse_transcript(fh.read(), g)


def write_transcript(path, g: Graph, tr: Transcript) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_transcript(g, tr))


class Recorder:
    """The mutable working coloring of a transform and its transcript.

    Its three jobs: trace a two-colored component, swap it, and record the
    move.  Moves applied here skip the full properness re-validation (the
    structural argument keeps intermediates proper); the emitted transcript
    is meant to be re-verified through apply_transcript.
    """

    __slots__ = ("g", "ga", "colors", "t", "tr")

    def __init__(self, g: Graph, f: EdgeColoring):
        self.g = g
        self.ga = g.arrays()
        self.colors = list(f.colors)
        self.t = f.t
        self.tr = Transcript()

    def coloring(self) -> EdgeColoring:
        return EdgeColoring(self.t, self.colors)

    def palette(self, v: int) -> frozenset:
        return frozenset(
            self.colors[eid] for _, eid in self.g.adj[v]
        )

    def edge_with_color(self, v: int, c: int) -> int:
        for _, eid in self.g.adj[v]:
            if self.colors[eid] == c:
                return eid
        return -1

    def component(self, a: int, b: int, rep_edge: int):
        return backend.trace_component(self.ga, self.colors, a, b, rep_edge)

    def apply(self, a: int, b: int, rep_edge: int, note: Optional[str] = None):
        """Interchange on the (a,b)-component of rep_edge; returns its
        (edge ids, vertices, is_cycle)."""
        if self.colors[rep_edge] not in (a, b):
            raise InternalInvariantError(
                f"rep edge {rep_edge} colored {self.colors[rep_edge]}, move ({a},{b})"
            )
        edge_ids, verts, is_cycle = self.component(a, b, rep_edge)
        backend.swap_component(self.colors, edge_ids, a, b)
        self.tr.append(KempeMove(a, b, rep_edge), note)
        return edge_ids, verts, is_cycle

    def recolor_edge(self, eid: int, new_color: int, note: Optional[str] = None):
        """Interchange whose component must be exactly {eid} (asserted)."""
        old = self.colors[eid]
        if old == new_color:
            raise InternalInvariantError(f"edge {eid} already colored {new_color}")
        edge_ids, _, _ = self.component(old, new_color, eid)
        if edge_ids != [eid]:
            raise InternalInvariantError(
                f"{note}: single-edge recolor of {eid} hit component {edge_ids}"
            )
        self.colors[eid] = new_color
        self.tr.append(KempeMove(old, new_color, eid), note)

    def downshift(self, fan_edges, free_color: int, note: Optional[str] = None):
        """Fan rotation as single-edge interchanges: the last edge takes
        `free_color`, each earlier edge its successor's color."""
        target = free_color
        for eid in reversed(fan_edges):
            old = self.colors[eid]
            self.recolor_edge(eid, target, note)
            target = old

    def check_proper(self, where: str = "") -> None:
        if not backend.is_proper(self.ga, self.colors):
            raise NotProper(f"internal coloring not proper {where}")
