"""Primitive moves: interchanges, fans, downshifts, transcripts.

A transcript certifies a transformation: it can be replayed move by move with
:func:`apply_transcript`, which re-checks every precondition instead of
trusting the producer.

:class:`Recorder` is the one mutable coloring state of the transforms: it
reads a two-colored component, swaps it and records the move.  It keeps
each vertex's colors as a bitmask, built and checked by
:func:`~kempe_edge.graph_core.proper_masks`, so a transform that starts
from a Recorder needs no entry check of its own; its final self-check,
:meth:`Recorder.check_proper`, runs the set-based properness kernel, which
shares no code with the masks.  Every producer moves through it:
:meth:`Recorder.component_edges` reads a component as a bare edge set, a
single edge straight from the masks when the other color is missing at
both its ends, and :meth:`Recorder.swap`, the one change hook, swaps it
and keeps the masks current; a subclass observes moves there alone.
Moves, :func:`interchange`, the search index and transcript projection
all read and swap this way.  Only probes, the callers that read a path,
go through the ordered ``backend.trace_component``:
:meth:`Recorder.path_from` reads "the (a, b)-path that starts at v", the
Kempe chain the lemmas reason about, from one of its ends.
:func:`apply_transcript`, the certifier, keeps its own replay loop over its
own color list, with the same single-edge rule.  :func:`extend_fan` is the
one fan engine, shared by :func:`grow_fan` and the palette reductions; it
reads every palette from the masks and allocates only as the fan grows.
Moves (:class:`KempeMove`) and fans (:class:`Fan`) are immutable tuples,
so building one is one tuple allocation, and replay unpacks each move
instead of reading its fields.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import (
    ColorOutOfRange,
    EdgeNotIncident,
    EdgeOutOfRange,
    EqualColors,
    FormatError,
    GraphInvariantError,
    InternalInvariantError,
    InvalidMoveAtIndex,
    NotSaturated,
    PreconditionViolated,
    RepEdgeNotBicolored,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    check_edge_id,
    parse_int_fields,
    proper_masks,
    read_text,
    split_record,
)
from .kernels import backend

_tuple_new = tuple.__new__


class KempeMove(namedtuple("KempeMove", "a b rep_edge")):
    """One interchange: swap colors a, b on the component containing rep_edge.

    An immutable tuple (a, b, rep_edge): it compares and hashes as that
    plain tuple and unpacks in field order."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, rep_edge: int):
        if a == b:
            raise EqualColors(f"move colors must differ, got {a}")
        return _tuple_new(cls, (a, b, rep_edge))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: keep the colors-differ check there
        return cls(*iterable)


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


class Fan(NamedTuple):
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
    rec = Recorder(g, f)
    for c in (mv.a, mv.b):
        if not (1 <= c <= f.t):
            raise RepEdgeNotBicolored(f"color {c} outside palette 1..{f.t}")
    if f.colors[mv.rep_edge] not in (mv.a, mv.b):
        raise RepEdgeNotBicolored(
            f"edge {mv.rep_edge} colored {f.colors[mv.rep_edge]}, move is ({mv.a},{mv.b})"
        )
    rec.apply(*mv)
    return rec.coloring()


def involution_check(g: Graph, f: EdgeColoring, mv: KempeMove) -> bool:
    """Applying the same move twice must restore the coloring."""
    return interchange(g, interchange(g, f, mv), mv) == f


def palette_bits(k: int) -> int:
    """The colors 1..k as a bitmask."""
    return (1 << (k + 1)) - 2


def least_color(bits: int) -> int:
    """The least color of a nonempty bitmask color set."""
    return (bits & -bits).bit_length() - 1


def extend_fan(g: Graph, colors, mask, pivot: int, first_edge: int, allowed: int, stop: int):
    """The fan engine: grow a fan at `pivot` starting with `first_edge`.

    `mask` holds each vertex's colors as bits (:func:`proper_masks`);
    `allowed` and `stop` are color sets as bitmasks.  Extension rule: among
    unused edges at the pivot whose color lies in `allowed` and is missing
    at the current last leaf, take the lowest edge id (determinism of
    emitted transcripts depends on this tie-break).  Growth stops at a
    maximal fan, or as soon as a color of `stop` is missing at the current
    leaf.  Returns (fan, the least such color or None).

    It allocates only as the fan grows: a fan has at most Delta edges, so
    "unused" is a scan of its own edge list, and each later leaf is the
    neighbor of the pivot's adjacency pair.
    """
    edges = [first_edge]
    associated = []
    u, leaf = g.edges[first_edge]
    if leaf == pivot:
        leaf = u
    elif u != pivot:
        raise GraphInvariantError(f"vertex {pivot} not an endpoint of edge {first_edge}")
    adj = g.adj[pivot]
    while True:
        missing = ~mask[leaf]
        free = stop & missing
        if free:
            return Fan(pivot, tuple(edges), tuple(associated)), least_color(free)
        extend = allowed & missing
        for leaf, nxt in adj:  # ascending edge ids
            if extend >> colors[nxt] & 1 and nxt not in edges:
                break
        else:
            return Fan(pivot, tuple(edges), tuple(associated)), None
        edges.append(nxt)
        associated.append(colors[nxt])


def grow_fan(g: Graph, f: EdgeColoring, pivot: int, first_edge: int) -> Fan:
    """Maximal fan at `pivot` starting with `first_edge` (see :func:`extend_fan`)."""
    check_edge_id(g, first_edge)
    mask = proper_masks(g, f.colors, f.t)
    if pivot not in g.edges[first_edge]:
        raise EdgeNotIncident(f"edge {first_edge} not incident to vertex {pivot}")
    return extend_fan(g, f.colors, mask, pivot, first_edge, palette_bits(f.t), 0)[0]


def check_fan(g: Graph, f: EdgeColoring, mask, fan: Fan) -> None:
    """Validate a caller's fan against a coloring and its masks:
    EdgeOutOfRange, EdgeNotIncident or PreconditionViolated on a violation."""
    if not fan.edges:
        raise PreconditionViolated("fan has no edges")
    if len(set(fan.edges)) != len(fan.edges):
        raise PreconditionViolated("fan edges not distinct")
    leaf = None
    for i, eid in enumerate(fan.edges):
        check_edge_id(g, eid)
        if fan.pivot not in g.edges[eid]:
            raise EdgeNotIncident(f"fan edge {eid} not at pivot {fan.pivot}")
        if i > 0 and mask[leaf] >> f.colors[eid] & 1:
            raise PreconditionViolated(
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
    rec = Recorder(g, f)
    if not 1 <= free_color <= f.t:
        raise ColorOutOfRange(f"free color {free_color} not in 1..{f.t}")
    check_fan(g, f, rec.mask, fan)
    last_leaf = g.other_end(fan.edges[-1], fan.pivot)
    if (rec.mask[fan.pivot] | rec.mask[last_leaf]) >> free_color & 1:
        raise NotSaturated(
            f"color {free_color} appears at pivot {fan.pivot} or leaf {last_leaf}"
        )
    rec.downshift(fan.edges, free_color, "downshift")
    return rec.coloring(), rec.tr


def apply_transcript(
    g: Graph, f: EdgeColoring, tr: Transcript, check: bool = True
) -> EdgeColoring:
    """Replay a transcript.  Fails atomically on the first invalid move.

    The starting coloring is always checked in full, by the pass that
    builds each vertex's colors as a bitmask (:func:`proper_masks`), which
    the replay then keeps.  A move whose other color is at neither end of
    its rep edge recolors that edge alone and traces nothing; any other move swaps the edge set of
    ``backend.component_edges``.  With check=True (verification mode) each
    move is checked at both ends of every edge it recolored, in O(1) per
    end: no two edges at such a vertex may share a color.  That is as
    strong as a full properness check after every move, because the
    coloring before the move was proper and any new clash involves a
    recolored edge.  The endpoints come from the graph, not from the
    kernel's vertex list, so a faulty kernel cannot hide a clash; an edge
    set that lists an edge twice is rejected too.
    """
    return EdgeColoring(f.t, _replay(g, list(f.colors), f.t, tr, check))


def _replay(g: Graph, colors: list, t: int, tr: Transcript, check: bool) -> list:
    """The replay loop of :func:`apply_transcript`, on `colors` (palette
    1..t) in place, which it first checks as the starting coloring;
    returns `colors`.

    `mask` is exact while `exact` holds: each vertex's bits are the colors
    at it, one edge each.  A recolored edge first clears its old bit at
    both ends, then sets its new one; a bit already set means two edges
    there now share that color.  With check=False such a move is let
    through, and since the masks no longer answer "which component is
    this", every later move goes through the kernel.
    """
    edges, m = g.edges, g.m
    mask = proper_masks(g, colors, t, "starting coloring")
    exact = True
    for i, (a, b, rep) in enumerate(tr.moves):
        if not (1 <= a <= t and 1 <= b <= t):
            raise InvalidMoveAtIndex(i, f"colors ({a},{b}) outside palette")
        if not (0 <= rep < m):
            raise InvalidMoveAtIndex(i, f"edge {rep} out of range")
        c = colors[rep]
        if c != a and c != b:
            raise InvalidMoveAtIndex(i, f"edge {rep} colored {c}, move is ({a},{b})")
        other = b if c == a else a
        u, v = edges[rep]
        if exact and not (mask[u] | mask[v]) >> other & 1:
            # the component is rep alone, and `other` is free at both ends
            flip = 1 << c | 1 << other
            mask[u] ^= flip
            mask[v] ^= flip
            colors[rep] = other
            continue
        edge_ids = backend.component_edges(g, colors, a, b, rep)
        for e in edge_ids:
            c = colors[e]
            u, v = edges[e]
            off = ~(1 << c)
            mask[u] &= off
            mask[v] &= off
            colors[e] = b if c == a else a
        if not exact:
            continue
        for e in edge_ids:
            bit = 1 << colors[e]
            u, v = edges[e]
            if (mask[u] | mask[v]) & bit:
                if check:
                    raise _clash_error(g, colors, edge_ids, i, e)
                exact = False
                break
            mask[u] |= bit
            mask[v] |= bit
    return colors


def _clash_error(g, colors, edge_ids, i: int, e: int) -> InvalidMoveAtIndex:
    """The error for move `i`, whose recolored edge `e` found its new color
    already set at an end.  With exact masks beforehand that is a real clash
    at an end of `edge_ids`, unless the edge set lists `e` twice."""
    clash = _clash_at_endpoints(g, colors, edge_ids)
    if clash is None:
        return InvalidMoveAtIndex(i, f"component edge set lists edge {e} twice")
    v, c, e1, e2 = clash
    return InvalidMoveAtIndex(
        i, f"intermediate coloring not proper at vertex {v}: color {c} on edges {e1} and {e2}"
    )


def _clash_at_endpoints(g, colors, edge_ids):
    """First (vertex, color, edge, edge) where two edges at an endpoint of
    an edge in `edge_ids` share a color, or None."""
    done = set()
    for e in edge_ids:
        for v in g.edges[e]:
            if v in done:
                continue
            done.add(v)
            seen = {}
            for _, e2 in g.adj[v]:
                c = colors[e2]
                if c in seen:
                    return v, c, seen[c], e2
                seen[c] = e2
    return None


# ---------------------------------------------------------------------------
# Transcript file format: `# ...` comments; move lines `K <a> <b> <u> <v>`
# (single-space separated) where (u, v) identifies rep_edge with u < v;
# optional annotation after a tab character.
# ---------------------------------------------------------------------------


def parse_transcript(text: str, g: Graph) -> Transcript:
    tr = Transcript()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        body, _, note = line.partition("\t")
        parts = split_record(body.strip(), ln)
        if len(parts) != 5 or parts[0] != "K":
            raise FormatError(f"line {ln}: expected 'K <a> <b> <u> <v>'")
        a, b, u, v = parse_int_fields(parts[1:], ln)
        eid = g.edge_id(u, v)
        if eid is None:
            raise FormatError(f"line {ln}: ({u},{v}) is not an edge of the graph")
        tr.append(KempeMove(a, b, eid), note if note else None)
    return tr


def format_transcript(g: Graph, tr: Transcript) -> str:
    """The transcript as text; EdgeOutOfRange (as :func:`check_edge_id`)
    at the first move whose rep edge is not an edge id of g."""
    edges, m = g.edges, g.m
    lines = []
    for (a, b, rep), note in zip(tr.moves, tr.annotations):
        if not 0 <= rep < m:
            raise EdgeOutOfRange(f"edge id {rep} not in 0..{m - 1}")
        u, v = edges[rep]
        lines.append(f"K {a} {b} {u} {v}\t{note}" if note else f"K {a} {b} {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_transcript(path, g: Graph) -> Transcript:
    return parse_transcript(read_text(path), g)


def write_transcript(path, g: Graph, tr: Transcript) -> None:
    text = format_transcript(g, tr)  # a bad move writes no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class Recorder:
    """The mutable working coloring of a transform and its transcript.

    Its three jobs: read a two-colored component, swap it, and record the
    move.  It is built from a checked coloring: the pass that builds its
    masks (:func:`~kempe_edge.graph_core.proper_masks`) is the transform's
    entry check, with `what` as the label.  Moves
    applied here skip the full properness re-validation (the structural
    argument keeps intermediates proper); the emitted transcript is meant
    to be re-verified through apply_transcript.

    `mask[v]` holds the colors at vertex v as bits (bit c set iff color c
    is on an edge at v), so a palette question is one int operation.
    Moves swap bare edge sets, read by :meth:`component_edges`.
    :meth:`swap` is the one change hook: every change of `colors` goes
    through it (:meth:`apply`, :meth:`recolor_edge`, the search index and
    the projection), so it keeps the masks current, and a subclass that
    keeps more state observes moves there alone: the case machine's
    recorder its phase-1 measures, the acyclic reduction's its top class.
    Only probes read an ordered path (:meth:`component`).
    """

    __slots__ = ("g", "colors", "t", "tr", "mask")

    def __init__(self, g: Graph, f: EdgeColoring, what: str = "coloring"):
        self.g = g
        self.colors = list(f.colors)
        self.t = f.t
        self.tr = Transcript()
        self.mask = proper_masks(g, self.colors, f.t, what)

    def coloring(self) -> EdgeColoring:
        return EdgeColoring(self.t, self.colors)

    def edge_with_color(self, v: int, c: int) -> int:
        for _, eid in self.g.adj[v]:
            if self.colors[eid] == c:
                return eid
        return -1

    def component(self, a: int, b: int, rep_edge: int):
        """The ordered trace of a probe: (edge ids, vertices, is_cycle)."""
        return backend.trace_component(self.g, self.colors, a, b, rep_edge)

    def component_edges(self, a: int, b: int, rep: int):
        """The edge ids of the (a,b)-component of `rep`, in no promised
        order: ``(rep,)`` when the other color is missing at both ends of
        `rep`, which the masks answer, else ``backend.component_edges``."""
        u, v = self.g.edges[rep]
        other = b if self.colors[rep] == a else a
        if (self.mask[u] | self.mask[v]) >> other & 1:
            return backend.component_edges(self.g, self.colors, a, b, rep)
        return (rep,)

    def path_from(self, v: int, a: int, b: int):
        """The (a,b)-path that starts at v, traced through v's a-colored
        edge: returns (that edge, the path's vertices from v to the far
        end).  No a-colored edge at v, a cycle, or a component with v inside
        it is an internal error: the caller's argument said v ends a path."""
        rep = self.edge_with_color(v, a)
        if rep < 0:
            raise InternalInvariantError(f"vertex {v} has no {a}-colored edge")
        _, verts, is_cycle = self.component(a, b, rep)
        if is_cycle:
            raise InternalInvariantError(f"({a},{b}) component at vertex {v} is a cycle")
        if verts[0] != v:
            verts = verts[::-1]
        if verts[0] != v:
            raise InternalInvariantError(f"vertex {v} does not end its ({a},{b}) path")
        return rep, verts

    def apply(self, a: int, b: int, rep_edge: int, note: Optional[str] = None):
        """Interchange on the (a,b)-component of rep_edge; returns the
        swapped edge ids."""
        if self.colors[rep_edge] not in (a, b):
            raise InternalInvariantError(
                f"rep edge {rep_edge} colored {self.colors[rep_edge]}, move ({a},{b})"
            )
        edge_ids = self.component_edges(a, b, rep_edge)
        self.swap(edge_ids, a, b)
        tr = self.tr
        tr.moves.append(KempeMove(a, b, rep_edge))
        tr.annotations.append(note)
        return edge_ids

    def swap(self, edge_ids, a: int, b: int) -> None:
        """Interchange a and b on the edges of one (a, b)-component, in
        place, keeping `mask` current.

        Each edge flips bits a and b at both ends.  A vertex inside the
        component has one a- and one b-edge of it, so its bits flip twice
        and stand; at a path end the bit moves from one color to the other,
        which the proper coloring leaves free there.
        """
        colors, mask, edges = self.colors, self.mask, self.g.edges
        flip = (1 << a) | (1 << b)
        for e in edge_ids:
            colors[e] = b if colors[e] == a else a
            u, v = edges[e]
            mask[u] ^= flip
            mask[v] ^= flip

    def recolor_edge(self, eid: int, new_color: int, note: Optional[str] = None):
        """Interchange whose component must be exactly {eid} (asserted): on
        a proper coloring, `new_color` must be missing at both ends."""
        old = self.colors[eid]
        if old == new_color:
            raise InternalInvariantError(f"edge {eid} already colored {new_color}")
        u, v = self.g.edges[eid]
        if (self.mask[u] | self.mask[v]) >> new_color & 1:
            raise InternalInvariantError(
                f"{note}: single-edge recolor of {eid} to {new_color}: "
                "the color is at an endpoint"
            )
        self.swap((eid,), old, new_color)
        tr = self.tr
        # the colors differ (checked above): build the move unchecked
        tr.moves.append(_tuple_new(KempeMove, (old, new_color, eid)))
        tr.annotations.append(note)

    def downshift(self, fan_edges, free_color: int, note: Optional[str] = None):
        """Fan rotation as single-edge interchanges: the last edge takes
        `free_color`, each earlier edge its successor's color."""
        target = free_color
        for eid in reversed(fan_edges):
            old = self.colors[eid]
            self.recolor_edge(eid, target, note)
            target = old

    def check_proper(self, where: str = "") -> None:
        """Final check of a transform whose input was already checked, so an
        improper coloring here is the package's fault, not the caller's."""
        if not backend.is_proper(self.g, self.colors):
            raise InternalInvariantError(f"internal coloring not proper {where}")
