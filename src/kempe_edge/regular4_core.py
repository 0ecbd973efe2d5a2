"""The 4-regular case machine: drive a proper 5-edge coloring onto a given
proper 4-edge coloring, one interchange at a time.

Phase 1 makes the color-1 class of the working coloring coincide with the
target's by repeatedly increasing the number of shared 1-edges; the case
analysis works inside a color frame (a palette permutation fixing color 1)
so the working edge always reads as color 2.  Narrative jumps between cases
become explicit re-dispatches on a new working edge; every claimed structural
fact is asserted at runtime, and every claim failure escapes through a move
sequence that re-enters the dispatch.  Case A's four length-4 endings are
one dispatch and A.2.3 has one ending.  B.2.3 has one ending over its two
sides.  An end side, whose fourth vertex ends the path, gets a (1,5) swap at
its second vertex after the flip and then color 1 on w3w4.  A pattern side
is named by its fourth vertex's palette, A = {1,2,3,4}, B = {1,2,3,5} or
C = {1,2,4,5}: B and C claim the (4,5)- or (3,5)-path from the third vertex
and swap it, w3w4 takes the side's color c, and after the flip the side
either finishes with the (1,c) swap on w3w4 or is handed back for
re-dispatch.  B.2.3.1 pairs an end side with a pattern side, B.2.3.2 two
pattern sides, the seven-edge path two end sides, and the six-cycle two A
sides sharing w3w4.  Every such path read from one end is traced by
`Recorder.path_from`.  After phase 1 color 1 is a perfect matching shared
with the target, so every (a, b)-component with a, b in 2..5 lies in the
cubic remainder; phase 2 runs the bounded search equalizer on the working
state itself over those four colors.

The one public entry is `theorem_4_1_transform`, which checks its inputs
once in `_checked_work`.  The lemma steps (the window analysis of Lemma 2.1,
Lemma 2.2's outcomes, Lemma 2.3's flip) are internal: they trust the checked
working state they are given.
"""
from __future__ import annotations

import heapq

from .errors import (
    InternalInvariantError,
    NotRegular4,
    PaletteMismatch,
)
from .graph_core import EdgeColoring, Graph, require_target4
from .kempe_engine import Recorder, Transcript

_A = frozenset({1, 2, 3, 4})
_B = frozenset({1, 2, 3, 5})
_C = frozenset({1, 2, 4, 5})
_JUMP_CAP = 64


class _Work(Recorder):
    """The case machine's recorder: moves are given in frame colors and
    recorded in real colors, and the target's color-1 class is kept for the
    phase-1 measures.

    The frame is a palette permutation fixing color 1, held as two lists:
    `to_real[c]` is the real color of frame color c and `to_frame` the
    inverse.  Fixing color 1, it reads 1-correctness the same in both views.

    The measures are kept current by :meth:`swap`, on every interchange
    that involves color 1: `h1_mask[e]` is 1 when the target colors e with
    1, `n_matched` counts those edges colored 1 now, and the heap `defects`
    holds every target 1-edge not colored 1, plus stale entries dropped
    when they surface.  h is read as given (zip stops at the shorter
    list): :func:`_checked_work` checks it after f.
    """

    __slots__ = ("h1_mask", "n_matched", "defects", "to_real", "to_frame")

    def __init__(self, g: Graph, f: EdgeColoring, h: EdgeColoring):
        super().__init__(g, f, "working coloring")
        self.h1_mask = bytearray(g.m)
        self.defects = []
        for e, (c, now) in enumerate(zip(h.colors, self.colors)):
            if c == 1:
                self.h1_mask[e] = 1
                if now != 1:
                    self.defects.append(e)  # ascending, so a heap
        self.n_matched = sum(self.h1_mask) - len(self.defects)
        self.reset_frame()

    # -- frame plumbing -----------------------------------------------------
    def reset_frame(self):
        self.to_real = list(range(self.t + 1))
        self.to_frame = list(range(self.t + 1))

    def compose(self, mapping: dict):
        """Apply a frame-to-frame relabeling on top of the current frame."""
        self.to_frame = [mapping.get(c, c) for c in self.to_frame]
        for real, c in enumerate(self.to_frame):
            self.to_real[c] = real

    def reframe_edge2(self, eid: int):
        """Compose a swap so the given edge reads as frame color 2."""
        c = self.view(eid)
        if c == 1:
            raise InternalInvariantError("working edge already colored 1")
        if c != 2:
            self.compose({c: 2, 2: c})

    def view(self, eid: int) -> int:
        return self.to_frame[self.colors[eid]]

    def vpal(self, v: int) -> frozenset:
        to_frame = self.to_frame
        return frozenset(to_frame[self.colors[eid]] for _, eid in self.g.adj[v])

    def edge_at(self, v: int, frame_color: int) -> int:
        return self.edge_with_color(v, self.to_real[frame_color])

    # -- moves (frame colors in, real colors recorded) ----------------------
    def path_from(self, v: int, a: int, b: int):
        to_real = self.to_real
        return super().path_from(v, to_real[a], to_real[b])

    def apply(self, a: int, b: int, rep: int, note: str):
        to_real = self.to_real
        return super().apply(to_real[a], to_real[b], rep, note)

    def apply_expect(self, a: int, b: int, rep: int, expect_verts: set, note: str):
        """:meth:`apply`, asserting the endpoint set of the swapped edges."""
        edges = self.g.edges
        verts = {v for e in self.apply(a, b, rep, note) for v in edges[e]}
        if verts != expect_verts:
            raise InternalInvariantError(
                f"{note}: expected component on {sorted(expect_verts)}, got {sorted(verts)}"
            )

    def recolor(self, eid: int, frame_color: int, note: str):
        """Single-edge interchange (component asserted to be the edge alone)."""
        self.recolor_edge(eid, self.to_real[frame_color], note)

    def swap(self, edge_ids, a: int, b: int) -> None:
        """:meth:`Recorder.swap` (real colors), keeping the measures: with
        color 1 in the pair, every edge of the component gained or lost it."""
        super().swap(edge_ids, a, b)
        if a == 1 or b == 1:
            h1, colors = self.h1_mask, self.colors
            for e in edge_ids:
                if h1[e]:
                    if colors[e] == 1:
                        self.n_matched += 1
                    else:
                        self.n_matched -= 1
                        heapq.heappush(self.defects, e)

    # -- measures ------------------------------------------------------------
    def matched(self) -> int:
        return self.n_matched

    def least_defect(self) -> int:
        """The least target 1-edge not colored 1, or -1 when none is left."""
        heap, colors = self.defects, self.colors
        while heap and colors[heap[0]] == 1:
            heapq.heappop(heap)
        return heap[0] if heap else -1

    def correct1(self, eid: int) -> bool:
        return self.colors[eid] == 1 and self.h1_mask[eid] == 1

    def has_color1(self, v: int) -> bool:
        return bool(self.mask[v] >> 1 & 1)


def _checked_work(g: Graph, f: EdgeColoring, h: EdgeColoring) -> _Work:
    """The working state on f, after checking the machine's inputs: a
    4-regular graph, a proper 5-coloring f and a proper 4-coloring target
    h."""
    if any(g.degree(v) != 4 for v in range(1, g.n + 1)):
        raise NotRegular4("graph is not 4-regular")
    if f.t != 5:
        raise PaletteMismatch(f"working coloring must use palette 5, got {f.t}")
    work = _Work(g, f, h)
    require_target4(g, h)
    return work


def _free_edge(work: _Work, path):
    """The first edge of the path with a color of {3,4,5} missing at both
    ends, as (edge, color), or None."""
    for pa, pb in zip(path, path[1:]):
        seen = work.vpal(pa) | work.vpal(pb)
        for c in (3, 4, 5):
            if c not in seen:
                return work.g.edge_id(pa, pb), c
    return None


def _window_holds(g: Graph, vpal, w1, w2, w3) -> bool:
    """Literal check of the window conditions on w1 w2 w3, with `vpal(v)`
    the palette at v: the three off-{1,2} palette pairs are pairwise
    distinct, and colors 3,4,5 all appear at the mid-vertex's off-path
    neighbors."""
    ex = {vpal(w) - {1, 2} for w in (w1, w2, w3)}
    if len(ex) != 3 or any(len(x) != 2 for x in ex):
        return False
    return all({3, 4, 5} <= vpal(y) for y, _ in g.adj[w2] if y not in (w1, w3))


def _sides(work: _Work, e: int):
    """The working (1,2)-component of e read away from e: the u side starts
    at the end of e met first along the component, the v side at the other;
    a cycle of n edges gives min(n, 7) vertices each way.  Returns
    (u side, v side, n, component edge ids, u side edges, v side edges),
    with n = 0 for a path; a side's i-th edge joins its vertices i, i+1."""
    # the frame fixes color 1
    eids, verts, cyc = work.component(1, work.to_real[2], e)
    s = eids.index(e)
    if not cyc:
        return verts[s::-1], verts[s + 1:], 0, eids, eids[:s][::-1], eids[s + 1:]
    n = len(eids)
    span = range(min(n, 7))
    return (
        [verts[(s - i) % n] for i in span],
        [verts[(s + 1 + i) % n] for i in span],
        n,
        eids,
        [eids[(s - 1 - i) % n] for i in span[:-1]],
        [eids[(s + 1 + i) % n] for i in span[:-1]],
    )


# ---------------------------------------------------------------------------
# Window machinery.  All functions below operate in the current frame of the
# given work state; "improved" returns (pair_edge, missing_color) after
# applying the preparatory {3,4,5}-path interchanges.
# ---------------------------------------------------------------------------


def _window_escape_or_certify(work: _Work, pv):
    """Length-4 window analysis on internal vertices v1,v2,v3 of pv.

    Either returns ("improved", pair_edge, color) with some color of {3,4,5}
    missing at both ends of a window edge (moves already applied, all on
    {3,4,5}-colored paths), or ("holds", x1, x2) with the frame composed so
    the window palettes are {1,2,3,5}, {1,2,4,5}, {1,2,3,4} and x1/x2 the
    5-/4-colored neighbors of the middle vertex.
    """
    g = work.g
    v1, v2, v3 = pv[1], pv[2], pv[3]
    e12 = g.edge_id(v1, v2)
    e23 = g.edge_id(v2, v3)
    free = _free_edge(work, pv[1:4])
    if free:
        return ("improved",) + free
    ex1 = work.vpal(v1) - {1, 2}
    ex2 = work.vpal(v2) - {1, 2}
    ex3 = work.vpal(v3) - {1, 2}
    if not (len(ex1) == len(ex2) == len(ex3) == 2):
        raise InternalInvariantError(
            "window vertices must carry colors 1,2 plus two others"
        )
    if ex1 == ex3:
        shared = ex1 & ex2
        if len(shared) != 1:
            raise InternalInvariantError("window union check missed a color")
        c = next(iter(shared))
        a = next(iter(ex1 - {c}))
        b = next(iter(ex2 - {c}))
        rep, path = work.path_from(v2, b, a)
        work.apply(a, b, rep, "win4-outer")
        return ("improved", e12 if path[-1] != v1 else e23, b)
    # condition (i) holds: canonicalize {3,4,5} so that the pattern becomes
    # v1 -> {1,2,3,5}, v2 -> {1,2,4,5}, v3 -> {1,2,3,4}
    m1 = next(iter({3, 4, 5} - ex1))
    m2 = next(iter({3, 4, 5} - ex2))
    m3 = next(iter({3, 4, 5} - ex3))
    work.compose({m1: 4, m2: 3, m3: 5})
    x1 = g.other_end(work.edge_at(v2, 5), v2)
    x2 = g.other_end(work.edge_at(v2, 4), v2)
    probes = ((v1, 4, e12, x1, e23, 5), (v3, 5, e23, x2, e12, 4))
    # condition (ii): x must see color 3
    for *_, x, e_x, c_x in probes:
        if 3 not in work.vpal(x):
            work.recolor(g.edge_id(v2, x), 3, "win4-probe")
            return ("improved", e_x, c_x)
    # the (3,d)-path from w must end at v2, and x must see color d
    for w, d, e_w, x, e_x, c_x in probes:
        rep, path = work.path_from(w, 3, d)
        if path[-1] != v2:
            work.apply(3, d, rep, "win4-probe")
            return ("improved", e_w, 3)
        if d not in work.vpal(x):
            work.apply(3, d, rep, "win4-probe")
            work.recolor(g.edge_id(v2, x), d, "win4-probe")
            return ("improved", e_x, c_x)
    return ("holds", x1, x2)


def _cut_window(work: _Work, pv, tag: str):
    """Window analysis on pv.  On an escape its pair edge is cut (recolored
    with the missing color) and None is returned; otherwise the settled
    window's (x1, x2)."""
    res = _window_escape_or_certify(work, pv)
    if res[0] == "improved":
        work.recolor(res[1], res[2], tag)
        return None
    return res[1], res[2]


def _window_b(work: _Work, pv):
    """Length-5 window: returns (pair_edge, color) with the color missing at
    both ends of a window edge (v1v2, v2v3 or v3v4)."""
    g = work.g
    res = _window_escape_or_certify(work, pv[:5])
    if res[0] == "improved":
        return res[1], res[2]
    v1, v2, v3, v4 = pv[1], pv[2], pv[3], pv[4]
    p4 = work.vpal(v4)
    if p4 == _A:
        return g.edge_id(v3, v4), 5
    if p4 == _B:
        # the certify step's first probe saw the (3,4)-path from v1 end at
        # v2, so read from v2 it ends at v1
        rep, path = work.path_from(v2, 4, 3)
        if path[-1] != v1:
            raise InternalInvariantError("(3,4) path from v2 does not end at v1")
        work.apply(3, 4, rep, "win5")
    elif p4 != _C:
        raise InternalInvariantError(
            f"unexpected palette {sorted(p4)} at the fourth vertex"
        )
    res = _window_escape_or_certify(work, pv[1:6])
    if res[0] != "improved":
        raise InternalInvariantError("shifted window must improve")
    return res[1], res[2]


def _lemma_2_2_inner(work: _Work, pv):
    """Window u1 v1 v2 v3 v4 with frame color 2 on u1v1 and target 1 there.

    Outcomes: ("III", pair_edge, color) -- window escape;
              ("II",)                   -- color 1 driven off v1, matched set intact;
              ("progress",)             -- matched count strictly increased;
              ("I", x1, x2)             -- palette certificate.
    """
    g = work.g
    u1, v1, v2, v3, v4 = pv
    res = _window_escape_or_certify(work, pv)
    if res[0] == "improved":
        return ("III", res[1], res[2])
    x1, x2 = res[1], res[2]
    if u1 == x2:
        raise InternalInvariantError("window analysis requires u1 != x2")
    before = work.matched()
    had1_u1 = work.has_color1(u1)
    if 1 not in work.vpal(x2):
        rep = g.edge_id(v1, v2)
        work.apply_expect(1, 4, rep, {v1, v2, x2}, "win-target")
        if work.matched() > before:
            return ("progress",)
    elif 2 not in work.vpal(x1):
        rep, path = work.path_from(x1, 3, 2)
        vset = set(path)
        e_x2 = g.edge_id(v2, x2)
        e_v1 = g.edge_id(v2, v1)
        if v3 not in vset and x2 not in vset:
            work.apply(2, 3, rep, "win-target")
            for eid, target in ((g.edge_id(v2, x1), 3), (g.edge_id(v2, v3), 5),
                                (e_x2, 2), (e_v1, 4)):
                work.recolor(eid, target, "win-target")
        else:
            # a path through v3 is swapped from x2's end instead
            work.apply(2, 3, work.edge_at(x2, 3) if v3 in vset else rep, "win-target")
            work.recolor(e_x2, 3, "win-target")
            work.recolor(e_v1, 4, "win-target")
    else:
        return ("I", x1, x2)
    if work.matched() != before or 1 in work.vpal(v1):
        raise InternalInvariantError("outcome II postcondition failed")
    if not had1_u1 and work.has_color1(u1):
        raise InternalInvariantError("outcome II leaked color 1 onto u1")
    return ("II",)


def _lemma_2_2_step(
    work: _Work, e: int, pv, tag: str, flip: bool, settled_ok: bool = False
):
    """Lemma 2.2 on the window pv of the working edge e, its outcome finished.

    A window escape (III) first cuts its pair edge (tagged `tag`).  Returns
    None once the matched count rose: on progress, or after III with
    `flip`, which then flips e's component.  Returns e to re-dispatch after
    outcome II, or after III without `flip`.  Settled palettes (I) return
    "I" when `settled_ok`, and are an internal error otherwise.
    """
    out = _lemma_2_2_inner(work, pv)
    if out[0] == "III":
        work.recolor(out[1], out[2], tag)
        return _lemma_2_3_inner(work, e) if flip else e
    if out[0] == "II":
        return e
    if out[0] == "progress":
        return None
    if not settled_ok:
        raise InternalInvariantError("outcome I contradicts the branch")
    return "I"


def _lemma_2_3_inner(work: _Work, xy: int):
    """Flip the working component so xy takes color 1, increasing matched().

    Precondition, met by every caller: no target-correct 1-edge within
    distance 2 of xy on its (1,2)-component.  Returns None: the matched
    count has risen.
    """
    work.reframe_edge2(xy)
    if not work.h1_mask[xy]:
        raise InternalInvariantError("working edge is not a target 1-edge")
    for _ in range(6):
        u_side, v_side, cyc, eids, u_edges, v_edges = _sides(work, xy)
        if not any(work.correct1(e) for e in eids):
            work.apply(1, 2, xy, "flip")
            return None
        for e in u_edges[:3] + v_edges[:3]:
            if work.correct1(e):
                raise InternalInvariantError(
                    f"correct 1-edge {e} within distance 2 of the working edge"
                )
        if cyc and cyc < 10:
            raise InternalInvariantError("short cycle cannot carry correct edges")
        # the window goes on the side with correct edges; with both (or on a
        # cycle) on the side whose first vertex is larger
        on_u = cyc or any(work.correct1(e) for e in u_edges)
        on_v = cyc or any(work.correct1(e) for e in v_edges)
        if on_u and on_v:
            on_v = v_side[0] > u_side[0]
        pverts = (v_side if on_v else u_side)[:6]
        if len(pverts) < 6:
            raise InternalInvariantError("correct edge on a short side")
        pair_edge, c = _window_b(work, pverts)
        if work.correct1(pair_edge):
            raise InternalInvariantError("window asked to cut a correct edge")
        work.recolor(pair_edge, c, "flip-cut")
    raise InternalInvariantError("working component did not clear in 6 rounds")


# ---------------------------------------------------------------------------
# Case A
# ---------------------------------------------------------------------------


def _case_A(work: _Work, e: int):
    """The working edge is adjacent to at most one 1-edge."""
    g = work.g
    a, b = g.edges[e]
    u1 = b if work.has_color1(a) else a
    if work.has_color1(u1):
        raise InternalInvariantError("case A dispatched with two adjacent 1-edges")
    # u1 misses color 1, so the component is a path ending at u1; P reads it
    # from u1 and pe[i] joins P[i] and P[i + 1]
    u_side, v_side, cyc, _, u_edges, v_edges = _sides(work, e)
    if cyc:
        raise InternalInvariantError("degree-1 endpoint on a cycle component")
    side, edges = (v_side, v_edges) if u_side[0] == u1 else (u_side, u_edges)
    P = [u1] + side
    pe = [e] + edges
    k = len(P) - 1
    if k <= 3 or not work.correct1(pe[3]):
        return _lemma_2_3_inner(work, e)
    xs = _cut_window(work, P[:5], "A.1")
    if xs is None:
        return _lemma_2_3_inner(work, e)
    x1, x2 = xs
    if k == 4:
        # v4 ends the path
        settled = work.vpal(x1) == {2, 3, 4, 5} and work.vpal(x2) == {1, 3, 4, 5}
        if u1 != x2 and not settled:
            # outcome II leaves u1v1 with no 1-edge at either end
            if _lemma_2_2_step(work, e, P[:5], "A.2.1", True) == e:
                work.recolor(e, 1, "A.2.1-II")
        elif u1 == x2 and 1 in work.vpal(x1):
            work.apply_expect(2, 5, g.edge_id(P[2], x1), {x1, P[2], P[3]}, "A.2.2")
            _lemma_2_3_inner(work, e)
        elif u1 == x1:
            work.apply(1, 2, e, "A.2.1-x1")
            work.apply_expect(2, 4, pe[1], {P[1], P[2], x2}, "A.2.1-x1")
            _lemma_2_3_inner(work, pe[3])
        else:
            work.apply(1, 2, e, "A.2.1")
            work.apply_expect(1, 5, g.edge_id(P[2], x1), {x1, P[2], P[3]}, "A.2.1")
            work.recolor(pe[3], 1, "A.2.1")
        return None
    # k >= 5: the fourth path vertex is internal
    _window_b(work, P[:6])
    free = _free_edge(work, P[1:4])
    if free:
        work.recolor(*free, "A.2.3-cut")
        return _lemma_2_3_inner(work, e)
    xs = _cut_window(work, P[:5], "A.2.3")
    if xs is None:
        return _lemma_2_3_inner(work, e)
    x1, x2 = xs
    if work.vpal(P[4]) != _A or 5 in work.vpal(P[3]) | work.vpal(P[4]):
        raise InternalInvariantError("length-5 window left no color-5 slack")
    e34 = pe[3]
    if u1 != x2:
        out = _lemma_2_2_step(work, e, P[:5], "A.2.3", True, settled_ok=True)
        if out == e:
            work.recolor(e, 1, "A.2.3-II")
        if out != "I":
            return None
    tag = "A.2.3-x2" if u1 == x2 else "A.2.3-I"
    work.recolor(e34, 5, tag)
    work.apply(1, 2, e, tag)
    if u1 == x1:
        # the mirrored window repeats the configuration with the frame
        # colors 2 and 5 exchanged
        return e34
    if u1 != x2 or 2 in work.vpal(x1):
        work.apply_expect(1, 5, e34, {P[4], P[3], P[2], x1}, tag)
        return None
    return _lemma_2_3_inner(work, e34)


# ---------------------------------------------------------------------------
# Case B
# ---------------------------------------------------------------------------


# B.2.3 side data by the palette of w4: the pattern letter and the color c
# that w3w4 takes before the flip; B and C first swap the (c,5)-path from w3
_PATTERN = {_A: ("A", 5), _B: ("B", 4), _C: ("C", 3)}


def _claim(work: _Work, e, W, Z, c):
    """Maximal (c,5)-path from w3, c = 4 or 3.  Structural claim: its far
    end is w1 for c = 4, where it also passes w2 and avoids z2, and w2 for
    c = 3.  On failure runs the documented escape on the window z1 w1..w4
    and returns ("jump", next working edge or None); on success returns
    ("ok", rep, path vertices) with nothing applied."""
    win = [Z[0], *W[:4]]
    rep, path = work.path_from(W[2], c, 5)
    vset = set(path)
    if path[-1] != (W[0] if c == 4 else W[1]):
        work.apply(c, 5, rep, "B.2.3-claim-esc")
        if _cut_window(work, win, "B.2.3-claim-esc") is not None:
            raise InternalInvariantError("claim escape found no window improvement")
        return ("jump", e)
    if c == 4 and W[1] not in vset:
        work.apply(4, 5, rep, "B.2.3-claim-esc")
        return ("jump", _lemma_2_2_step(work, e, win, "B.2.3-claim-esc", False))
    if c == 4 and Z[1] in vset:
        work.apply(4, 5, rep, "B.2.3-claim-esc")
        if len(work.apply(1, 4, work.g.edge_id(Z[0], Z[1]), "B.2.3-claim-esc")) != 2:
            raise InternalInvariantError("escape (1,4) path has unexpected shape")
        return ("jump", e)
    return ("ok", rep, vset)


def _case_B23(work: _Work, e, U, V, cycle_len):
    g = work.g
    uwin = [V[0], U[0], U[1], U[2], U[3]]
    vwin = [U[0], V[0], V[1], V[2], V[3]]
    # mold the u-side palettes onto the v-side pattern {3,5}, {4,5}, {3,4}
    target = [frozenset({3, 5}), frozenset({4, 5}), frozenset({3, 4})]
    mold = {
        (frozenset({3, 5}), frozenset({3, 4}), frozenset({4, 5})): (1, 3, 5, 3, 2),
        (frozenset({4, 5}), frozenset({3, 5}), frozenset({3, 4})): (0, 3, 4, 4, 1),
        (frozenset({4, 5}), frozenset({3, 4}), frozenset({3, 5})): (0, 3, 4, 4, 2),
        (frozenset({3, 4}), frozenset({3, 5}), frozenset({4, 5})): (0, 4, 5, 4, 1),
        (frozenset({3, 4}), frozenset({4, 5}), frozenset({3, 5})): (0, 4, 5, 4, 2),
    }
    for _ in range(3):
        ex = tuple(work.vpal(U[i]) - {1, 2} for i in range(3))
        if list(ex) == target:
            break
        if ex not in mold:
            raise InternalInvariantError(f"unexpected u-side palettes {ex}")
        origin_i, ca, cb, origin_color, expect_i = mold[ex]
        other = cb if origin_color == ca else ca
        rep, path = work.path_from(U[origin_i], origin_color, other)
        work.apply(ca, cb, rep, "B.2.3-mold")
        if path[-1] != U[expect_i]:
            if _cut_window(work, uwin, "B.2.3-mold-esc") is not None:
                raise InternalInvariantError("mold escape found no window improvement")
            return e
    else:
        raise InternalInvariantError("u-side molding did not converge")
    # re-derive the 5-neighbors of v2 and u2 after molding, then settle the
    # off-path palettes on the v side before the u side
    x1, y1 = (g.other_end(work.edge_at(w2, 5), w2) for w2 in (V[1], U[1]))
    for w2, z1, win in ((V[1], x1, vwin), (U[1], y1, uwin)):
        z2 = g.other_end(work.edge_at(w2, 4), w2)
        if work.vpal(z1) != {2, 3, 4, 5} or work.vpal(z2) != {1, 3, 4, 5}:
            return _lemma_2_2_step(work, e, win, "B.2.3", False)
    # B.2.3's ending.  Per side: W, the other side Z, w2's 5-neighbor z, the
    # w3w4 edge (one closing edge on a six-cycle) and whether w4 ends the path
    sides = [
        (W, Z, z, g.edge_id(W[2], W[3]), not cycle_len and len(W) == 4)
        for W, Z, z in ((U, V, y1), (V, U, x1))
    ]
    ends = [s for s in sides if s[4]]
    if len(ends) < 2:
        # both distance-2 edges must be correct, the v side's checked first;
        # one on a long side is corrected through its length-5 window
        for W, Z, _, e34, end in sides[::-1]:
            if not work.correct1(e34):
                if end or cycle_len == 6:
                    raise InternalInvariantError(
                        "dispatch sent an uncorrectable distance-2 edge to B.2.3"
                    )
                pair, c = _window_b(work, [Z[0]] + list(W[:5]))
                work.recolor(pair, c, "B.2.3-45")
                return e
    # a pattern side is named by w4's palette; an interior path vertex
    # carries 1, 2 and two of 3, 4, 5, so it is A, B or C
    pats = []
    for W, Z, z, e34, end in sides:
        if not end:
            pal = work.vpal(W[3])
            if pal not in _PATTERN:
                raise InternalInvariantError(f"unhandled palette {sorted(pal)} at w4")
            pats.append((*_PATTERN[pal], e34, W, Z, z))
    pats.sort(key=lambda p: p[0])
    if cycle_len == 6:
        tag = "B.2.3-c6"
    elif ends:
        tag = "B.2.3-p7" if len(ends) == 2 else "B.2.3.1"
    else:
        tag = f"B.2.3.2-{pats[0][0]}{pats[1][0]}"
    # each pattern side with c != 5 claims its (c,5)-path from w3 and swaps
    # it; equal patterns claim both paths before swapping either
    equal = len(pats) == 2 and pats[0][1] == pats[1][1]
    claims = []
    for _, c, _, W, Z, _ in pats:
        if c == 5:
            continue
        res = _claim(work, e, W, Z, c)
        if res[0] != "ok":
            return res[1]
        if equal:
            claims.append(res)
        else:
            work.apply(c, 5, res[1], tag)
    if len(claims) == 2 and claims[0][2] & claims[1][2]:
        raise InternalInvariantError(f"the two ({pats[0][1]},5) paths are not disjoint")
    for res in claims:
        work.apply(pats[0][1], 5, res[1], tag)
    # the pattern side beside an end side is handed back for re-dispatch, as
    # is the B side of mixed patterns (the C side in AC); the others finish
    if ends:
        done, rest = [], pats
    elif equal:
        done, rest = pats, []
    else:
        i = int(pats[0][0] == "A")
        done, rest = [pats[1 - i]], [pats[i]]
    # w3w4 edge -> (c, its (1,c)-component after the flip); on a six-cycle
    # both sides finish with one swap
    finish = {}
    for _, c, e34, W, _, z in done:
        finish.setdefault(e34, (c, set()))[1].update((W[3], W[2], W[1], z))
    for e34, (c, _) in finish.items():
        work.recolor(e34, c, tag)
    for _, c, e34, *_ in rest:
        work.recolor(e34, c, tag)
    work.apply(1, 2, e, tag)
    for W, _, z, _, _ in ends:
        work.apply_expect(1, 5, g.edge_id(W[1], z), {W[2], W[1], z}, tag)
    for *_, e34, _ in ends:
        work.recolor(e34, 1, tag)
    for e34, (c, verts) in finish.items():
        work.apply_expect(1, c, e34, verts, tag)
    return rest[0][2] if rest else None


def _case_B(work: _Work, e: int):
    u_ext, v_ext, cycle_len, _, u_edges, v_edges = _sides(work, e)
    # the distance-2 edges (on a six-cycle both name the closing edge)
    c_u = len(u_edges) >= 3 and work.correct1(u_edges[2])
    c_v = len(v_edges) >= 3 and work.correct1(v_edges[2])
    if not (c_u or c_v):
        return _lemma_2_3_inner(work, e)
    if not cycle_len:
        has_u = any(work.correct1(x) for x in u_edges)
        has_v = any(work.correct1(x) for x in v_edges)
        if c_v and not has_u:
            return _case_B1(work, e, u_ext, v_ext)
        if c_u and not has_v:
            return _case_B1(work, e, v_ext, u_ext)
        # both sides reach length >= 4 here (short sides cannot hold corrects)
    if _cut_window(work, [u_ext[0]] + v_ext[:4], "B.2.1") is None:
        return e
    if not _window_holds(work.g, work.vpal, *u_ext[:3]):
        if _cut_window(work, [v_ext[0]] + u_ext[:4], "B.2.2") is not None:
            raise InternalInvariantError("failed window conditions must improve")
        return e
    return _case_B23(work, e, u_ext, v_ext, cycle_len)


def _case_B1(work: _Work, e, u_side, v_side):
    """Short or correct-free side on the left, the correct distance-2 edge on
    the right (v3v4)."""
    g = work.g
    u1 = u_side[0]
    pv = [u1] + list(v_side[:4])
    xs = _cut_window(work, pv, "B.1")
    if xs is None:
        return _lemma_2_3_inner(work, e)
    x1, x2 = xs
    if u1 in (x1, x2):
        raise InternalInvariantError("path-interior endpoint collides with x1/x2")
    if work.vpal(x1) != {2, 3, 4, 5}:
        return _lemma_2_2_step(work, e, pv, "B.1", True)
    e_v34 = g.edge_id(v_side[2], v_side[3])
    if len(v_side) == 4:
        work.apply(1, 2, e, "B.1-flip")
        return e_v34
    pair, c = _window_b(work, [u1] + list(v_side[:5]))
    free = _free_edge(work, v_side[:3])
    if free:
        work.recolor(*free, "B.1-cut")
        return _lemma_2_3_inner(work, e)
    if pair != e_v34:
        raise InternalInvariantError("length-5 window resolved off the far pair")
    work.recolor(e_v34, c, "B.1-j3")
    work.apply(1, 2, e, "B.1-j3")
    return e_v34


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _improve_round(work: _Work, e0: int):
    """One phase-1 round from the defect edge e0, following jumps to new
    working edges.  Returns the (before, after) matched counts, after >
    before."""
    base = work.matched()
    e = e0
    for _ in range(_JUMP_CAP):
        work.reset_frame()
        if work.colors[e] == 1 or not work.h1_mask[e]:
            raise InternalInvariantError("working edge lost its defect status")
        work.reframe_edge2(e)
        a, b = work.g.edges[e]
        ones = int(work.has_color1(a)) + int(work.has_color1(b))
        if ones == 0:
            work.recolor(e, 1, "A-direct")
            nxt = None
        elif ones == 1:
            nxt = _case_A(work, e)
        else:
            nxt = _case_B(work, e)
        if nxt is None:
            after = work.matched()
            if after <= base:
                raise InternalInvariantError("case claimed progress without gain")
            return base, after
        if work.matched() < base:
            raise InternalInvariantError("jump lost matched edges")
        e = nxt
    raise InternalInvariantError("case dispatch exceeded the jump budget")


def theorem_4_1_transform(
    g: Graph, f: EdgeColoring, h: EdgeColoring, stats: list | None = None
) -> Transcript:
    """Transcript carrying f (proper 5-coloring) exactly onto h (proper
    4-coloring) on a 4-regular graph; h itself certifies Class 1.

    `stats` (when a list) receives (before, after) matched-count pairs, one
    per phase-1 round; each round strictly increases the count.
    """
    work = _checked_work(g, f, h)
    budget = 50 * g.m * g.m
    while (e := work.least_defect()) >= 0:
        counts = _improve_round(work, e)
        if stats is not None:
            stats.append(counts)
        if len(work.tr) > budget:
            raise InternalInvariantError("move budget 50*m^2 exceeded")
    if work.colors != list(h.colors):
        # phase 2: align the cubic remainder over the four colors left
        from .degree4_lift import _equalize_search

        _equalize_search(work, bytes(h.colors), (2, 3, 4, 5), "phase2")
    if work.colors != list(h.colors):
        raise InternalInvariantError("transform terminated off target")
    return work.tr
