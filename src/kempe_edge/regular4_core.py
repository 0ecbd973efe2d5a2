"""The 4-regular case machine: drive a proper 5-edge coloring onto a given
proper 4-edge coloring, one interchange at a time.

Phase 1 makes the color-1 class of the working coloring coincide with the
target's by repeatedly increasing the number of shared 1-edges; the case
analysis works inside a color frame (a palette permutation fixing color 1)
so the working edge always reads as color 2.  Narrative jumps between cases
become explicit re-dispatches on a new working edge; every claimed structural
fact is asserted at runtime, and every claim failure escapes through a move
sequence that re-enters the dispatch.  Phase 2 removes the matched class and
hands the degree-3 remainder to the bounded search equalizer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadWindow,
    ClaimOneViolated,
    DistanceConditionViolated,
    InternalInvariantError,
    NotRegular4,
    PaletteMismatch,
    PreconditionViolated,
    TargetNotProper4,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    check_edge_id,
    delete_edges,
    is_proper,
    require_proper,
)
from .kempe_engine import Recorder, Transcript

_A = frozenset({1, 2, 3, 4})
_B = frozenset({1, 2, 3, 5})
_C = frozenset({1, 2, 4, 5})
_JUMP_CAP = 64


@dataclass(frozen=True)
class PathWindow:
    """Named vertices of the working (1,2)-component around the working edge."""

    u_side: tuple  # u1, u2, ... away from the working edge
    v_side: tuple  # v1, v2, ...
    x1: int | None = None  # 5-colored neighbor of v2 (canonical frame)
    x2: int | None = None  # 4-colored neighbor of v2
    y1: int | None = None  # 5-colored neighbor of u2
    y2: int | None = None  # 4-colored neighbor of u2
    is_cycle: bool = False


class ColorFrame:
    """Palette permutation between working (frame) colors and real colors.

    Every frame used here fixes color 1, so 1-correctness reads identically
    in both views; moves are emitted in real colors.
    """

    __slots__ = ("to_real", "to_frame")

    def __init__(self, t: int = 5):
        self.to_real = list(range(t + 1))
        self.to_frame = list(range(t + 1))

    def reset(self):
        for i in range(len(self.to_real)):
            self.to_real[i] = i
            self.to_frame[i] = i

    def compose(self, mapping: dict):
        """Apply a frame-to-frame relabeling on top of the current frame."""
        old_to_frame = self.to_frame[:]
        for real in range(1, len(self.to_frame)):
            self.to_frame[real] = mapping.get(old_to_frame[real], old_to_frame[real])
        for real in range(1, len(self.to_frame)):
            self.to_real[self.to_frame[real]] = real


class _Work(Recorder):
    """The case machine's recorder: moves are given in frame colors and
    recorded in real colors, and the target's color-1 class is kept for the
    phase-1 measures."""

    __slots__ = ("h1", "frame")

    def __init__(self, g: Graph, f: EdgeColoring, h: EdgeColoring | None):
        super().__init__(g, f)
        self.h1 = (
            frozenset(e for e, c in enumerate(h.colors) if c == 1)
            if h is not None
            else frozenset()
        )
        self.frame = ColorFrame(f.t)

    # -- frame plumbing -----------------------------------------------------
    def reset_frame(self):
        self.frame.reset()

    def reframe_edge2(self, eid: int):
        """Compose a swap so the given edge reads as frame color 2."""
        c = self.view(eid)
        if c == 1:
            raise InternalInvariantError("working edge already colored 1")
        if c != 2:
            self.frame.compose({c: 2, 2: c})

    def compose(self, mapping: dict):
        self.frame.compose(mapping)

    def view(self, eid: int) -> int:
        return self.frame.to_frame[self.colors[eid]]

    def vpal(self, v: int) -> frozenset:
        to_frame = self.frame.to_frame
        return frozenset(to_frame[self.colors[eid]] for _, eid in self.g.adj[v])

    def edge_at(self, v: int, frame_color: int) -> int:
        return self.edge_with_color(v, self.frame.to_real[frame_color])

    # -- moves (frame colors in, real colors recorded) ----------------------
    def comp_of(self, eid: int, a: int, b: int):
        to_real = self.frame.to_real
        return self.component(to_real[a], to_real[b], eid)

    def apply(self, a: int, b: int, rep: int, note: str):
        to_real = self.frame.to_real
        return super().apply(to_real[a], to_real[b], rep, note)

    def apply_expect(self, a: int, b: int, rep: int, expect_verts: set, note: str):
        edge_ids, verts, cyc = self.apply(a, b, rep, note)
        if set(verts) != expect_verts:
            raise ClaimOneViolated(
                f"{note}: expected component on {sorted(expect_verts)}, got {sorted(set(verts))}"
            )
        return edge_ids, verts, cyc

    def recolor(self, eid: int, frame_color: int, note: str):
        """Single-edge interchange (component asserted to be the edge alone)."""
        self.recolor_edge(eid, self.frame.to_real[frame_color], note)

    # -- measures ------------------------------------------------------------
    def matched(self) -> int:
        return sum(1 for e in self.h1 if self.colors[e] == 1)

    def correct1(self, eid: int) -> bool:
        return self.colors[eid] == 1 and eid in self.h1

    def has_color1(self, v: int) -> bool:
        return self.edge_with_color(v, 1) >= 0


def _far(verts, origin):
    if verts[0] == origin:
        return verts[-1]
    if verts[-1] == origin:
        return verts[0]
    raise InternalInvariantError(f"vertex {origin} is not a path endpoint")


def _check_window_path(work: _Work, pv) -> None:
    for i in range(len(pv) - 1):
        eid = work.g.edge_id(pv[i], pv[i + 1])
        if eid is None or work.view(eid) not in (1, 2):
            raise BadWindow(f"({pv[i]},{pv[i+1]}) is not a working bicolored edge")


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
    for pe, (pa, pb) in ((e12, (v1, v2)), (e23, (v2, v3))):
        miss = [c for c in (3, 4, 5) if c not in work.vpal(pa) | work.vpal(pb)]
        if miss:
            return ("improved", pe, miss[0])
    ex1 = work.vpal(v1) - {1, 2}
    ex2 = work.vpal(v2) - {1, 2}
    ex3 = work.vpal(v3) - {1, 2}
    if not (len(ex1) == len(ex2) == len(ex3) == 2):
        raise BadWindow("window vertices must carry colors 1,2 plus two others")
    if ex1 == ex3:
        shared = ex1 & ex2
        if len(shared) != 1:
            raise InternalInvariantError("window union check missed a color")
        c = next(iter(shared))
        b = next(iter(ex2 - {c}))
        rep = work.edge_at(v2, b)
        _, verts, cyc = work.comp_of(rep, next(iter(ex1 - {c})), b)
        if cyc:
            raise InternalInvariantError("degree-1 origin produced a cycle")
        far = _far(verts, v2)
        work.apply(next(iter(ex1 - {c})), b, rep, "win4-outer")
        return ("improved", e12 if far != v1 else e23, b)
    # condition (i) holds: canonicalize {3,4,5} so that the pattern becomes
    # v1 -> {1,2,3,5}, v2 -> {1,2,4,5}, v3 -> {1,2,3,4}
    m1 = next(iter({3, 4, 5} - ex1))
    m2 = next(iter({3, 4, 5} - ex2))
    m3 = next(iter({3, 4, 5} - ex3))
    work.compose({m1: 4, m2: 3, m3: 5})
    x1 = g.other_end(work.edge_at(v2, 5), v2)
    x2 = g.other_end(work.edge_at(v2, 4), v2)
    # condition (ii) checks with their escapes
    if 3 not in work.vpal(x1):
        work.recolor(g.edge_id(v2, x1), 3, "win4-probe")
        return ("improved", e23, 5)
    if 3 not in work.vpal(x2):
        work.recolor(g.edge_id(v2, x2), 3, "win4-probe")
        return ("improved", e12, 4)
    rep = work.edge_at(v1, 3)
    _, verts, cyc = work.comp_of(rep, 3, 4)
    if cyc:
        raise InternalInvariantError("(3,4) path from the window closed up")
    if _far(verts, v1) != v2:
        work.apply(3, 4, rep, "win4-probe")
        return ("improved", e12, 3)
    if 4 not in work.vpal(x1):
        work.apply(3, 4, rep, "win4-probe")
        work.recolor(g.edge_id(v2, x1), 4, "win4-probe")
        return ("improved", e23, 5)
    rep = work.edge_at(v3, 3)
    _, verts, cyc = work.comp_of(rep, 3, 5)
    if cyc:
        raise InternalInvariantError("(3,5) path from the window closed up")
    if _far(verts, v3) != v2:
        work.apply(3, 5, rep, "win4-probe")
        return ("improved", e23, 3)
    if 5 not in work.vpal(x2):
        work.apply(3, 5, rep, "win4-probe")
        work.recolor(g.edge_id(v2, x2), 5, "win4-probe")
        return ("improved", e12, 4)
    return ("holds", x1, x2)


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
    if p4 == _C:
        res2 = _window_escape_or_certify(work, pv[1:6])
        if res2[0] != "improved":
            raise InternalInvariantError("shifted window must improve")
        return res2[1], res2[2]
    if p4 != _B:
        raise BadWindow(f"unexpected palette {sorted(p4)} at the fourth vertex")
    rep = work.edge_at(v2, 4)
    _, verts, cyc = work.comp_of(rep, 3, 4)
    if cyc:
        raise InternalInvariantError("(3,4) path from the window closed up")
    far = _far(verts, v2)
    work.apply(3, 4, rep, "win5")
    if far != v1:
        return g.edge_id(v1, v2), 4
    res2 = _window_escape_or_certify(work, pv[1:6])
    if res2[0] != "improved":
        raise InternalInvariantError("shifted window must improve")
    return res2[1], res2[2]


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
        raise PreconditionViolated("window analysis requires u1 != x2")
    before = work.matched()
    had1_u1 = work.has_color1(u1)
    if 1 not in work.vpal(x2):
        rep = g.edge_id(v1, v2)
        work.apply_expect(1, 4, rep, {v1, v2, x2}, "win-target")
        after = work.matched()
        if after > before:
            return ("progress",)
        if after != before or 1 in work.vpal(v1):
            raise InternalInvariantError("outcome II postcondition failed")
        if not had1_u1 and work.has_color1(u1):
            raise InternalInvariantError("outcome II leaked color 1 onto u1")
        return ("II",)
    if 2 not in work.vpal(x1):
        rep = work.edge_at(x1, 3)
        _, verts, cyc = work.comp_of(rep, 2, 3)
        if cyc:
            raise InternalInvariantError("(2,3) path from x1 closed up")
        vset = set(verts)
        e_x1 = g.edge_id(v2, x1)
        e_x2 = g.edge_id(v2, x2)
        e_v3 = g.edge_id(v2, v3)
        e_v1 = g.edge_id(v2, v1)
        if v3 not in vset and x2 not in vset:
            work.apply(2, 3, rep, "win-target")
            for eid, target in ((e_x1, 3), (e_v3, 5), (e_x2, 2), (e_v1, 4)):
                work.recolor(eid, target, "win-target")
        elif v3 in vset:
            rep2 = work.edge_at(x2, 3)
            work.apply(2, 3, rep2, "win-target")
            work.recolor(e_x2, 3, "win-target")
            work.recolor(e_v1, 4, "win-target")
        else:
            work.apply(2, 3, rep, "win-target")
            work.recolor(e_x2, 3, "win-target")
            work.recolor(e_v1, 4, "win-target")
        if work.matched() != before or 1 in work.vpal(v1):
            raise InternalInvariantError("outcome II postcondition failed")
        if not had1_u1 and work.has_color1(u1):
            raise InternalInvariantError("outcome II leaked color 1 onto u1")
        return ("II",)
    return ("I", x1, x2)


def _lemma_2_3_inner(work: _Work, xy: int, require_precondition: bool = True):
    """Flip the working component so xy takes color 1, increasing matched().

    Precondition: no target-correct 1-edge within distance 2 of xy on its
    (1,2)-component.
    """
    g = work.g
    work.reframe_edge2(xy)
    if xy not in work.h1:
        raise PreconditionViolated("working edge is not a target 1-edge")
    for iteration in range(6):
        eids, verts, cyc = work.comp_of(xy, 1, 2)
        if not any(work.correct1(e) for e in eids):
            work.apply(1, 2, xy, "flip")
            return
        s = eids.index(xy)
        if cyc:
            n = len(eids)
            side_a = [eids[(s - 1 - i) % n] for i in range(min(3, n - 1))]
            side_b = [eids[(s + 1 + i) % n] for i in range(min(3, n - 1))]
        else:
            side_a = list(reversed(eids[:s]))[:3]
            side_b = eids[s + 1:][:3]
        for side in (side_a, side_b):
            for dist, e in enumerate(side):
                if dist <= 2 and work.correct1(e):
                    if require_precondition and iteration == 0:
                        raise DistanceConditionViolated(
                            f"correct 1-edge {e} within distance 2 of the working edge"
                        )
                    raise InternalInvariantError("distance condition broke mid-run")
        if cyc:
            n = len(eids)
            xv, yv = verts[s], verts[(s + 1) % n]
            if n < 10:
                raise InternalInvariantError("short cycle cannot carry correct edges")
            if yv > xv:
                pverts = [verts[(s + 1 + i) % n] for i in range(6)]
            else:
                pverts = [verts[(s - i) % n] for i in range(6)]
        else:
            x_edges = list(reversed(eids[:s]))
            y_edges = eids[s + 1:]
            cx = any(work.correct1(e) for e in x_edges)
            cyv = any(work.correct1(e) for e in y_edges)
            if cx and cyv:
                operate_y = verts[s + 1] > verts[s]
            else:
                operate_y = cyv
            if operate_y:
                pverts = verts[s + 1: s + 7]
            else:
                pverts = verts[s::-1][:6]
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


def _a21_main(work: _Work, P, x1):
    """v4 is the path end, palettes settled, u1 is not the 5-neighbor of v2."""
    g = work.g
    e = g.edge_id(P[0], P[1])
    work.apply(1, 2, e, "A.2.1")
    rep = g.edge_id(P[2], x1)
    work.apply_expect(1, 5, rep, {x1, P[2], P[3]}, "A.2.1")
    work.recolor(g.edge_id(P[3], P[4]), 1, "A.2.1")


def _a21_u1_is_x1(work: _Work, P, x2):
    g = work.g
    e = g.edge_id(P[0], P[1])
    work.apply(1, 2, e, "A.2.1-x1")
    rep = g.edge_id(P[1], P[2])
    work.apply_expect(2, 4, rep, {P[1], P[2], x2}, "A.2.1-x1")
    _lemma_2_3_inner(work, g.edge_id(P[4], P[3]), require_precondition=False)


def _a22_with_1_at_x1(work: _Work, P, x1):
    g = work.g
    rep = g.edge_id(P[2], x1)
    work.apply_expect(2, 5, rep, {x1, P[2], P[3]}, "A.2.2")
    _lemma_2_3_inner(work, g.edge_id(P[0], P[1]), require_precondition=False)


def _case_A(work: _Work, e: int):
    """The working edge is adjacent to at most one 1-edge."""
    g = work.g
    a, b = g.edges[e]
    if work.has_color1(a):
        v1, u1 = a, b
    else:
        v1, u1 = b, a
    if work.has_color1(u1):
        raise InternalInvariantError("case A dispatched with two adjacent 1-edges")
    eids, verts, cyc = work.comp_of(e, 1, 2)
    if cyc:
        raise InternalInvariantError("degree-1 endpoint on a cycle component")
    P = list(verts) if verts[0] == u1 else list(reversed(verts))
    if P[0] != u1:
        raise InternalInvariantError("working edge endpoint is not a path endpoint")
    k = len(P) - 1

    def pe(i):
        return g.edge_id(P[i], P[i + 1])

    if k <= 3 or not work.correct1(pe(3)):
        _lemma_2_3_inner(work, e, require_precondition=False)
        return None
    res = _window_escape_or_certify(work, P[:5])
    if res[0] == "improved":
        work.recolor(res[1], res[2], "A.1")
        _lemma_2_3_inner(work, e, require_precondition=False)
        return None
    x1, x2 = res[1], res[2]
    if k == 4:
        if u1 != x2:
            if work.vpal(x1) != {2, 3, 4, 5} or work.vpal(x2) != {1, 3, 4, 5}:
                out = _lemma_2_2_inner(work, P[:5])
                if out[0] == "III":
                    work.recolor(out[1], out[2], "A.2.1")
                    _lemma_2_3_inner(work, e, require_precondition=False)
                elif out[0] == "II":
                    work.recolor(e, 1, "A.2.1-II")
                elif out[0] != "progress":
                    raise InternalInvariantError("outcome I contradicts the branch")
                return None
            if u1 != x1:
                _a21_main(work, P, x1)
            else:
                _a21_u1_is_x1(work, P, x2)
            return None
        if 1 in work.vpal(x1):
            _a22_with_1_at_x1(work, P, x1)
        else:
            _a21_main(work, P, x1)
        return None
    # k >= 5: the fourth path vertex is internal
    pair, c = _window_b(work, P[:6])
    for cut, (pa, pb) in ((pe(1), (P[1], P[2])), (pe(2), (P[2], P[3]))):
        miss = [cc for cc in (3, 4, 5) if cc not in work.vpal(pa) | work.vpal(pb)]
        if miss:
            work.recolor(cut, miss[0], "A.2.3-cut")
            _lemma_2_3_inner(work, e, require_precondition=False)
            return None
    res = _window_escape_or_certify(work, P[:5])
    if res[0] == "improved":
        work.recolor(res[1], res[2], "A.2.3")
        _lemma_2_3_inner(work, e, require_precondition=False)
        return None
    x1, x2 = res[1], res[2]
    if work.vpal(P[4]) != _A or 5 in work.vpal(P[3]) | work.vpal(P[4]):
        raise InternalInvariantError("length-5 window left no color-5 slack")
    e34 = pe(3)
    if u1 != x2:
        out = _lemma_2_2_inner(work, P[:5])
        if out[0] == "III":
            work.recolor(out[1], out[2], "A.2.3")
            _lemma_2_3_inner(work, e, require_precondition=False)
            return None
        if out[0] == "II":
            work.recolor(e, 1, "A.2.3-II")
            return None
        if out[0] == "progress":
            return None
        # outcome I
        if u1 not in (x1, x2):
            work.recolor(e34, 5, "A.2.3-I")
            work.apply(1, 2, e, "A.2.3-I")
            work.apply_expect(1, 5, e34, {P[4], P[3], P[2], x1}, "A.2.3-I")
            return None
        # u1 == x1: after the same preparation the mirrored window repeats
        # the configuration with the frame colors 2 and 5 exchanged
        work.recolor(e34, 5, "A.2.3-I")
        work.apply(1, 2, e, "A.2.3-I")
        return e34
    # u1 == x2
    work.recolor(e34, 5, "A.2.3-x2")
    work.apply(1, 2, e, "A.2.3-x2")
    if 2 in work.vpal(x1):
        work.apply_expect(1, 5, e34, {P[4], P[3], P[2], x1}, "A.2.3-x2")
        return None
    _lemma_2_3_inner(work, e34, require_precondition=False)
    return None


# ---------------------------------------------------------------------------
# Case B
# ---------------------------------------------------------------------------


def _window_holds(work: _Work, w1, w2, w3) -> bool:
    """Literal check of the window conditions (palette distinctness and
    colors 3,4,5 at the mid-vertex's off-path neighbors)."""
    ex = [work.vpal(w) - {1, 2} for w in (w1, w2, w3)]
    if len({frozenset(x) for x in ex}) != 3:
        return False
    others = [
        work.g.other_end(eid, w2)
        for _, eid in work.g.adj[w2]
        if work.g.other_end(eid, w2) not in (w1, w3)
    ]
    return all({3, 4, 5} <= work.vpal(y) for y in others)


def _claim_check_45(work: _Work, e, W, Z, wwin):
    """Maximal (4,5)-path from w3.  Structural claim: its far end is w1, it
    passes w2 and avoids z2.  On failure runs the documented escape and
    returns ("jump", edge) / ("done",); on success returns ("ok", rep) with
    nothing applied."""
    g = work.g
    rep = work.edge_at(W[2], 4)
    _, verts, cyc = work.comp_of(rep, 4, 5)
    if cyc:
        raise ClaimOneViolated("(4,5) path from w3 closed into a cycle")
    vset = set(verts)
    if _far(verts, W[2]) != W[0]:
        work.apply(4, 5, rep, "B.2.3-claim-esc")
        res = _window_escape_or_certify(work, wwin)
        if res[0] != "improved":
            raise ClaimOneViolated("claim escape found no window improvement")
        work.recolor(res[1], res[2], "B.2.3-claim-esc")
        return ("jump", e)
    if W[1] not in vset:
        work.apply(4, 5, rep, "B.2.3-claim-esc")
        out = _lemma_2_2_inner(work, wwin)
        if out[0] == "III":
            work.recolor(out[1], out[2], "B.2.3-claim-esc")
            return ("jump", e)
        if out[0] == "II":
            return ("jump", e)
        if out[0] == "progress":
            return ("done",)
        raise ClaimOneViolated("outcome I contradicts the settled palettes")
    if Z[1] in vset:
        work.apply(4, 5, rep, "B.2.3-claim-esc")
        rep2 = g.edge_id(Z[0], Z[1])
        eids2, _, _ = work.apply(1, 4, rep2, "B.2.3-claim-esc")
        if len(eids2) != 2:
            raise ClaimOneViolated("escape (1,4) path has unexpected shape")
        return ("jump", e)
    return ("ok", rep, vset)


def _claim_check_35(work: _Work, e, W, wwin):
    """Maximal (3,5)-path from w3; claim: its far end is w2."""
    rep = work.edge_at(W[2], 3)
    _, verts, cyc = work.comp_of(rep, 3, 5)
    if cyc:
        raise ClaimOneViolated("(3,5) path from w3 closed into a cycle")
    if _far(verts, W[2]) != W[1]:
        work.apply(3, 5, rep, "B.2.3-claim-esc")
        res = _window_escape_or_certify(work, wwin)
        if res[0] != "improved":
            raise ClaimOneViolated("claim escape found no window improvement")
        work.recolor(res[1], res[2], "B.2.3-claim-esc")
        return ("jump", e)
    return ("ok", rep, set(verts))


def _b231(work: _Work, e, U, V, x1, y1):
    """One of the fourth path vertices is the path end (taken to be u4)."""
    g = work.g
    e_u34 = g.edge_id(U[2], U[3])
    e_v34 = g.edge_id(V[2], V[3])
    e_u2y1 = g.edge_id(U[1], y1)
    vwin = [U[0], V[0], V[1], V[2], V[3]]
    pv4 = work.vpal(V[3])
    if pv4 == _B:
        res = _claim_check_45(work, e, V, U, vwin)
        if res[0] != "ok":
            return None if res[0] == "done" else res[1]
        work.apply(4, 5, res[1], "B.2.3.1")
        work.recolor(e_v34, 4, "B.2.3.1")
    elif pv4 == _C:
        res = _claim_check_35(work, e, V, vwin)
        if res[0] != "ok":
            return None if res[0] == "done" else res[1]
        work.apply(3, 5, res[1], "B.2.3.1")
        work.recolor(e_v34, 3, "B.2.3.1")
    else:
        work.recolor(e_v34, 5, "B.2.3.1")
    work.apply(1, 2, e, "B.2.3.1")
    work.apply_expect(1, 5, e_u2y1, {U[2], U[1], y1}, "B.2.3.1")
    work.recolor(e_u34, 1, "B.2.3.1")
    return e_v34


def _b232(work: _Work, e, U, V, x1, y1):
    """Neither fourth path vertex is an end (or the component is a cycle)."""
    g = work.g
    pu4 = work.vpal(U[3])
    pv4 = work.vpal(V[3])
    if (pu4, pv4) in ((_B, _A), (_C, _A), (_C, _B)):
        U, V = V, U
        x1, y1 = y1, x1
        pu4, pv4 = pv4, pu4
    e_u34 = g.edge_id(U[2], U[3])
    e_v34 = g.edge_id(V[2], V[3])
    uwin = [V[0], U[0], U[1], U[2], U[3]]
    vwin = [U[0], V[0], V[1], V[2], V[3]]
    if (pu4, pv4) == (_A, _A):
        work.recolor(e_u34, 5, "B.2.3.2-AA")
        work.recolor(e_v34, 5, "B.2.3.2-AA")
        work.apply(1, 2, e, "B.2.3.2-AA")
        work.apply_expect(1, 5, e_u34, {U[3], U[2], U[1], y1}, "B.2.3.2-AA")
        work.apply_expect(1, 5, e_v34, {V[3], V[2], V[1], x1}, "B.2.3.2-AA")
        return None
    if (pu4, pv4) == (_B, _B):
        r1 = _claim_check_45(work, e, U, V, uwin)
        if r1[0] != "ok":
            return None if r1[0] == "done" else r1[1]
        r2 = _claim_check_45(work, e, V, U, vwin)
        if r2[0] != "ok":
            return None if r2[0] == "done" else r2[1]
        if r1[2] & r2[2]:
            raise ClaimOneViolated("the two (4,5) paths are not disjoint")
        work.apply(4, 5, r1[1], "B.2.3.2-BB")
        work.apply(4, 5, r2[1], "B.2.3.2-BB")
        work.recolor(e_u34, 4, "B.2.3.2-BB")
        work.recolor(e_v34, 4, "B.2.3.2-BB")
        work.apply(1, 2, e, "B.2.3.2-BB")
        work.apply_expect(1, 4, e_u34, {U[3], U[2], U[1], y1}, "B.2.3.2-BB")
        work.apply_expect(1, 4, e_v34, {V[3], V[2], V[1], x1}, "B.2.3.2-BB")
        return None
    if (pu4, pv4) == (_C, _C):
        r1 = _claim_check_35(work, e, U, uwin)
        if r1[0] != "ok":
            return None if r1[0] == "done" else r1[1]
        r2 = _claim_check_35(work, e, V, vwin)
        if r2[0] != "ok":
            return None if r2[0] == "done" else r2[1]
        if r1[2] & r2[2]:
            raise ClaimOneViolated("the two (3,5) paths are not disjoint")
        work.apply(3, 5, r1[1], "B.2.3.2-CC")
        work.apply(3, 5, r2[1], "B.2.3.2-CC")
        work.recolor(e_u34, 3, "B.2.3.2-CC")
        work.recolor(e_v34, 3, "B.2.3.2-CC")
        work.apply(1, 2, e, "B.2.3.2-CC")
        work.apply_expect(1, 3, e_u34, {U[3], U[2], U[1], y1}, "B.2.3.2-CC")
        work.apply_expect(1, 3, e_v34, {V[3], V[2], V[1], x1}, "B.2.3.2-CC")
        return None
    if (pu4, pv4) == (_A, _B):
        res = _claim_check_45(work, e, V, U, vwin)
        if res[0] != "ok":
            return None if res[0] == "done" else res[1]
        work.apply(4, 5, res[1], "B.2.3.2-AB")
        work.recolor(e_u34, 5, "B.2.3.2-AB")
        work.recolor(e_v34, 4, "B.2.3.2-AB")
        work.apply(1, 2, e, "B.2.3.2-AB")
        work.apply_expect(1, 5, e_u34, {U[3], U[2], U[1], y1}, "B.2.3.2-AB")
        return e_v34
    if (pu4, pv4) == (_A, _C):
        res = _claim_check_35(work, e, V, vwin)
        if res[0] != "ok":
            return None if res[0] == "done" else res[1]
        work.apply(3, 5, res[1], "B.2.3.2-AC")
        work.recolor(e_u34, 5, "B.2.3.2-AC")
        work.recolor(e_v34, 3, "B.2.3.2-AC")
        work.apply(1, 2, e, "B.2.3.2-AC")
        work.apply_expect(1, 5, e_u34, {U[3], U[2], U[1], y1}, "B.2.3.2-AC")
        return e_v34
    if (pu4, pv4) == (_B, _C):
        r1 = _claim_check_45(work, e, U, V, uwin)
        if r1[0] != "ok":
            return None if r1[0] == "done" else r1[1]
        work.apply(4, 5, r1[1], "B.2.3.2-BC")
        r2 = _claim_check_35(work, e, V, vwin)
        if r2[0] != "ok":
            return None if r2[0] == "done" else r2[1]
        work.apply(3, 5, r2[1], "B.2.3.2-BC")
        work.recolor(e_v34, 3, "B.2.3.2-BC")
        work.recolor(e_u34, 4, "B.2.3.2-BC")
        work.apply(1, 2, e, "B.2.3.2-BC")
        work.apply_expect(1, 3, e_v34, {V[3], V[2], V[1], x1}, "B.2.3.2-BC")
        return e_u34
    raise InternalInvariantError(f"unhandled palette pair {sorted(pu4)}/{sorted(pv4)}")


def _case_B23(work: _Work, e, U, V, is_cycle, cycle_len):
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
        rep = work.edge_at(U[origin_i], origin_color)
        _, verts, cyc = work.comp_of(rep, ca, cb)
        if cyc:
            raise ClaimOneViolated("mold path closed into a cycle")
        far = _far(verts, U[origin_i])
        work.apply(ca, cb, rep, "B.2.3-mold")
        if far != U[expect_i]:
            res = _window_escape_or_certify(work, uwin)
            if res[0] != "improved":
                raise ClaimOneViolated("mold escape found no window improvement")
            work.recolor(res[1], res[2], "B.2.3-mold-esc")
            return e
    else:
        raise InternalInvariantError("u-side molding did not converge")
    # re-derive the four off-path neighbors after molding
    x1 = g.other_end(work.edge_at(V[1], 5), V[1])
    x2 = g.other_end(work.edge_at(V[1], 4), V[1])
    y1 = g.other_end(work.edge_at(U[1], 5), U[1])
    y2 = g.other_end(work.edge_at(U[1], 4), U[1])
    # settle the off-path palettes
    if work.vpal(x1) != {2, 3, 4, 5} or work.vpal(x2) != {1, 3, 4, 5}:
        out = _lemma_2_2_inner(work, vwin)
        if out[0] == "III":
            work.recolor(out[1], out[2], "B.2.3")
            return e
        if out[0] == "II":
            return e
        if out[0] == "progress":
            return None
        raise InternalInvariantError("outcome I contradicts the branch")
    if work.vpal(y1) != {2, 3, 4, 5} or work.vpal(y2) != {1, 3, 4, 5}:
        out = _lemma_2_2_inner(work, uwin)
        if out[0] == "III":
            work.recolor(out[1], out[2], "B.2.3")
            return e
        if out[0] == "II":
            return e
        if out[0] == "progress":
            return None
        raise InternalInvariantError("outcome I contradicts the branch")
    if is_cycle and cycle_len == 6:
        closing = g.edge_id(V[2], U[2])
        if closing is None or not work.correct1(closing):
            raise InternalInvariantError("six-cycle without a correct closing edge")
        work.recolor(closing, 5, "B.2.3-c6")
        work.apply(1, 2, e, "B.2.3-c6")
        work.apply_expect(
            1, 5, closing, {y1, U[1], U[2], V[2], V[1], x1}, "B.2.3-c6"
        )
        return None
    l_end = (not is_cycle) and len(U) == 4
    k_end = (not is_cycle) and len(V) == 4
    if l_end and k_end:
        # length-7 path: both fourth vertices are ends
        e_u34 = g.edge_id(U[2], U[3])
        e_v34 = g.edge_id(V[2], V[3])
        for w4 in (U[3], V[3]):
            if w4 in (x1, y1):
                raise InternalInvariantError("path end collides with an off-path neighbor")
        work.apply(1, 2, e, "B.2.3-p7")
        work.apply_expect(1, 5, g.edge_id(U[1], y1), {U[2], U[1], y1}, "B.2.3-p7")
        work.apply_expect(1, 5, g.edge_id(V[1], x1), {V[2], V[1], x1}, "B.2.3-p7")
        work.recolor(e_u34, 1, "B.2.3-p7")
        work.recolor(e_v34, 1, "B.2.3-p7")
        return None
    # establish correctness of both distance-2 edges
    for W, Z in ((V, U), (U, V)):
        w34 = g.edge_id(W[2], W[3])
        if not work.correct1(w34):
            if (not is_cycle) and len(W) == 4:
                raise InternalInvariantError(
                    "dispatch sent an uncorrectable short side to B.2.3"
                )
            pair, c = _window_b(work, [Z[0]] + list(W[:5]))
            work.recolor(pair, c, "B.2.3-45")
            return e
    if l_end != k_end:
        if k_end:
            U, V = V, U
            x1, y1 = y1, x1
        return _b231(work, e, U, V, x1, y1)
    return _b232(work, e, U, V, x1, y1)


def _case_B(work: _Work, e: int):
    g = work.g
    eids, verts, cyc = work.comp_of(e, 1, 2)
    s = eids.index(e)
    if cyc:
        n = len(eids)
        span = min(n, 7)
        u_ext = [verts[(s - i) % n] for i in range(span)]
        v_ext = [verts[(s + 1 + i) % n] for i in range(span)]
        if n == 6:
            d2 = [g.edge_id(v_ext[2], u_ext[2])]
        else:
            d2 = [g.edge_id(u_ext[2], u_ext[3]), g.edge_id(v_ext[2], v_ext[3])]
        if not any(work.correct1(x) for x in d2):
            _lemma_2_3_inner(work, e, require_precondition=False)
            return None
        is_cycle, cycle_len = True, n
    else:
        u_ext = verts[s::-1]
        v_ext = verts[s + 1:]
        u_edges = [g.edge_id(u_ext[i], u_ext[i + 1]) for i in range(len(u_ext) - 1)]
        v_edges = [g.edge_id(v_ext[i], v_ext[i + 1]) for i in range(len(v_ext) - 1)]
        c_u = len(u_ext) >= 4 and work.correct1(u_edges[2])
        c_v = len(v_ext) >= 4 and work.correct1(v_edges[2])
        if not (c_u or c_v):
            _lemma_2_3_inner(work, e, require_precondition=False)
            return None
        has_u = any(work.correct1(x) for x in u_edges)
        has_v = any(work.correct1(x) for x in v_edges)
        if c_v and not has_u:
            return _case_B1(work, e, u_ext, v_ext)
        if c_u and not has_v:
            return _case_B1(work, e, v_ext, u_ext)
        # both sides reach length >= 4 here (short sides cannot hold corrects)
        is_cycle, cycle_len = False, 0
    rv = _window_escape_or_certify(work, [u_ext[0]] + v_ext[:4])
    if rv[0] == "improved":
        work.recolor(rv[1], rv[2], "B.2.1")
        return e
    if not _window_holds(work, u_ext[0], u_ext[1], u_ext[2]):
        ru = _window_escape_or_certify(work, [v_ext[0]] + u_ext[:4])
        if ru[0] != "improved":
            raise InternalInvariantError("failed window conditions must improve")
        work.recolor(ru[1], ru[2], "B.2.2")
        return e
    return _case_B23(work, e, u_ext, v_ext, is_cycle, cycle_len)


def _case_B1(work: _Work, e, u_side, v_side):
    """Short or correct-free side on the left, the correct distance-2 edge on
    the right (v3v4)."""
    g = work.g
    u1 = u_side[0]
    pv = [u1] + list(v_side[:4])
    res = _window_escape_or_certify(work, pv)
    if res[0] == "improved":
        work.recolor(res[1], res[2], "B.1")
        _lemma_2_3_inner(work, e, require_precondition=False)
        return None
    x1, x2 = res[1], res[2]
    if u1 in (x1, x2):
        raise InternalInvariantError("path-interior endpoint collides with x1/x2")
    if work.vpal(x1) != {2, 3, 4, 5}:
        out = _lemma_2_2_inner(work, pv)
        if out[0] == "III":
            work.recolor(out[1], out[2], "B.1")
            _lemma_2_3_inner(work, e, require_precondition=False)
            return None
        if out[0] == "II":
            return e
        if out[0] == "progress":
            return None
        raise InternalInvariantError("outcome I contradicts the branch")
    e_v34 = g.edge_id(v_side[2], v_side[3])
    if len(v_side) == 4:
        work.apply(1, 2, e, "B.1-flip")
        return e_v34
    pair, c = _window_b(work, [u1] + list(v_side[:5]))
    for cut, (pa, pb) in (
        (g.edge_id(v_side[0], v_side[1]), (v_side[0], v_side[1])),
        (g.edge_id(v_side[1], v_side[2]), (v_side[1], v_side[2])),
    ):
        miss = [cc for cc in (3, 4, 5) if cc not in work.vpal(pa) | work.vpal(pb)]
        if miss:
            work.recolor(cut, miss[0], "B.1-cut")
            _lemma_2_3_inner(work, e, require_precondition=False)
            return None
    if pair != e_v34:
        raise InternalInvariantError("length-5 window resolved off the far pair")
    work.recolor(e_v34, c, "B.1-j3")
    work.apply(1, 2, e, "B.1-j3")
    return e_v34


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _improve_round(work: _Work, e0: int):
    base = work.matched()
    e = e0
    for _ in range(_JUMP_CAP):
        work.reset_frame()
        if work.colors[e] == 1 or e not in work.h1:
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
            if work.matched() <= base:
                raise InternalInvariantError("case claimed progress without gain")
            return
        if work.matched() < base:
            raise InternalInvariantError("jump lost matched edges")
        e = nxt
    raise InternalInvariantError("case dispatch exceeded the jump budget")


def validate_regular4_inputs(g: Graph, f: EdgeColoring, h: EdgeColoring):
    if any(g.degree(v) != 4 for v in range(1, g.n + 1)):
        raise NotRegular4("graph is not 4-regular")
    if f.t != 5:
        raise PaletteMismatch(f"working coloring must use palette 5, got {f.t}")
    require_proper(g, f, "working coloring")
    if h.t != 4 or not is_proper(g, h):
        raise TargetNotProper4("target must be a proper 4-edge coloring")


def theorem_4_1_transform(
    g: Graph, f: EdgeColoring, h: EdgeColoring, stats: list | None = None
) -> Transcript:
    """Transcript carrying f (proper 5-coloring) exactly onto h (proper
    4-coloring) on a 4-regular graph; h itself certifies Class 1.

    `stats` (when a list) receives (before, after) matched-count pairs, one
    per phase-1 round; each round strictly increases the count.
    """
    validate_regular4_inputs(g, f, h)
    if f.colors == h.colors:
        return Transcript()
    work = _Work(g, f, h)
    budget = 50 * g.m * g.m
    while True:
        todo = [e for e in work.h1 if work.colors[e] != 1]
        if not todo:
            break
        e = min(todo)
        before = work.matched()
        _improve_round(work, e)
        after = work.matched()
        if after <= before:
            raise InternalInvariantError("phase-1 round made no progress")
        if stats is not None:
            stats.append((before, after))
        if len(work.tr) > budget:
            raise InternalInvariantError("move budget 50*m^2 exceeded")
    if work.colors != list(h.colors):
        # phase 2: remove the matched class, align the cubic remainder over
        # the four remaining colors, and replay the moves on the full graph
        from .degree4_lift import _equalize_search

        sub, kept = delete_edges(g, sorted(work.h1))
        start = bytes(work.colors[eid] for eid in kept)
        goal = bytes(h.colors[eid] for eid in kept)
        moves = _equalize_search(sub, start, goal, colors=(2, 3, 4, 5))
        work.reset_frame()
        for a, b, rep in moves:
            work.apply(a, b, kept[rep], "phase2")
    if work.colors != list(h.colors):
        raise InternalInvariantError("transform terminated off target")
    return work.tr


# ---------------------------------------------------------------------------
# Public lemma surfaces.  These check the stated preconditions literally and
# report their results in real palette colors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionsCertificate:
    """Checkable certificate that both window conditions hold: the three
    off-{1,2} palette pairs are pairwise distinct and colors 3,4,5 all appear
    at both off-path neighbors of the middle vertex."""

    window: tuple
    x1: int
    x2: int

    def verify(self, g: Graph, f: EdgeColoring) -> bool:
        from .graph_core import palette_at

        ex = [palette_at(g, f, v) - {1, 2} for v in self.window]
        if any(len(x) != 2 for x in ex):
            return False
        if len({frozenset(x) for x in ex}) != 3:
            return False
        return {3, 4, 5} <= palette_at(g, f, self.x1) and {3, 4, 5} <= palette_at(
            g, f, self.x2
        )


def _public_work(g: Graph, f: EdgeColoring, h: EdgeColoring | None) -> _Work:
    if any(g.degree(v) != 4 for v in range(1, g.n + 1)):
        raise NotRegular4("window machinery requires a 4-regular graph")
    if f.t != 5:
        raise PaletteMismatch(f"expected palette 5, got {f.t}")
    require_proper(g, f)
    if h is not None and (h.t != 4 or not is_proper(g, h)):
        raise TargetNotProper4("target must be a proper 4-edge coloring")
    return _Work(g, f, h)


def _pair_index(g: Graph, pv, pair_edge: int) -> int:
    for i in range(1, len(pv) - 2):
        if g.edge_id(pv[i], pv[i + 1]) == pair_edge:
            return i
    raise InternalInvariantError("window pair edge not on the window path")


def lemma_2_1_a(g: Graph, f: EdgeColoring, path_vertices):
    """Length-4 window analysis on a (1,2)-colored path.

    Returns ("improved", coloring, transcript, pair_edge, color) with the
    color from {3,4,5} missing at both ends of the window edge, or
    ("holds", certificate).
    """
    pv = list(path_vertices)
    if len(pv) != 5 or len(set(pv)) != 5:
        raise BadWindow("expected five distinct path vertices")
    work = _public_work(g, f, None)
    _check_window_path(work, pv)
    res = _window_escape_or_certify(work, pv)
    if res[0] == "improved":
        real_c = work.frame.to_real[res[2]]
        return ("improved", work.coloring(), work.tr, res[1], real_c)
    cert = ConditionsCertificate((pv[1], pv[2], pv[3]), res[1], res[2])
    if not cert.verify(g, f):
        raise InternalInvariantError("certificate failed literal verification")
    return ("holds", cert)


def lemma_2_1_b(g: Graph, f: EdgeColoring, path_vertices):
    """Length-5 window analysis: returns (coloring, transcript, i, color)
    with the color missing at both ends of the i-th window edge, i in 1..3."""
    pv = list(path_vertices)
    if len(pv) != 6 or len(set(pv)) != 6:
        raise BadWindow("expected six distinct path vertices")
    work = _public_work(g, f, None)
    _check_window_path(work, pv)
    pair_edge, c = _window_b(work, pv)
    real_c = work.frame.to_real[c]
    return (work.coloring(), work.tr, _pair_index(g, pv, pair_edge), real_c)


def lemma_2_2(g: Graph, f: EdgeColoring, h: EdgeColoring, path_vertices):
    """Window analysis with a target: the first path edge must read color 2
    under f and color 1 under h.

    Returns one of
      ("I", certificate)                         -- settled palettes,
      ("II", coloring, transcript)               -- color 1 driven off v1,
      ("III", coloring, transcript, edge, color) -- window escape,
      ("progress", coloring, transcript)         -- matched count increased.
    """
    pv = list(path_vertices)
    if len(pv) != 5 or len(set(pv)) != 5:
        raise BadWindow("expected five distinct path vertices")
    work = _public_work(g, f, h)
    _check_window_path(work, pv)
    e = g.edge_id(pv[0], pv[1])
    if f.colors[e] != 2 or h.colors[e] != 1:
        raise BadWindow("first window edge must be colored 2 and targeted 1")
    out = _lemma_2_2_inner(work, pv)
    if out[0] == "I":
        cert = ConditionsCertificate((pv[1], pv[2], pv[3]), out[1], out[2])
        return ("I", cert)
    if out[0] == "III":
        real_c = work.frame.to_real[out[2]]
        return ("III", work.coloring(), work.tr, out[1], real_c)
    return (out[0], work.coloring(), work.tr)


def lemma_2_3(g: Graph, f: EdgeColoring, h: EdgeColoring, xy: int):
    """Strictly increase the matched 1-class via the working component of xy.

    Requires f(xy) = 2, h(xy) = 1 and no target-correct 1-edge within
    distance 2 of xy on its (1,2)-component."""
    check_edge_id(g, xy)
    work = _public_work(g, f, h)
    if f.colors[xy] != 2 or h.colors[xy] != 1:
        raise PreconditionViolated("edge must be colored 2 and targeted 1")
    before = work.matched()
    _lemma_2_3_inner(work, xy, require_precondition=True)
    if work.matched() <= before:
        raise InternalInvariantError("matched count did not increase")
    return work.coloring(), work.tr


def case_b23_escape(g: Graph, f1: EdgeColoring, h: EdgeColoring, e: int):
    """Run the settled-window machine on the working edge e.

    Returns (coloring, transcript, tag) with tag "done" when the matched
    count strictly increased, otherwise "case_A" / "case_B1" naming the
    configuration the returned coloring presents for the next dispatch."""
    work = _public_work(g, f1, h)
    if e not in work.h1 or work.colors[e] == 1:
        raise PreconditionViolated("edge must be targeted 1 and mis-colored")
    work.reframe_edge2(e)
    a, b = g.edges[e]
    if not (work.has_color1(a) and work.has_color1(b)):
        raise PreconditionViolated("both endpoints must carry 1-edges (case B)")
    before = work.matched()
    nxt = _case_B(work, e)
    if nxt is None:
        if work.matched() <= before:
            raise InternalInvariantError("case machine claimed progress without gain")
        return work.coloring(), work.tr, "done"
    ea, eb = g.edges[nxt]
    ones = int(work.has_color1(ea)) + int(work.has_color1(eb))
    tag = "case_A" if ones <= 1 else "case_B1"
    return work.coloring(), work.tr, tag


def describe_window(g: Graph, f: EdgeColoring, e: int) -> PathWindow:
    """Name the working component around a defect edge, for diagnostics.

    Vertices are listed away from the edge on both sides; the off-path
    neighbors are read in the working frame (the edge's color mapped to 2),
    so x1/y1 carry the frame color 5 and x2/y2 the frame color 4."""
    check_edge_id(g, e)
    work = _Work(g, f, None)
    work.reframe_edge2(e)
    eids, verts, cyc = work.comp_of(e, 1, 2)
    s = eids.index(e)
    if cyc:
        n = len(eids)
        span = min(n, 7)
        u_side = tuple(verts[(s - i) % n] for i in range(span))
        v_side = tuple(verts[(s + 1 + i) % n] for i in range(span))
    else:
        u_side = tuple(verts[s::-1])
        v_side = tuple(verts[s + 1:])

    def off_path(side, color):
        if len(side) < 2:
            return None
        eid = work.edge_at(side[1], color)
        return g.other_end(eid, side[1]) if eid >= 0 else None

    return PathWindow(
        u_side=u_side,
        v_side=v_side,
        x1=off_path(v_side, 5),
        x2=off_path(v_side, 4),
        y1=off_path(u_side, 5),
        y2=off_path(u_side, 4),
        is_cycle=cyc,
    )
