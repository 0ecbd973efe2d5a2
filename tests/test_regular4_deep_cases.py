"""Synthesized configurations driving the deepest settled-window machinery.

Random sweeps essentially never produce the fully settled states (window
conditions holding on both sides, off-path palettes {2,3,4,5}/{1,3,4,5},
both distance-2 edges target-correct), so these instances are constructed:
the working (1,2)-component is a ten-cycle p0..p9 with working edge p0p1,
v2=p2 carries off-path neighbors x1, x2 and u2=p9 carries y1, y2, and every
certification path (the (3,4)/(3,5) probes of the window analysis, plus the
structural (4,5) paths of the pattern branches) is wired to end exactly
where the settled configuration demands.  The target coloring is completed
around a pinned perfect matching by backtracking.  B.2.3.1 and B.2.3's
length-7 path use a path frame instead, its six-cycle ending a six-cycle,
and Lemma 2.2's second configuration a bare five-vertex window;
Lemma 2.3 on a cycle component comes from seeded random interchanges.
"""
import random

from kempe_edge.fixtures_gen import random_proper_coloring, random_regular4_class1
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper
from kempe_edge.kempe_engine import KempeMove, apply_transcript
from kempe_edge.kernels import backend
from kempe_edge.regular4_core import (
    _checked_work,
    _lemma_2_2_inner,
    _lemma_2_3_inner,
    theorem_4_1_transform,
)

# vertex labels: p0..p9 -> 1..10; externals from 11 up
P = list(range(1, 11))
X1, X2, Y1, Y2 = 11, 12, 13, 14
Z1, Z2, Z3, Z4, W1, W2 = 15, 16, 17, 18, 19, 20


def _cycle_edges():
    """The (1,2)-colored ten-cycle; p0p1 is the working edge (color 2)."""
    out = []
    for i in range(10):
        u, v = P[i], P[(i + 1) % 10]
        color = 2 if i % 2 == 0 else 1
        out.append(((min(u, v), max(u, v)), color))
    return out


def _build(n, extra_edges, frame=None):
    colored = dict(_cycle_edges() if frame is None else frame)
    for (u, v), c in extra_edges:
        key = (min(u, v), max(u, v))
        assert key not in colored, f"duplicate edge {key}"
        colored[key] = c
    edges = sorted(colored)
    g = Graph(n, edges)
    f = EdgeColoring(5, [colored[e] for e in edges])
    bad = [(v, g.degree(v)) for v in range(1, n + 1) if g.degree(v) != 4]
    assert not bad, f"degrees off: {bad}"
    assert is_proper(g, f)
    return g, f


def _pinned_4coloring(g, pinned_1):
    """Proper 4-coloring with the given edges pinned to color 1."""
    colors = [0] * g.m
    used = [0] * (g.n + 1)
    for eid in pinned_1:
        u, v = g.edges[eid]
        assert not (used[u] | used[v]) & 2, f"pinned matching clashes at {g.edges[eid]}"
        colors[eid] = 1
        used[u] |= 2
        used[v] |= 2
    order = [e for e in range(g.m) if e not in set(pinned_1)]

    def rec(i):
        if i == len(order):
            return True
        eid = order[i]
        u, v = g.edges[eid]
        for c in range(2, 5):
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
        colors[eid] = 0
        return False

    if not rec(0):
        return None
    return EdgeColoring(4, colors)


_COMMON = [
    ((P[2], X1), 5),   # v2's 5-neighbor
    ((P[2], X2), 4),   # v2's 4-neighbor
    ((P[9], Y1), 5),   # u2's 5-neighbor
    ((P[9], Y2), 4),   # u2's 4-neighbor
    ((X1, Y1), 2),     # color 2 at x1 and y1
    ((X2, Y2), 1),     # color 1 at x2 and y2
    ((P[1], X2), 3),   # (3,4) probe from v1 ends at v2 via x2
]


def _aa_instance():
    """Pattern (A,A): both fourth vertices carry palette {1,2,3,4}."""
    extras = _COMMON + [
        ((P[3], X1), 3),   # (3,5) probe from v3 ends at v2 via x1
        # remaining 4-slots
        ((P[3], P[5]), 4), ((P[4], X1), 4), ((P[7], Y1), 4), ((P[8], P[6]), 4),
        # remaining 3-slots
        ((P[0], P[4]), 3), ((P[7], Y2), 3), ((P[8], Y1), 3),
        # remaining 5-slots
        ((P[0], P[5]), 5), ((P[1], Y2), 5), ((X2, P[6]), 5),
    ]
    g, f = _build(14, extras)
    pinned = [
        g.edge_id(P[0], P[1]),   # working edge, targeted 1
        g.edge_id(P[3], P[4]),   # v3v4 correct
        g.edge_id(P[7], P[8]),   # u3u4 correct
        g.edge_id(P[2], X1),
        g.edge_id(P[9], Y1),
        g.edge_id(X2, Y2),
        g.edge_id(P[5], P[6]),
    ]
    h = _pinned_4coloring(g, pinned)
    assert h is not None, "target completion infeasible"
    return g, f, h


def _bb_instance():
    """Pattern (B,B): fourth vertices carry {1,2,3,5}; the structural (4,5)
    paths are wired u3-y1-u2-y2-w1-w2-u1 and v3-x1-v2-x2-z1-z2-v1."""
    extras = _COMMON + [
        # (3,5) probe from v3 reaches v2 through z4, z3, x1
        ((P[3], Z4), 3), ((Z4, Z3), 5), ((Z3, X1), 3),
        # structural (4,5) path on the v side
        ((P[3], X1), 4), ((X2, Z1), 5), ((Z1, Z2), 4), ((Z2, P[1]), 5),
        # structural (4,5) path on the u side
        ((P[8], Y1), 4), ((Y2, W1), 5), ((W1, W2), 4), ((W2, P[0]), 5),
        # external matching carrying target-1 edges
        ((W1, Z1), 1), ((W2, Z3), 1), ((Z2, Z4), 1),
        # pattern-B fourth-vertex 5-slots
        ((P[4], P[7]), 5),
        # leftover 3-slots
        ((P[0], P[4]), 3), ((P[7], Y2), 3), ((P[8], P[5]), 3), ((Y1, P[6]), 3),
        # leftover 4- and 2-slots
        ((P[5], Z3), 4), ((P[6], Z4), 4), ((Z1, W2), 2), ((Z2, W1), 2),
    ]
    g, f = _build(20, extras)
    pinned = [
        g.edge_id(P[0], P[1]),
        g.edge_id(P[3], P[4]),
        g.edge_id(P[7], P[8]),
        g.edge_id(P[2], X1),
        g.edge_id(P[9], Y1),
        g.edge_id(X2, Y2),
        g.edge_id(P[5], P[6]),
        g.edge_id(W1, Z1),
        g.edge_id(W2, Z3),
        g.edge_id(Z2, Z4),
    ]
    h = _pinned_4coloring(g, pinned)
    assert h is not None, "target completion infeasible"
    return g, f, h


def _cc_instance():
    """Pattern (C,C): fourth vertices carry {1,2,4,5}; the (3,5) probe wires
    double as the pattern's structural (3,5) paths."""
    extras = _COMMON + [
        ((P[3], X1), 3),   # (3,5) path from v3 ends at v2 via x1
        # 4-slots
        ((P[3], P[5]), 4), ((P[4], X1), 4), ((P[7], Y1), 4), ((P[8], P[6]), 4),
        # 3-slots
        ((P[0], Y2), 3), ((P[8], Y1), 3),
        # 5-slots
        ((P[0], P[5]), 5), ((P[1], Y2), 5), ((X2, P[6]), 5), ((P[4], P[7]), 5),
    ]
    g, f = _build(14, extras)
    pinned = [
        g.edge_id(P[0], P[1]),
        g.edge_id(P[3], P[4]),
        g.edge_id(P[7], P[8]),
        g.edge_id(P[2], X1),
        g.edge_id(P[9], Y1),
        g.edge_id(X2, Y2),
        g.edge_id(P[5], P[6]),
    ]
    h = _pinned_4coloring(g, pinned)
    assert h is not None, "target completion infeasible"
    return g, f, h


def _ac_instance():
    """Mixed pattern: u4 carries {1,2,3,4}, v4 carries {1,2,4,5}."""
    extras = _COMMON + [
        ((P[3], X1), 3),
        # 4-slots
        ((P[3], P[5]), 4), ((P[4], X1), 4), ((P[7], Y1), 4), ((P[8], P[6]), 4),
        # 3-slots
        ((P[7], Y2), 3), ((P[8], Y1), 3), ((P[0], P[5]), 3),
        # 5-slots
        ((P[0], P[4]), 5), ((P[1], Y2), 5), ((X2, P[6]), 5),
    ]
    g, f = _build(14, extras)
    pinned = [
        g.edge_id(P[0], P[1]),
        g.edge_id(P[3], P[4]),
        g.edge_id(P[7], P[8]),
        g.edge_id(P[2], X1),
        g.edge_id(P[9], Y1),
        g.edge_id(X2, Y2),
        g.edge_id(P[5], P[6]),
    ]
    h = _pinned_4coloring(g, pinned)
    assert h is not None, "target completion infeasible"
    return g, f, h


def _ab_instance():
    """Mixed pattern: u4 carries {1,2,3,4}, v4 carries {1,2,3,5}; the v side
    is wired as in (B,B), the (4,5) path from v3 running
    v3-x1-v2-x2-z1-z2-v1.  Completed by a seeded random slot pairing."""
    extras = _COMMON + [
        # (3,5) probe from v3 reaches v2 through z4, z3, x1
        ((P[3], Z4), 3), ((Z4, Z3), 5), ((Z3, X1), 3),
        # structural (4,5) path on the v side
        ((P[3], X1), 4), ((X2, Z1), 5), ((Z1, Z2), 4), ((Z2, P[1]), 5),
        # pattern-A slots at u3 and u4, pattern-B slots at v4
        ((P[7], P[5]), 3), ((P[7], Z4), 4), ((P[8], P[5]), 4), ((P[8], Y2), 3),
        ((P[4], Y2), 5), ((W2, P[4]), 3),
        # the rest
        ((P[6], W2), 5), ((Z1, Y1), 3), ((Z1, Z3), 2), ((Z2, P[0]), 3),
        ((Z3, Z2), 1), ((Z4, W1), 1), ((W1, P[0]), 5), ((W1, P[6]), 4),
        ((W2, Y1), 4), ((W2, W1), 2),
    ]
    g, f = _build(20, extras)
    pinned = [
        g.edge_id(P[0], P[1]),
        g.edge_id(P[3], P[4]),
        g.edge_id(P[7], P[8]),
        g.edge_id(P[2], X1),
        g.edge_id(P[9], Y1),
        g.edge_id(X2, Y2),
        g.edge_id(P[5], P[6]),
        g.edge_id(Z1, Z2),
        g.edge_id(Z3, Z4),
        g.edge_id(W1, W2),
    ]
    h = _pinned_4coloring(g, pinned)
    assert h is not None, "target completion infeasible"
    return g, f, h


def _bc_instance():
    """Mixed pattern: u4 carries {1,2,3,5}, v4 carries {1,2,4,5}; the u side
    is wired as in (B,B), the (4,5) path from u3 running
    u3-y1-u2-y2-w1-w2-u1, and the (3,5) probe from v3 doubles as the
    structural (3,5) path.  Completed by a seeded random slot pairing."""
    extras = _COMMON + [
        ((P[3], X1), 3),   # (3,5) path from v3 ends at v2 via x1
        # structural (4,5) path on the u side
        ((P[8], Y1), 4), ((Y2, W1), 5), ((W1, W2), 4), ((W2, P[0]), 5),
        # pattern-B slots at u4, pattern-C slots at v4
        ((P[7], W1), 3), ((Z2, P[7]), 5), ((P[4], Z4), 4), ((X2, P[4]), 5),
        # the rest
        ((P[0], P[8]), 3), ((P[1], Z1), 5), ((P[5], P[3]), 4), ((P[5], Z3), 3),
        ((X1, Z3), 4), ((Y1, Z1), 3), ((Z1, Z2), 4), ((Z1, W2), 1),
        ((Z2, Z4), 2), ((Z3, Z2), 1), ((Z4, P[6]), 5), ((Z4, Y2), 3),
        ((W1, Z3), 2), ((W2, P[6]), 3),
    ]
    g, f = _build(20, extras)
    pinned = [
        g.edge_id(P[0], P[1]),
        g.edge_id(P[3], P[4]),
        g.edge_id(P[7], P[8]),
        g.edge_id(P[2], X1),
        g.edge_id(P[9], Y1),
        g.edge_id(X2, Y2),
        g.edge_id(P[5], P[6]),
        g.edge_id(Z1, W2),
        g.edge_id(Z2, Z4),
        g.edge_id(Z3, W1),
    ]
    h = _pinned_4coloring(g, pinned)
    assert h is not None, "target completion infeasible"
    return g, f, h


# B.2.3.1 frame: the working (1,2)-component is the path
# u4 u3 u2 u1 v1 v2 v3 v4 v5, working edge u1v1, both distance-2 edges u3u4
# and v3v4 target-correct.  The u side ends at its fourth vertex; the v side
# window is settled as in `_COMMON`, and u1 u2 u3 carry the same palettes.
_U1, _V1, _U4, _U2, _U3, _V2, _V3, _V4, _X1, _X2, _Y1, _Y2, _V5 = range(1, 14)
_Z1, _Z2, _Z3, _Z4 = range(14, 18)
_PATH_FRAME = [
    ((_U4, _U3), 1), ((_U3, _U2), 2), ((_U2, _U1), 1), ((_U1, _V1), 2),
    ((_V1, _V2), 1), ((_V2, _V3), 2), ((_V3, _V4), 1), ((_V4, _V5), 2),
    ((_V2, _X1), 5), ((_V2, _X2), 4), ((_V1, _X2), 3),
    ((_U2, _Y1), 5), ((_U2, _Y2), 4),
]
# v4's palette names the instance.  A and C: the (3,5) probe from v3 ends at
# v2 via x1.  B: the (3,5) probe runs v3-z4-z3-x1-v2 and the (4,5) path
# v3-x1-v2-x2-z1-z2-v1 as in `_bb_instance`; B-esc1 and B-esc2 keep only
# v3x1 = 4, so the (4,5) claim from v3 fails (far end off v1, and a path
# through u2).  The remaining edges and the target's 1-class were found by a
# seeded random slot pairing and are listed literally.
_B231 = {
    "A": (16, [((_V3, _X1), 3)], [
        ((1, 13), 5), ((1, 15), 3), ((2, 12), 5), ((3, 11), 3), ((3, 13), 4),
        ((3, 15), 5), ((5, 7), 4), ((5, 12), 3), ((8, 9), 4), ((8, 14), 3),
        ((9, 16), 2), ((10, 12), 1), ((10, 16), 5), ((11, 14), 2),
        ((11, 15), 4), ((13, 16), 3), ((14, 15), 1), ((14, 16), 4),
    ], [(1, 2), (3, 5), (4, 11), (6, 9), (7, 8), (10, 12), (13, 16), (14, 15)]),
    "C": (16, [((_V3, _X1), 3)], [
        ((1, 3), 3), ((1, 15), 5), ((2, 8), 5), ((3, 8), 4), ((3, 16), 5),
        ((5, 11), 3), ((5, 15), 4), ((7, 14), 4), ((9, 11), 2), ((9, 16), 4),
        ((10, 12), 5), ((10, 16), 1), ((11, 13), 4), ((12, 14), 1),
        ((12, 15), 3), ((13, 14), 5), ((13, 16), 3), ((14, 15), 2),
    ], [(1, 2), (3, 5), (4, 11), (6, 9), (7, 8), (10, 12), (13, 16), (14, 15)]),
    "B": (18, [
        ((_V3, _Z4), 3), ((_Z4, _Z3), 5), ((_Z3, _X1), 3),
        ((_V3, _X1), 4), ((_X2, _Z1), 5), ((_Z1, _Z2), 4), ((_Z2, _V1), 5),
    ], [
        ((1, 5), 3), ((1, 12), 5), ((3, 13), 5), ((3, 14), 3), ((3, 18), 4),
        ((5, 11), 4), ((8, 12), 3), ((8, 18), 5), ((9, 17), 2), ((10, 16), 1),
        ((11, 15), 2), ((11, 18), 3), ((12, 14), 1), ((13, 15), 3),
        ((13, 16), 4), ((17, 18), 1),
    ], [(1, 2), (3, 5), (4, 12), (6, 10), (7, 8), (9, 17), (11, 18), (13, 16),
        (14, 15)]),
    "B-esc1": (18, [
        ((_V3, _Z4), 3), ((_Z4, _Z3), 5), ((_Z3, _X1), 3), ((_V3, _X1), 4),
    ], [
        ((1, 5), 3), ((1, 18), 5), ((2, 8), 5), ((3, 8), 3), ((3, 13), 5),
        ((3, 18), 4), ((5, 15), 4), ((9, 14), 2), ((10, 12), 1), ((10, 15), 5),
        ((11, 12), 3), ((11, 15), 2), ((11, 17), 4), ((12, 14), 5),
        ((13, 14), 3), ((13, 16), 4), ((14, 15), 1), ((16, 18), 2),
        ((17, 18), 1),
    ], [(1, 2), (3, 5), (4, 12), (6, 9), (7, 8), (10, 15), (11, 17), (13, 14),
        (16, 18)]),
    "B-esc2": (18, [
        ((_V3, _Z4), 3), ((_Z4, _Z3), 5), ((_Z3, _X1), 3), ((_V3, _X1), 4),
    ], [
        ((1, 3), 5), ((1, 14), 3), ((2, 13), 5), ((3, 11), 3), ((3, 14), 4),
        ((5, 12), 3), ((5, 15), 4), ((8, 14), 5), ((8, 18), 3), ((9, 18), 2),
        ((10, 12), 5), ((10, 18), 1), ((11, 13), 4), ((11, 17), 2),
        ((12, 15), 1), ((13, 15), 3), ((14, 16), 1), ((15, 16), 2),
        ((17, 18), 4),
    ], [(1, 2), (3, 5), (4, 12), (6, 9), (7, 8), (10, 18), (11, 17), (13, 15),
        (14, 16)]),
}


def _b231_instance(name):
    """B.2.3.1 instance on the path frame; `name` is a key of `_B231`."""
    n, wiring, rest, ones = _B231[name]
    g, f = _build(n, wiring + rest, frame=_PATH_FRAME)
    h = _pinned_4coloring(g, [g.edge_id(a, b) for a, b in ones])
    assert h is not None, "target completion infeasible"
    return g, f, h


# B.2.3's other endings, keyed by the tag each must reach.
# - "B.2.3-c6": the working component is the six-cycle c0..c5 (1..6), with
#   x1, x2, y1, y2 = 7..10 and its closing edge c3c4 correct.
# - "B.2.3-p7": B-esc1 with v5z3 recolored from 4 to 1, then v4v5 from 2 to
#   4, so v4 ends the path as u4 does.
# - "B.2.3-45": `_aa_instance` with v3v4 = (4,5) off the target's 1-class.
# - "B.2.3.1": B.2.3.1's "A" with u4 (3) and v5 (13) relabeled, so the
#   path's smaller end lies on the long side.
_C6_FRAME = [((1, 2), 2), ((2, 3), 1), ((3, 4), 2), ((4, 5), 1), ((5, 6), 2),
             ((1, 6), 1)]
_C6_REST = [
    ((2, 8), 3), ((3, 8), 4), ((3, 7), 5), ((4, 7), 3), ((6, 9), 5),
    ((6, 10), 4), ((7, 9), 2), ((8, 10), 1), ((1, 5), 3), ((1, 8), 5),
    ((2, 10), 5), ((4, 9), 4), ((5, 7), 4), ((9, 10), 3),
]


def _b23_ending_instance(tag):
    """(g, f, h) reaching B.2.3's ending `tag`; see the note above."""
    if tag == "B.2.3-c6":
        g, f = _build(10, _C6_REST, frame=_C6_FRAME)
        ones = [(1, 2), (4, 5), (3, 7), (6, 9), (8, 10)]
        return g, f, _pinned_4coloring(g, [g.edge_id(a, b) for a, b in ones])
    if tag == "B.2.3-p7":
        g, f, h = _b231_instance("B-esc1")
        colors = list(f.colors)
        for (a, b), old, new in (((_V5, _Z3), 4, 1), ((_V4, _V5), 2, 4)):
            assert colors[g.edge_id(a, b)] == old
            colors[g.edge_id(a, b)] = new
        f = EdgeColoring(5, colors)
        assert is_proper(g, f)
        return g, f, h
    if tag == "B.2.3-45":
        g, f, _ = _aa_instance()
        ones = [(1, 2), (8, 9), (3, 4), (5, 6), (7, 12), (10, 14), (11, 13)]
        return g, f, _pinned_4coloring(g, [g.edge_id(a, b) for a, b in ones])
    g, f, h = _b231_instance("A")
    swap = {_U4: _V5, _V5: _U4}
    rows = sorted(
        (tuple(sorted(swap.get(v, v) for v in g.edges[e])), f.colors[e], h.colors[e])
        for e in range(g.m)
    )
    return (Graph(g.n, [r[0] for r in rows]), EdgeColoring(5, [r[1] for r in rows]),
            EdgeColoring(4, [r[2] for r in rows]))


_B23_ENDINGS = ("B.2.3-c6", "B.2.3-p7", "B.2.3-45", "B.2.3.1")


# More B.2.3.2 instances on the ten-cycle frame (n = 20), named by the
# palettes of u4 and v4.  BA, CA and CB are read with the sides swapped; the
# -esc ones fail a (c,5) claim from w3 and escape.  Wiring pieces: `_U45` is
# the u side's (4,5) path u3-y1-u2-y2-w1-w2-u1 of `_bb_instance`, `_V35` the
# (3,5) probe v3-x1-v2, `_V35_LONG` the probe v3-z4-z3-x1-v2 with v3x1 = 4,
# and `_V45` continues that (4,5) path x2-z1-z2-v1.  The remaining edges and
# three more target 1-edges were found by a seeded random slot pairing.
_U45 = [((P[8], Y1), 4), ((Y2, W1), 5), ((W1, W2), 4), ((W2, P[0]), 5)]
_V35 = [((P[3], X1), 3)]
_V35_LONG = [((P[3], Z4), 3), ((Z4, Z3), 5), ((Z3, X1), 3), ((P[3], X1), 4)]
_V45 = [((X2, Z1), 5), ((Z1, Z2), 4), ((Z2, P[1]), 5)]
_FRAME_ONES = [(P[0], P[1]), (P[3], P[4]), (P[7], P[8]), (P[2], X1),
               (P[9], Y1), (X2, Y2), (P[5], P[6])]
_B232 = {
    "BA": (_U45 + _V35, [
        ((1, 18), 3), ((2, 6), 5), ((4, 16), 4), ((5, 7), 4), ((5, 13), 3),
        ((6, 15), 4), ((7, 15), 3), ((8, 14), 3), ((8, 17), 5), ((9, 20), 3),
        ((11, 18), 4), ((12, 16), 5), ((15, 17), 2), ((15, 18), 1),
        ((16, 18), 2), ((16, 19), 1), ((17, 19), 3), ((17, 20), 1),
    ], [(15, 18), (16, 19), (17, 20)]),
    "CA": (_V35, [
        ((1, 14), 3), ((1, 20), 5), ((2, 16), 5), ((4, 17), 4), ((5, 11), 4),
        ((5, 17), 3), ((6, 13), 4), ((6, 15), 3), ((7, 9), 3), ((7, 16), 4),
        ((8, 12), 5), ((8, 18), 4), ((9, 19), 4), ((13, 20), 3),
        ((14, 17), 5), ((15, 18), 2), ((15, 19), 1), ((15, 20), 4),
        ((16, 18), 1), ((16, 19), 2), ((17, 20), 2), ((18, 19), 5),
    ], [(15, 19), (16, 18), (17, 20)]),
    "CB": (_V35_LONG + _V45, [
        ((1, 5), 5), ((1, 19), 3), ((5, 14), 3), ((6, 9), 4), ((6, 19), 5),
        ((7, 15), 3), ((7, 19), 4), ((8, 14), 5), ((8, 17), 4), ((9, 20), 3),
        ((13, 16), 3), ((13, 20), 4), ((15, 17), 1), ((16, 20), 2),
        ((18, 19), 2), ((18, 20), 1),
    ], [(15, 17), (16, 20), (18, 19)]),
    "AB-esc": (_V35_LONG, [
        ((1, 12), 5), ((1, 15), 3), ((2, 15), 5), ((5, 14), 3), ((5, 20), 5),
        ((6, 8), 3), ((6, 16), 5), ((7, 9), 3), ((7, 13), 4), ((8, 19), 4),
        ((9, 20), 4), ((13, 19), 3), ((14, 19), 5), ((15, 17), 2),
        ((15, 18), 4), ((16, 17), 4), ((16, 18), 1), ((16, 20), 2),
        ((19, 20), 1),
    ], [(15, 18), (16, 17), (19, 20)]),
    "BB-esc-u1": (_V35_LONG + _V45, [
        ((1, 7), 5), ((1, 16), 3), ((5, 15), 3), ((5, 19), 5), ((6, 9), 3),
        ((6, 20), 5), ((7, 14), 3), ((8, 13), 3), ((8, 14), 5), ((9, 18), 4),
        ((13, 20), 4), ((15, 18), 2), ((16, 19), 1), ((17, 19), 4),
        ((17, 20), 2), ((19, 20), 3),
    ], [(15, 18), (16, 19), (17, 20)]),
    "BB-esc-u2": (_V35_LONG + _V45, [
        ((1, 9), 3), ((1, 20), 5), ((5, 7), 3), ((5, 8), 5), ((6, 14), 3),
        ((6, 17), 4), ((7, 14), 5), ((8, 13), 3), ((9, 20), 4), ((13, 19), 4),
        ((15, 18), 2), ((15, 20), 3), ((16, 19), 3), ((16, 20), 1),
        ((17, 19), 2), ((18, 19), 1),
    ], [(15, 18), (16, 20), (17, 19)]),
    "BB-esc-v": (_U45 + _V35_LONG, [
        ((1, 19), 3), ((2, 8), 5), ((5, 7), 5), ((5, 13), 3), ((6, 15), 5),
        ((6, 16), 4), ((7, 15), 4), ((8, 14), 3), ((9, 20), 3), ((12, 16), 5),
        ((15, 17), 2), ((15, 18), 1), ((16, 18), 2), ((16, 20), 1),
        ((17, 19), 1),
    ], [(15, 17), (16, 18), (19, 20)]),
    "CC-esc": (_V35, [
        ((1, 8), 5), ((1, 14), 3), ((2, 16), 5), ((4, 8), 4), ((5, 14), 5),
        ((5, 19), 4), ((6, 18), 3), ((6, 20), 5), ((7, 12), 5), ((7, 17), 3),
        ((9, 15), 4), ((9, 19), 3), ((11, 17), 4), ((13, 16), 3),
        ((13, 20), 4), ((15, 18), 1), ((15, 19), 5), ((15, 20), 3),
        ((16, 17), 2), ((16, 18), 4), ((17, 20), 1), ((18, 19), 2),
    ], [(15, 20), (16, 17), (18, 19)]),
    "BC-esc": (_V35, [
        ((1, 5), 5), ((1, 8), 3), ((2, 20), 5), ((4, 13), 4), ((5, 15), 4),
        ((6, 11), 4), ((6, 17), 3), ((7, 9), 3), ((7, 18), 4), ((8, 18), 5),
        ((9, 17), 4), ((12, 16), 5), ((13, 20), 3), ((14, 16), 3),
        ((14, 17), 5), ((15, 16), 2), ((15, 19), 5), ((15, 20), 1),
        ((16, 18), 1), ((17, 19), 1), ((18, 19), 3), ((19, 20), 2),
    ], [(15, 20), (16, 18), (17, 19)]),
}


def _b232_instance(name):
    """B.2.3.2 instance on the ten-cycle frame; `name` is a key of `_B232`."""
    wiring, rest, ones = _B232[name]
    g, f = _build(20, _COMMON + wiring + rest)
    h = _pinned_4coloring(g, [g.edge_id(a, b) for a, b in _FRAME_ONES + ones])
    assert h is not None, "target completion infeasible"
    return g, f, h


# Lemma 2.2's second configuration: on the window u1 v1 v2 v3 v4 (vertices
# 1..5) the window conditions hold with x1 = 6, x2 = 7, color 1 is present
# at x2 and color 2 missing at x1, so the (2,3) path from x1 decides.  Keys
# name where that path goes: "free" avoids v3 and x2 (the (3,5) probe runs
# v3-8-9-x1-v2), "v3" passes v3, "x2" ends at x2 through u1.  The remaining
# edges and the target's 1-class are listed literally (seeded slot pairing).
_L22_WINDOW = [((1, 2), 2), ((2, 3), 1), ((3, 4), 2), ((4, 5), 1),
               ((3, 6), 5), ((3, 7), 4), ((2, 7), 3)]
_L22 = {
    "free": (12, [((4, 8), 3), ((8, 9), 5), ((9, 6), 3)], [
        ((1, 5), 4), ((1, 6), 1), ((1, 10), 3), ((2, 11), 5), ((4, 9), 4),
        ((5, 11), 3), ((5, 12), 5), ((6, 11), 4), ((7, 10), 5), ((7, 12), 1),
        ((8, 10), 1), ((8, 12), 4), ((9, 12), 2), ((10, 11), 2),
    ], [(1, 2), (3, 4), (5, 11), (6, 9), (7, 10), (8, 12)]),
    "v3": (10, [((4, 6), 3)], [
        ((1, 7), 5), ((1, 8), 3), ((1, 9), 1), ((2, 5), 5), ((4, 10), 4),
        ((5, 8), 4), ((5, 10), 2), ((6, 7), 1), ((6, 9), 4), ((8, 9), 2),
        ((8, 10), 5), ((9, 10), 3),
    ], [(1, 2), (3, 4), (5, 8), (6, 7), (9, 10)]),
    "x2": (12, [((4, 8), 3), ((8, 1), 5), ((1, 6), 3)], [
        ((1, 12), 1), ((2, 5), 5), ((4, 12), 4), ((5, 8), 4), ((5, 11), 3),
        ((6, 9), 1), ((6, 10), 4), ((7, 10), 1), ((7, 12), 5), ((8, 11), 1),
        ((9, 10), 3), ((9, 11), 4), ((9, 12), 2), ((10, 11), 2),
    ], [(1, 2), (3, 4), (5, 8), (6, 9), (7, 12), (10, 11)]),
}


def _l22_instance(name):
    """(g, f, h) for Lemma 2.2 on the window [1, 2, 3, 4, 5]."""
    n, wiring, rest, ones = _L22[name]
    g, f = _build(n, wiring + rest, frame=_L22_WINDOW)
    h = _pinned_4coloring(g, [g.edge_id(a, b) for a, b in ones])
    assert h is not None, "target completion infeasible"
    return g, f, h


def _lemma_2_3_cycle_instances():
    """(g, f, h, xy) with xy's working (1,2)-component a cycle of at least
    ten edges whose correct 1-edges all lie at distance >= 3 from xy.

    f is the witness h of `random_regular4_class1(n, seed)` read at palette
    5 and moved by k seeded interchanges, then renamed so f(xy) = 2.  The
    two instances settle their first window on either side of xy."""
    for n, seed, k, xy in ((12, 5, 8, 0), (16, 2, 8, 8)):
        g, h = random_regular4_class1(n, seed)
        rng = random.Random(seed * 10 + k)
        colors = list(h.colors)
        for _ in range(k):
            a, b = rng.sample(range(1, 6), 2)
            e = rng.randrange(g.m)
            if colors[e] in (a, b):
                for x in backend.trace_component(g, colors, a, b, e)[0]:
                    colors[x] = b if colors[x] == a else a
        c = colors[xy]
        f = EdgeColoring(5, [{c: 2, 2: c}.get(x, x) for x in colors])
        yield g, f, h, xy


# Seeded random instances that reach phase-1 branches no synthesized frame
# reaches, found by a seeded search over n = 8..16.  Each (n, s) maps to the
# statements of `regular4_core` it must run, named as in `linetrace`:
# (function, statement text).
_B23_LEMMA_2_2 = 'return _lemma_2_2_step(work, e, win, "B.2.3", False)'
_SEEDED_RARE = {
    # B.2.3's mold loop, and its escape when the mold path ends off target
    (8, 7185): [("_case_B23", 'work.apply(ca, cb, rep, "B.2.3-mold")'),
                ("_case_B23",
                 'if _cut_window(work, uwin, "B.2.3-mold-esc") is not None:')],
    (10, 2825): [("_case_A", 'work.apply(1, 2, e, "A.2.1-x1")')],
    (10, 42616): [("_case_A", "work.apply_expect(2, 5, g.edge_id(P[2], x1), "
                               '{x1, P[2], P[3]}, "A.2.2")')],
    # A.2.3 outcome I with u1 == x1 re-dispatches on v3v4
    (10, 3583): [("_case_A", "return e34")],
    # a failed first window condition on the u side, then B.1's Lemma 2.2 step
    (12, 18803): [("_window_holds", "return False"),
                  ("_case_B1", 'return _lemma_2_2_step(work, e, pv, "B.1", True)')],
    # A.2.1 reached through u1 == x2 (the golden digest tells it apart)
    (10, 39991): [("_case_A", 'work.apply(1, 2, e, "A.2.1")')],
    # B.2.3's off-path Lemma 2.2 step on the u side, then on the v side (one
    # statement serves both; the golden digest tells them apart)
    (10, 60444): [("_case_B23", _B23_LEMMA_2_2)],
    (14, 108245): [("_case_B23", _B23_LEMMA_2_2)],
    # A.2.3 with u1 == x2 and no color 2 at x1 ends in Lemma 2.3 on v3v4
    (12, 110528): [("_case_A", "return _lemma_2_3_inner(work, e34)")],
}


def _seeded_rare_instance(n, s):
    """(g, f, h) for the `_SEEDED_RARE` key (n, s)."""
    g, h = random_regular4_class1(n, s)
    return g, random_proper_coloring(g, 5, 10_000 + s), h


def _run_and_collect(g, f, h):
    stats = []
    tr = theorem_4_1_transform(g, f, h, stats)
    final = apply_transcript(g, f, tr)
    assert final.colors == h.colors
    assert all(after > before for before, after in stats)
    return set(a for a in tr.annotations if a)


def _complete_slots(n, colored, slot_colors, seed):
    """Pair open (vertex, color) slots into edges (seeded, with retries)."""
    import random

    rng = random.Random(seed)
    existing = set(colored)
    for _ in range(400):
        edges = []
        by_color = {}
        for v, c in slot_colors:
            by_color.setdefault(c, []).append(v)
        ok = True
        taken = set(existing)
        for c, verts in sorted(by_color.items()):
            vs = verts[:]
            rng.shuffle(vs)
            if len(vs) % 2:
                ok = False
                break
            while vs:
                a = vs.pop()
                partners = [b for b in vs if b != a and (min(a, b), max(a, b)) not in taken]
                if not partners:
                    ok = False
                    break
                b = rng.choice(partners)
                vs.remove(b)
                taken.add((min(a, b), max(a, b)))
                edges.append(((a, b), c))
            if not ok:
                break
        if ok:
            return edges
    return None


def _case_a21_instance(seed):
    """Settled length-4 window for Case A: u1 carries no 1-edge, v4 ends the
    path, v3v4 is target-correct, x palettes are fully settled."""
    U1, V1, V2, V3, V4 = 1, 2, 3, 4, 5
    XX1, XX2 = 6, 7
    zs = [8, 9, 10, 11, 12]  # padding pool
    colored = {
        (U1, V1): 2, (V1, V2): 1, (V2, V3): 2, (V3, V4): 1,
        (V2, XX1): 5, (V2, XX2): 4,
        (V1, XX2): 3,   # (3,4) probe from v1 ends at v2
        (V3, XX1): 3,   # (3,5) probe from v3 ends at v2
    }
    slots = (
        [(U1, 3), (U1, 4), (U1, 5)]
        + [(V1, 5), (V3, 4)]
        + [(V4, 3), (V4, 4), (V4, 5)]
        + [(XX1, 2), (XX1, 4), (XX2, 1), (XX2, 5)]
    )
    # padding vertices absorb whatever keeps everyone at degree 4
    need = {v: 4 for v in zs}
    pad_slots = []
    for v in zs:
        for c in (1, 2, 3, 4, 5):
            pad_slots.append((v, c))
    # choose pad slot multiset: each z vertex gets 4 distinct colors
    import random

    rng = random.Random(seed)
    pads = []
    for v in zs:
        cs = rng.sample([1, 2, 3, 4, 5], 4)
        pads.extend((v, c) for c in cs)
    extra = _complete_slots(12, colored, slots + pads, seed)
    if extra is None:
        return None
    all_edges = dict(colored)
    for (a, b), c in extra:
        all_edges[(min(a, b), max(a, b))] = c
    edges = sorted(all_edges)
    g = Graph(12, edges)
    if any(g.degree(v) != 4 for v in range(1, 13)):
        return None
    f = EdgeColoring(5, [all_edges[e] for e in edges])
    if not is_proper(g, f):
        return None
    # the working component must stop at v4 and at u1
    from kempe_edge.kernels import backend

    comp, verts, cyc = backend.trace_component(
        g, list(f.colors), 1, 2, g.edge_id(U1, V1)
    )
    if cyc or len(comp) != 4 or set(verts) != {U1, V1, V2, V3, V4}:
        return None
    # target: pin the working edge, the correct distance-2 edge, and a
    # perfect-matching completion
    pins = [g.edge_id(U1, V1), g.edge_id(V3, V4)]
    covered = {U1, V1, V3, V4}
    rest = [v for v in range(1, 13) if v not in covered]

    def match(rest):
        if not rest:
            return []
        a = rest[0]
        for b in rest[1:]:
            eid = g.edge_id(a, b)
            if eid is None:
                continue
            sub = match([v for v in rest if v not in (a, b)])
            if sub is not None:
                return [eid] + sub
        return None

    more = match(rest)
    if more is None:
        return None
    h = _pinned_4coloring(g, pins + more)
    if h is None:
        return None
    return g, f, h


def test_case_a21_settled_window_fires():
    hits = set()
    for seed in range(200):
        inst = _case_a21_instance(seed)
        if inst is None:
            continue
        g, f, h = inst
        notes = _run_and_collect(g, f, h)
        hits |= notes
        if "A.2.1" in hits or "A.2.1-x1" in hits or "A.2.2" in hits:
            break
    assert "A.2.1" in hits or "A.2.1-x1" in hits or "A.2.2" in hits, hits


def test_b232_pattern_aa_fires_and_completes():
    g, f, h = _aa_instance()
    matched = sum(1 for a, b in zip(f.colors, h.colors) if a == b == 1)
    assert matched < len([e for e, c in enumerate(h.colors) if c == 1])
    notes = _run_and_collect(g, f, h)
    assert "B.2.3.2-AA" in notes, notes


def test_b232_pattern_bb_fires_and_completes():
    g, f, h = _bb_instance()
    notes = _run_and_collect(g, f, h)
    assert "B.2.3.2-BB" in notes, notes


def test_b232_pattern_cc_fires_and_completes():
    g, f, h = _cc_instance()
    notes = _run_and_collect(g, f, h)
    assert "B.2.3.2-CC" in notes, notes


def test_b232_pattern_ac_fires_and_completes():
    g, f, h = _ac_instance()
    notes = _run_and_collect(g, f, h)
    assert "B.2.3.2-AC" in notes, notes


def test_b232_pattern_ab_fires_and_completes():
    g, f, h = _ab_instance()
    notes = _run_and_collect(g, f, h)
    assert "B.2.3.2-AB" in notes, notes


def test_b232_pattern_bc_fires_and_completes():
    g, f, h = _bc_instance()
    notes = _run_and_collect(g, f, h)
    assert "B.2.3.2-BC" in notes, notes


def test_deep_instances_complete_from_every_defect():
    """The synthesized states must resolve from any defect edge."""
    for make in (_aa_instance, _bb_instance, _cc_instance, _ac_instance,
                 _ab_instance, _bc_instance):
        g, f, h = make()
        _run_and_collect(g, f, h)


def test_b231_fires_and_completes():
    """B.2.3.1 on each palette of v4; the B-esc instances stop at the
    (4,5) claim from v3 and escape instead."""
    for name in sorted(_B231):
        g, f, h = _b231_instance(name)
        notes = _run_and_collect(g, f, h)
        tag = "B.2.3-claim-esc" if name.startswith("B-esc") else "B.2.3.1"
        assert tag in notes, (name, notes)


def _b23_ending_fires(tag):
    g, f, h = _b23_ending_instance(tag)
    notes = _run_and_collect(g, f, h)
    assert tag in notes, (tag, notes)


def test_b23_six_cycle_fires_and_completes():
    _b23_ending_fires("B.2.3-c6")


def test_b23_seven_edge_path_fires_and_completes():
    _b23_ending_fires("B.2.3-p7")


def test_b23_distance_2_correction_fires_and_completes():
    _b23_ending_fires("B.2.3-45")


def test_b231_with_the_short_side_second_fires_and_completes():
    _b23_ending_fires("B.2.3.1")


def test_lemma_2_2_second_configuration():
    """Outcome II through the (2,3) path from x1, on each of its three
    branches; color 1 leaves v1 and the matched count is kept."""
    # the first move swaps the (2,3) path at x1's 3-edge, on "v3" at x2's
    for name, first, moves in (("free", (6, 9), 5), ("v3", (2, 7), 3),
                               ("x2", (1, 6), 3)):
        g, f, h = _l22_instance(name)
        work = _checked_work(g, f, h)
        out = _lemma_2_2_inner(work, [1, 2, 3, 4, 5])
        assert out == ("II",), (name, out)
        f2, tr = work.coloring(), work.tr
        assert len(tr) == moves, (name, len(tr))
        assert set(tr.annotations) == {"win-target"}
        assert tr.moves[0] == KempeMove(2, 3, g.edge_id(*first)), name
        final = apply_transcript(g, f, tr)
        assert final.colors == f2.colors
        assert 1 not in {final.colors[e] for _, e in g.adj[2]}
        matched = lambda c: sum(1 for a, b in zip(c.colors, h.colors) if a == b == 1)
        assert matched(final) == matched(f)


def test_lemma_2_3_on_a_cycle_component():
    for g, f, h, xy in _lemma_2_3_cycle_instances():
        eids, _, cyc = backend.trace_component(g, list(f.colors), 1, 2, xy)
        assert cyc and len(eids) >= 10
        assert any(f.colors[e] == h.colors[e] == 1 for e in eids)
        work = _checked_work(g, f, h)
        assert _lemma_2_3_inner(work, xy) is None
        f2, tr = work.coloring(), work.tr
        assert "flip-cut" in tr.annotations and tr.annotations[-1] == "flip"
        assert apply_transcript(g, f, tr).colors == f2.colors
        matched = lambda c: sum(1 for a, b in zip(c.colors, h.colors) if a == b == 1)
        assert matched(f2) > matched(f)


def test_b232_swapped_and_escaping_patterns():
    expect = {"BA": "B.2.3.2-AB", "CB": "B.2.3.2-BC"}
    for name in sorted(_B232):
        g, f, h = _b232_instance(name)
        notes = _run_and_collect(g, f, h)
        tag = expect.get(name, "B.2.3-claim-esc")
        assert tag in notes, (name, notes)
