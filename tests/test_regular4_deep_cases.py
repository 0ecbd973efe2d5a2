"""Synthesized configurations driving the deepest settled-window machinery.

Random sweeps essentially never produce the fully settled states (window
conditions holding on both sides, off-path palettes {2,3,4,5}/{1,3,4,5},
both distance-2 edges target-correct), so these instances are constructed:
the working (1,2)-component is a ten-cycle p0..p9 with working edge p0p1,
v2=p2 carries off-path neighbors x1, x2 and u2=p9 carries y1, y2, and every
certification path (the (3,4)/(3,5) probes of the window analysis, plus the
structural (4,5) paths of the pattern branches) is wired to end exactly
where the settled configuration demands.  The target coloring is completed
around a pinned perfect matching by backtracking.
"""
from kempe_edge.graph_core import EdgeColoring, Graph, is_proper
from kempe_edge.kempe_engine import apply_transcript
from kempe_edge.regular4_core import theorem_4_1_transform

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


def _build(n, extra_edges):
    colored = dict(_cycle_edges())
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


def _run_and_collect(g, f, h):
    stats = []
    tr = theorem_4_1_transform(g, f, h, stats)
    final = apply_transcript(g, f, tr, check=True)
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
