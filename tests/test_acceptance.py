"""Acceptance criteria, one test per criterion, each printing a PASS line.

Runs at the stated tolerances.  The transform runs of criteria 1 and 4-6
are module fixtures, so the oracle consistency criterion can revisit every
one executed on a small graph when it runs alone or in any order.
"""
import random
import time

import pytest

from kempe_edge.acyclic_reduce import acyclic_reduce
from kempe_edge.degree4_lift import _pad_to_regular4, project_transcript, transform_delta4
from kempe_edge.errors import UnsupportedFamily
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    figure1_pair,
    octahedron,
    overfull_delta5,
    random_graph,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import (
    EdgeColoring,
    Graph,
    color_class,
    is_proper,
    write_coloring,
    write_graph,
)
from kempe_edge.kempe_engine import apply_transcript, downshift, grow_fan, involution_check, KempeMove
from kempe_edge.kernels import backend
from kempe_edge.oracle import chromatic_index, kempe_classes, same_class
from kempe_edge.reductions import equalize
from kempe_edge.regular4_core import theorem_4_1_transform
from kempe_edge.vizing_reduce import reduce_to_delta_plus_one

def _report(num, detail):
    print(f"criterion {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def regular4_runs():
    """Criterion 1 workload, shared with criterion 2."""
    runs = []
    t0 = time.time()
    for n in (6, 8, 10, 12, 14):
        for seed in range(20):
            g, h = random_regular4_class1(n, seed)
            f = random_proper_coloring(g, 5, seed * 1009 + n)
            stats = []
            tr = theorem_4_1_transform(g, f, h, stats)
            final = apply_transcript(g, f, tr)
            runs.append((g, f, h, tr, stats, final))
    return runs, time.time() - t0


def test_acceptance_1_theorem_4_1_end_to_end(regular4_runs):
    runs, elapsed = regular4_runs
    assert len(runs) == 100
    failures = 0
    for g, f, h, tr, stats, final in runs:
        if final.colors != h.colors:
            failures += 1
    assert failures == 0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds the 60s budget"
    _report(1, f"100/100 seeded instances reach the target exactly ({elapsed:.1f}s)")


def test_acceptance_2_matched_count_monovariant(regular4_runs):
    runs, _ = regular4_runs
    violations = 0
    rounds = 0
    for g, f, h, tr, stats, final in runs:
        for before, after in stats:
            rounds += 1
            if after <= before:
                violations += 1
    assert violations == 0
    _report(2, f"matched count strictly increased in {rounds} phase-1 rounds")


def test_acceptance_3_corollary_1_4_figure_1():
    t0 = time.time()
    g = octahedron()
    rep5 = kempe_classes(g, 5)
    rep4 = kempe_classes(g, 4)
    assert rep5.class_count == 1
    assert rep4.class_count >= 2
    f, h = figure1_pair()
    ok4, _ = same_class(g, 4, f, h)
    ok5, tr5 = same_class(g, 5, EdgeColoring(5, f.colors), EdgeColoring(5, h.colors))
    assert not ok4 and ok5
    assert apply_transcript(g, EdgeColoring(5, f.colors), tr5).colors == h.colors
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds the 120s budget"
    _report(
        3,
        f"palette 5 has 1 class over {rep5.total_colorings} colorings, palette 4 "
        f"has {rep4.class_count}; committed pair separated/reconnected ({elapsed:.1f}s)",
    )


def _k5_minus_edge():
    return Graph(
        5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6) if (u, v) != (4, 5)]
    )


def _criterion4_graphs():
    """Criterion 4's graphs: Delta = 4, non-regular, Class 1."""
    return [
        Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)
                  if (u, v) not in {(3, 5), (4, 5)}]),
        Graph(6, [e for e in octahedron().edges if e != (5, 6)]),
        Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
    ]


@pytest.fixture(scope="module")
def padded_runs():
    """Criterion 4 workload: (g, t, f, h, final) per padded transform."""
    runs = []
    for gi, g in enumerate(_criterion4_graphs()):
        assert g.max_degree() == 4 and g.min_degree() < 4
        chi, h = chromatic_index(g)
        assert chi == 4
        for t in (5, 6, 7):
            f = random_proper_coloring(g, t, 31 * gi + t)
            tr = transform_delta4(g, f, h)
            final = apply_transcript(g, f, tr)
            runs.append((g, t, f, h, final))
    return runs


def test_acceptance_4_theorem_1_3(padded_runs):
    # The criterion names K5-minus-an-edge as a Class 1 fixture.  It is not:
    # 9 edges exceed Delta * floor(n/2) = 8, so it is overfull, hence Class 2,
    # and no witness 4-coloring exists to transform onto.  The suite proves
    # the defect and runs the criterion's substance on three graphs that do
    # satisfy its stated requirements (Delta = 4, non-regular, Class 1).
    # The transform pads each one with direct edges and gadgets to a
    # 4-regular graph, runs Theorem 4.1 there and projects the transcript
    # back.
    ke = _k5_minus_edge()
    assert ke.m > ke.max_degree() * (ke.n // 2)
    chi_ke, _ = chromatic_index(ke)
    assert chi_ke == 5  # Class 2: the spec's premise cannot be instantiated

    failures = 0
    runs = 0
    for g, t, f, h, final in padded_runs:
        runs += 1
        if final.colors != h.colors:
            failures += 1
    # restriction invariant, checked explicitly on the padded graph of each
    # graph: it is 4-regular and g on its first edge ids, and the top
    # transcript projects straight onto g (project_transcript also
    # lockstep-asserts internally)
    for gi, g in enumerate(_criterion4_graphs()):
        _, h = chromatic_index(g)
        f = random_proper_coloring(g, 5, 5 + gi)
        big, f_big, h_big = _pad_to_regular4(g, f, h)
        assert all(big.degree(v) == 4 for v in range(1, big.n + 1))
        assert big.edges[:g.m] == g.edges and f_big.colors[:g.m] == f.colors
        top_tr = theorem_4_1_transform(big, f_big, h_big)
        top_final = apply_transcript(big, f_big, top_tr)
        small_final = apply_transcript(g, f, project_transcript(g, big, f_big, top_tr))
        assert small_final.colors == top_final.colors[:g.m] == h.colors
    assert failures == 0
    _report(
        4,
        f"{runs}/9 padded runs exact; restriction invariant verified; spec's "
        "K5-minus-edge fixture proven Class 2 (defect)",
    )


@pytest.fixture(scope="module")
def acyclic_runs():
    """Criterion 5 workload: (g, delta, f, out, stats, final) per reduction,
    and the seconds the 50 reductions took."""
    runs = []
    t0 = time.time()
    seed = 0
    while len(runs) < 50:
        delta = 3 + len(runs) % 4
        g = acyclic_max_degree_graph(delta, seed)
        seed += 1
        if g.n > 20:
            continue
        f = random_proper_coloring(g, delta + 1, seed)
        stats = []
        out, tr = acyclic_reduce(g, f, stats)
        final = apply_transcript(g, f, tr)
        runs.append((g, delta, f, out, stats, final))
    return runs, time.time() - t0


def test_acceptance_5_proposition_3_1(acyclic_runs):
    runs, elapsed = acyclic_runs
    failures = 0
    for g, delta, f, out, stats, final in runs:
        if final.colors != out.colors or out.t != delta:
            failures += 1
        if not all(before > after for before, after in stats):
            failures += 1
    assert failures == 0
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds the 30s budget"
    _report(5, f"50/50 reductions with strictly decreasing top class ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def vizing_runs():
    """Criterion 6 workload: (g, f, out, final) per palette reduction."""
    runs = []
    seed = 0
    while len(runs) < 100:
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 16), 0.45, seed)
        seed += 1
        if g.m == 0:
            continue
        d = g.max_degree()
        f = random_proper_coloring(g, d + 2, seed)
        out, tr = reduce_to_delta_plus_one(g, f)
        final = apply_transcript(g, f, tr)  # validates every move
        runs.append((g, f, out, final))
    return runs


def test_acceptance_6_theorem_A(vizing_runs):
    failures = 0
    for g, f, out, final in vizing_runs:
        d = g.max_degree()
        if final.colors != out.colors or any(c > d + 1 for c in out.colors):
            failures += 1
    assert failures == 0
    _report(6, "100/100 palette reductions to Delta+1 with all moves valid")


def test_acceptance_7_corollary_1_5():
    g = overfull_delta5()
    chi, _ = chromatic_index(g)
    assert chi == 6
    failures = 0
    for seed in range(10):
        f = random_proper_coloring(g, 7, seed)
        h = random_proper_coloring(g, 7, seed + 1000)
        tr = equalize(g, f, h)
        final = apply_transcript(g, f, tr)
        if final.colors != h.colors:
            failures += 1
    # reduced instance where the full BFS is feasible: K5 at palette 6
    k5 = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    f = random_proper_coloring(k5, 6, 7)
    h = random_proper_coloring(k5, 6, 8)
    tr = equalize(k5, f, h)
    assert apply_transcript(k5, f, tr).colors == h.colors
    ok, _ = same_class(k5, 6, f, h)
    assert ok
    assert failures == 0
    _report(7, "10/10 overfull pairs connected; K5 endpoints oracle-confirmed")


@pytest.fixture(scope="module")
def small_runs(regular4_runs, padded_runs, acyclic_runs, vizing_runs):
    """(graph, palette, start colors, end colors) of every run of criteria 1
    and 4-6 on a graph with m <= 14, for criterion 8."""
    runs = [(g, 5, f.colors, h.colors) for g, f, h, _, _, _ in regular4_runs[0]]
    runs += [(g, t, f.colors, h.colors) for g, t, f, h, _ in padded_runs]
    runs += [
        (g, delta + 1, f.colors, out.colors)
        for g, delta, f, out, _, _ in acyclic_runs[0]
    ]
    runs += [
        (g, g.max_degree() + 2, f.colors, final.colors)
        for g, f, _, final in vizing_runs
    ]
    return [(g, t, tuple(start), tuple(end)) for g, t, start, end in runs if g.m <= 14]


def test_acceptance_8_oracle_consistency(small_runs):
    assert small_runs, "criteria 1 and 4-6 must supply small runs"
    disagreements = 0
    checked = 0
    for g, t, start, end in small_runs:
        ok, _ = same_class(g, t, EdgeColoring(t, start), EdgeColoring(t, end))
        if not ok:
            disagreements += 1
        checked += 1
    assert disagreements == 0
    _report(8, f"oracle confirmed reachability for {checked} transform runs (m <= 14)")


def test_acceptance_9_engine_properties():
    rng = random.Random(2024)
    involutions = 0
    attempts = 0
    while involutions < 1000 and attempts < 4000:
        attempts += 1
        g = random_graph(rng.randint(3, 10), 0.5, attempts)
        if g.m == 0:
            continue
        t = g.max_degree() + 1 + (attempts % 2)
        f = random_proper_coloring(g, t, attempts)
        eid = rng.randrange(g.m)
        a = f.colors[eid]
        b = rng.choice([c for c in range(1, t + 1) if c != a])
        assert involution_check(g, f, KempeMove(a, b, eid))
        involutions += 1
    assert involutions == 1000

    expansions = 0
    attempts = 0
    while expansions < 1000 and attempts < 6000:
        attempts += 1
        g = random_graph(rng.randint(4, 11), 0.5, 10_000 + attempts)
        if g.m < 2:
            continue
        t = g.max_degree() + 2
        f = random_proper_coloring(g, t, attempts)
        pivot = max(range(1, g.n + 1), key=g.degree)
        fan = grow_fan(g, f, pivot, g.adj[pivot][0][1])
        leaf = g.other_end(fan.edges[-1], pivot)
        free = [
            c
            for c in range(1, t + 1)
            if c not in {f.colors[e] for _, e in g.adj[pivot]}
            and c not in {f.colors[e] for _, e in g.adj[leaf]}
        ]
        if not free:
            continue
        out, tr = downshift(g, f, fan, free[0])
        # independent re-check: replay each expanded move and measure its
        # component before applying it
        colors = list(f.colors)
        for mv in tr.moves:
            comp, _, _ = backend.trace_component(g, colors, mv.a, mv.b, mv.rep_edge)
            assert len(comp) == 1
            colors[mv.rep_edge] = mv.b if colors[mv.rep_edge] == mv.a else mv.a
        assert colors == list(out.colors)
        expansions += 1
    assert expansions == 1000
    _report(9, "1000 involutions and 1000 single-edge downshift expansions verified")


def test_acceptance_10_unsupported_family_negative_path(tmp_path):
    from kempe_edge.cli import main

    k6 = Graph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    chi, _ = chromatic_index(k6)
    assert chi == 5  # Class 1 with Delta 5 and a cyclic degree->=5 subgraph
    write_graph(tmp_path / "k6.graph", k6)
    write_coloring(tmp_path / "f.col", k6, random_proper_coloring(k6, 6, 1))
    write_coloring(tmp_path / "h.col", k6, random_proper_coloring(k6, 6, 2))
    code = main([
        "transform", "--graph", str(tmp_path / "k6.graph"),
        "--from", str(tmp_path / "f.col"), "--to", str(tmp_path / "h.col"),
        "--out", str(tmp_path / "tr.txt"), "--mode", "auto",
    ])
    assert code == 1
    assert not (tmp_path / "tr.txt").exists()  # no wrong transcript emitted
    with pytest.raises(UnsupportedFamily):
        equalize(k6, random_proper_coloring(k6, 6, 1), random_proper_coloring(k6, 6, 2))
    _report(10, "open-case input exits with unsupported_family and no transcript")
