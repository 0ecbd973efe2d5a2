"""Golden transcripts: fixed small instances whose emitted transcripts are
pinned byte for byte.

Each family's digest is the sha256 of the `format_transcript` text of its
instances, in order, each followed by a `--` separator line.  A refactor of
the recorders, the fan engine or the swap loops must leave every digest
unchanged; a deliberate change to a transcript must say why and update the
digest here.
"""
import hashlib
import random

import pytest

from kempe_edge.acyclic_reduce import acyclic_reduce
from kempe_edge.degree4_lift import transform_delta4
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    overfull_delta5,
    random_graph,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import EdgeColoring, Graph, delete_edges
from kempe_edge.kempe_engine import apply_transcript, format_transcript
from kempe_edge.reductions import equalize
from kempe_edge.regular4_core import (
    _checked_work,
    _lemma_2_2_inner,
    _lemma_2_3_inner,
    theorem_4_1_transform,
)
from kempe_edge.vizing_reduce import reduce_to_delta_plus_one
from test_regular4_deep_cases import (
    _SEEDED_RARE,
    _B23_ENDINGS,
    _aa_instance,
    _ab_instance,
    _ac_instance,
    _b231_instance,
    _b232_instance,
    _b23_ending_instance,
    _bb_instance,
    _bc_instance,
    _cc_instance,
    _l22_instance,
    _lemma_2_3_cycle_instances,
    _seeded_rare_instance,
)


def _irregular4(n, seed, drop):
    """A 4-regular Class 1 graph minus `drop` seeded edges, with the
    restriction of its witness 4-coloring."""
    g, w = random_regular4_class1(n, seed)
    gone = sorted(random.Random(seed).sample(range(g.m), drop))
    sub, kept = delete_edges(g, gone)
    return sub, EdgeColoring(4, [w.colors[e] for e in kept])


def _vizing():
    for s in range(4):
        g = random_graph(40, 0.2, s)
        f = random_proper_coloring(g, g.max_degree() + 3, s)
        yield g, f, reduce_to_delta_plus_one(g, f)[1]


def _acyclic():
    for d in (3, 4, 5, 6):
        for s in range(3):
            g = acyclic_max_degree_graph(d, seed=d * 10 + s, n_extra=12)
            f = random_proper_coloring(g, d + 1, s)
            yield g, f, acyclic_reduce(g, f)[1]


def _theorem_4_1():
    for n in (16, 24, 40):
        for s in range(4):
            g, h = random_regular4_class1(n, s)
            f = random_proper_coloring(g, 5, 100 + s)
            yield g, f, theorem_4_1_transform(g, f, h)
    for make in (_aa_instance, _bb_instance, _cc_instance, _ac_instance):
        g, f, h = make()
        yield g, f, theorem_4_1_transform(g, f, h)


def _theorem_4_1_rare_cases():
    """Instances that reach case tags no other family reaches.  The random
    ones reach A.2.1, A.2.1-II, A.2.3, A.2.3-I, A.2.3-II, A.2.3-cut,
    A.2.3-x2, B.1-cut, B.1-flip, B.1-j3, B.2.2, win-target and win5; the
    two synthesized ones B.2.3.2-AB and B.2.3.2-BC."""
    for n, s in ((12, 1070), (16, 1486), (10, 468), (10, 803), (16, 10),
                 (8, 1131), (8, 1221), (8, 167), (12, 905), (40, 693)):
        g, h = random_regular4_class1(n, s)
        f = random_proper_coloring(g, 5, 1000 + s, node_cap=20000)
        yield g, f, theorem_4_1_transform(g, f, h)
    for make in (_ab_instance, _bc_instance):
        g, f, h = make()
        yield g, f, theorem_4_1_transform(g, f, h)


def _theorem_4_1_b231():
    """B.2.3.1 with v4's palette A, B and C, and two instances whose (4,5)
    claim from v3 fails and escapes."""
    for name in ("A", "B", "C", "B-esc1", "B-esc2"):
        g, f, h = _b231_instance(name)
        yield g, f, theorem_4_1_transform(g, f, h)


def _theorem_4_1_b232_swaps_and_escapes():
    """B.2.3.2 with the sides swapped (BA, CA, CB), and instances whose
    (c,5) claims fail on either side and escape."""
    for name in ("BA", "CA", "CB", "AB-esc", "BB-esc-u1", "BB-esc-u2",
                 "BB-esc-v", "CC-esc", "BC-esc"):
        g, f, h = _b232_instance(name)
        yield g, f, theorem_4_1_transform(g, f, h)


def _theorem_4_1_b23_endings():
    """B.2.3's six-cycle and seven-edge path endings, its correction of a
    distance-2 edge, and B.2.3.1 with the short side read second."""
    for tag in _B23_ENDINGS:
        g, f, h = _b23_ending_instance(tag)
        yield g, f, theorem_4_1_transform(g, f, h)


def _theorem_4_1_seeded_rare():
    """Seeded random instances reaching the mold loop, A.2.1-x1, A.2.2,
    A.2.3's u1 == x1 and u1 == x2 endings, A.2.1 through u1 == x2, a failed
    first window condition, and the Lemma 2.2 steps of B.1 and of B.2.3 on
    either side."""
    for n, s in _SEEDED_RARE:
        g, f, h = _seeded_rare_instance(n, s)
        yield g, f, theorem_4_1_transform(g, f, h)


def _lemma_2_2_second_configuration():
    """Outcome II through the (2,3) path from x1, on each of its branches."""
    for name in ("free", "v3", "x2"):
        g, f, h = _l22_instance(name)
        work = _checked_work(g, f, h)
        _lemma_2_2_inner(work, [1, 2, 3, 4, 5])
        yield g, f, work.tr


def _lemma_2_3_cycle():
    """Lemma 2.3 on a working component that is a cycle."""
    for g, f, h, xy in _lemma_2_3_cycle_instances():
        work = _checked_work(g, f, h)
        _lemma_2_3_inner(work, xy)
        yield g, f, work.tr


def _delta4_irregular():
    for n, s, drop in ((10, 1, 2), (12, 2, 3), (16, 3, 5), (20, 4, 1)):
        g, h = _irregular4(n, s, drop)
        f = random_proper_coloring(g, 6 + s % 2, s)
        yield g, f, transform_delta4(g, f, h)


def _equalize_low_degree():
    prism = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])
    c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for g in (prism, c5):
        f = random_proper_coloring(g, 4, 1)
        h = random_proper_coloring(g, 4, 3)
        yield g, f, equalize(g, f, h)


def _equalize_delta4():
    g, w = _irregular4(10, 4, 2)
    f = random_proper_coloring(g, 5, 1)
    h = random_proper_coloring(g, 5, 2)
    yield g, f, equalize(g, f, h, witness=w)


def _equalize_peel():
    k5 = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    acyc = acyclic_max_degree_graph(5, seed=15, n_extra=8)
    for g, t in ((k5, 6), (overfull_delta5(), 7), (acyc, 6)):
        f = random_proper_coloring(g, t, 1)
        h = random_proper_coloring(g, t, 2)
        yield g, f, equalize(g, f, h)


GOLDEN = {
    "reduce_to_delta_plus_one": (_vizing,
        "171e81c7da25aec04047fd032447ad70eb46b69a712ec291c284b1475e1780e5",
    ),
    "acyclic_reduce": (_acyclic,
        "e1c8c2e13d937b6694b69216f796465d87b53d922dd1b31e17005e3953cd73ee",
    ),
    "theorem_4_1_transform": (_theorem_4_1,
        "9e66397530291b1c7fd4076211b7b42ae530454c800770005b353657bd346c95",
    ),
    # taken before the phase-1 case machine was deduplicated
    "theorem_4_1_rare_cases": (_theorem_4_1_rare_cases,
        "dddac7a64e07184f00d4039f902c02f774fcd9645302c26992c0177e6e6dcc7f",
    ),
    # these four taken before B.2.3's endings, the path claim and the side
    # split were folded to one copy each
    "theorem_4_1_b232_swaps_and_escapes": (_theorem_4_1_b232_swaps_and_escapes,
        "fdc8c05556c1bfe55705749f501f9fd312345caa4300d51099e65668250af82b",
    ),
    "theorem_4_1_b231": (_theorem_4_1_b231,
        "324a6fd7750a23533c69b37b25a5378212d33ed10e1d050c05159692fdc4f960",
    ),
    # taken before B.2.3's four endings were folded into one
    "theorem_4_1_b23_endings": (_theorem_4_1_b23_endings,
        "482d08e620d2ab110c92458d1451e945ee48a32fae87cc0a1852a51ba37e8aad",
    ),
    # taken before A.2.x's helpers were inlined and A.2.3 given one ending
    "theorem_4_1_seeded_rare": (_theorem_4_1_seeded_rare,
        "4ee9d2ea8b7f1a1b664eaea27e3ece265318dfb5d2b1adb10ba416d02176e27f",
    ),
    "lemma_2_2_second_configuration": (_lemma_2_2_second_configuration,
        "d54ef26d4ec3028ab502ed5c3eb783c87dcbaacaeeb8fa59faf60c04f51b7e6b",
    ),
    "lemma_2_3_cycle": (_lemma_2_3_cycle,
        "a01c35d0a59afc60fef1a5994e6e2ed108e85c07293ffaa8b4329d2b5b536e5f",
    ),
    # re-pinned when gadget padding replaced the doubling tower: Theorem 4.1
    # now runs on one padded 4-regular graph, not on the tower's top, so the
    # top transcript and its projection differ (19/13/30/28 moves became
    # 19/13/31/25)
    "transform_delta4_irregular": (_delta4_irregular,
        "ad2966fd2da26b07497fb9ff20745184d165a66a78d30e5ca38a30a0cad857ea",
    ),
    "equalize_low_degree": (_equalize_low_degree,
        "c721ef3ac66cf00b41831344e504e609eb103ffd87cf2673c848ec5430b6d659",
    ),
    "equalize_delta4": (_equalize_delta4,
        "ac4075cebd4b59e8a1266d7420a1351f8d74ab85a84b8b316255c6f5e43a75d6",
    ),
    # both sides are peeled at once and the remainder is equalized between
    # them, not each side toward the witness: the close moves and their
    # inverse (2|M| moves) are gone, and deeper levels equalize side to side,
    # so 25/62/36 moves became 21/38/28
    "equalize_peel": (_equalize_peel,
        "fc579ef085eb744d6987d1ddbc91c7ab746728232b1b05def639358dd608ff7d",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_transcript_digest(family):
    make, expected = GOLDEN[family]
    digest = hashlib.sha256()
    for g, f, tr in make():
        assert len(tr) > 0
        apply_transcript(g, f, tr, check=True)
        digest.update(format_transcript(g, tr).encode())
        digest.update(b"--\n")
    assert digest.hexdigest() == expected
