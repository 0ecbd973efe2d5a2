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
from kempe_edge.regular4_core import theorem_4_1_transform
from kempe_edge.vizing_reduce import reduce_to_delta_plus_one
from test_regular4_deep_cases import (
    _aa_instance,
    _ab_instance,
    _ac_instance,
    _bb_instance,
    _bc_instance,
    _cc_instance,
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
    "transform_delta4_irregular": (_delta4_irregular,
        "46c5c87569edb8efd8407da895b918e8d50c39470f191d1a51ba836bbff9283d",
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
