"""Fixture generators: determinism and advertised properties."""
import pytest

from kempe_edge.errors import InfeasibleN
from kempe_edge.fixtures_gen import (
    acyclic_max_degree_graph,
    figure1_pair,
    octahedron,
    overfull_delta5,
    random_proper_coloring,
    random_regular4_class1,
)
from kempe_edge.graph_core import (
    MAX_VERTICES,
    color_class,
    induced_high_degree_subgraph,
    is_acyclic,
    is_proper,
)
from kempe_edge.oracle import chromatic_index, same_class


def test_octahedron_shape():
    g = octahedron()
    assert g.n == 6 and g.m == 12
    assert all(g.degree(v) == 4 for v in range(1, 7))
    # complement is the perfect matching {1-3, 2-5, 4-6}
    complement = {
        (u, v)
        for u in range(1, 7)
        for v in range(u + 1, 7)
        if g.edge_id(u, v) is None
    }
    assert complement == {(1, 3), (2, 5), (4, 6)}
    assert chromatic_index(g)[0] == 4


def test_figure1_pair_proper_and_separated():
    g = octahedron()
    f, h = figure1_pair()
    assert is_proper(g, f) and is_proper(g, h)
    assert f.t == h.t == 4
    ok4, _ = same_class(g, 4, f, h)
    assert not ok4


def test_random_regular4_class1_properties():
    for n in (6, 10, 14):
        g, w = random_regular4_class1(n, 5)
        assert all(g.degree(v) == 4 for v in range(1, n + 1))
        assert is_proper(g, w) and w.t == 4
        for k in range(1, 5):
            assert len(color_class(w, k)) == n // 2  # perfect matchings
    g1, w1 = random_regular4_class1(10, 77)
    g2, w2 = random_regular4_class1(10, 77)
    assert g1 == g2 and w1 == w2  # determinism
    with pytest.raises(InfeasibleN):
        random_regular4_class1(7, 0)
    with pytest.raises(InfeasibleN):
        random_regular4_class1(4, 0)
    with pytest.raises(InfeasibleN, match="need even n in 6..1048576"):
        random_regular4_class1(2 * MAX_VERTICES, 0)


def test_overfull_delta5_properties():
    g = overfull_delta5()
    assert sorted(g.degree(v) for v in range(1, 8)) == [4, 4, 4, 5, 5, 5, 5]
    assert g.m == 16
    assert g.m > 5 * 6 // 2  # overfull inequality
    assert chromatic_index(g)[0] == 6


def test_acyclic_max_degree_graph_properties():
    for seed in range(20):
        delta = 3 + seed % 4
        g = acyclic_max_degree_graph(delta, seed)
        assert g.max_degree() == delta
        sub, _ = induced_high_degree_subgraph(g, delta)
        assert is_acyclic(sub)
    assert acyclic_max_degree_graph(4, 3) == acyclic_max_degree_graph(4, 3)


def test_random_proper_coloring_deterministic_and_proper():
    g = octahedron()
    f1 = random_proper_coloring(g, 5, 42)
    f2 = random_proper_coloring(g, 5, 42)
    assert f1 == f2
    assert is_proper(g, f1)
