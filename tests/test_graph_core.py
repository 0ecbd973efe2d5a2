"""Graph/coloring value types, derived subgraphs, and the file formats."""
import pytest

from kempe_edge.acyclic_reduce import case_a_step, walk_init
from kempe_edge.errors import (
    ColorOutOfRange,
    EdgeOutOfRange,
    EqualColors,
    FormatError,
    GraphInvariantError,
    MissingEdgeColor,
    NotProper,
)
from kempe_edge.fixtures_gen import figure1_pair, octahedron, random_proper_coloring
from kempe_edge.graph_core import (
    EdgeColoring,
    Graph,
    bicolored_subgraph,
    color_class,
    delete_edges,
    format_coloring,
    format_graph,
    induced_high_degree_subgraph,
    is_acyclic,
    is_proper,
    palette_at,
    parse_coloring,
    parse_graph,
)
from kempe_edge.kempe_engine import Fan, KempeMove, downshift, grow_fan, interchange
from kempe_edge.regular4_core import describe_window, lemma_2_3


def triangle():
    return Graph(3, [(1, 2), (2, 3), (1, 3)])


def test_graph_canonicalizes_and_validates():
    g = Graph(3, [(2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.edge_id(1, 2) == 0 and g.edge_id(2, 1) == 0
    assert g.other_end(0, 1) == 2
    with pytest.raises(GraphInvariantError):
        Graph(2, [(1, 1)])
    with pytest.raises(GraphInvariantError):
        Graph(2, [(1, 2), (2, 1)])
    with pytest.raises(GraphInvariantError):
        Graph(2, [(1, 3)])


def test_is_proper_basic():
    g = Graph(2, [(1, 2)])
    assert is_proper(g, EdgeColoring(1, [1]))
    path = Graph(3, [(1, 2), (2, 3)])
    assert not is_proper(path, EdgeColoring(2, [2, 2]))
    # colors c and c+32 at one vertex are distinct colors (a 32-bit color
    # mask would alias them)
    assert is_proper(path, EdgeColoring(33, [1, 33]))
    assert is_proper(path, EdgeColoring(64, [32, 64]))
    with pytest.raises(MissingEdgeColor):
        is_proper(path, EdgeColoring(2, [1]))
    with pytest.raises(ColorOutOfRange):
        is_proper(path, EdgeColoring(2, [1, 3]))


def test_octahedron_coloring_proper_and_classes_are_perfect_matchings():
    from kempe_edge.fixtures_gen import figure1_pair

    g = octahedron()
    f, _ = figure1_pair()
    # independent adjacent-pair scan
    for v in range(1, 7):
        colors = [f.colors[eid] for _, eid in g.adj[v]]
        assert len(colors) == len(set(colors))
    assert is_proper(g, f)
    for k in range(1, 5):
        cls = color_class(f, k)
        assert len(cls) == 3
        verts = [v for eid in cls for v in g.edges[eid]]
        assert len(set(verts)) == 6  # perfect matching


def test_color_class_trivial():
    g = Graph(2, [(1, 2)])
    f = EdgeColoring(2, [1])
    assert color_class(f, 2) == frozenset()
    tri = triangle()
    f3 = EdgeColoring(3, [1, 2, 3])
    assert color_class(f3, 2) == frozenset({1})
    with pytest.raises(ColorOutOfRange):
        color_class(f3, 4)


def test_palette_above_byte_range_is_typed_error():
    from kempe_edge import oracle

    assert EdgeColoring(255, [255]).t == 255
    with pytest.raises(ColorOutOfRange):
        EdgeColoring(256, [1])
    path = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ColorOutOfRange):
        oracle.same_class(
            path, 300, EdgeColoring(300, [256, 1]), EdgeColoring(300, [1, 256])
        )
    # a palette argument above the bound fails before any state is built
    with pytest.raises(ColorOutOfRange):
        oracle.same_class(path, 300, EdgeColoring(3, [2, 1]), EdgeColoring(3, [1, 2]))
    with pytest.raises(ColorOutOfRange):
        oracle.kempe_classes(path, 256)


def test_vertex_palette_size_matches_degree_when_proper():
    g = triangle()
    f = EdgeColoring(3, [1, 2, 3])
    for v in (1, 2, 3):
        assert len(palette_at(g, f, v)) == g.degree(v)


def test_bicolored_subgraph_path_and_cycle():
    tri = triangle()
    comps = bicolored_subgraph(tri, EdgeColoring(3, [1, 2, 3]), 1, 2)
    assert len(comps) == 1 and comps[0].kind == "path"
    assert len(comps[0].edge_ids) == 2
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    comps = bicolored_subgraph(c4, EdgeColoring(2, [1, 2, 1, 2]), 1, 2)
    assert len(comps) == 1 and comps[0].kind == "cycle"
    with pytest.raises(EqualColors):
        bicolored_subgraph(tri, EdgeColoring(3, [1, 2, 3]), 2, 2)
    with pytest.raises(NotProper):
        bicolored_subgraph(
            Graph(3, [(1, 2), (2, 3)]), EdgeColoring(2, [1, 1]), 1, 2
        )


def test_bicolored_subgraph_octahedron_even_cycles():
    from kempe_edge.fixtures_gen import figure1_pair

    g = octahedron()
    f, _ = figure1_pair()
    comps = bicolored_subgraph(g, f, 1, 2)
    covered = set()
    for comp in comps:
        assert comp.kind == "cycle"
        assert len(comp.edge_ids) % 2 == 0
        covered.update(comp.edge_ids)
    assert covered == set(color_class(f, 1) | color_class(f, 2))


def test_high_degree_subgraph():
    g, _ = induced_high_degree_subgraph(octahedron(), 5)
    assert g.n == 0 and g.m == 0
    star = Graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
    sub, vmap = induced_high_degree_subgraph(star, 5)
    assert sub.n == 1 and sub.m == 0 and vmap == [1]
    # K5 plus pendant vertex: only the attachment vertex reaches degree 5
    k5p = Graph(
        6,
        [(u, v) for u in range(1, 6) for v in range(u + 1, 6)] + [(1, 6)],
    )
    sub, vmap = induced_high_degree_subgraph(k5p, 5)
    assert sub.n == 1 and vmap == [1]
    sub_delta, _ = induced_high_degree_subgraph(k5p, k5p.max_degree())
    assert sub_delta.n == 1


def test_is_acyclic():
    assert is_acyclic(Graph(0, []))
    assert not is_acyclic(triangle())
    assert is_acyclic(Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]))


def test_graph_format_round_trip():
    g = octahedron()
    text = format_graph(g)
    assert text.startswith("p edge 6 12\n")
    assert parse_graph(text) == g
    assert parse_graph("c comment\n" + text) == g
    with pytest.raises(FormatError):
        parse_graph("e 1 2\n")
    with pytest.raises(FormatError):
        parse_graph("p edge 3 1\ne 2 1\n")
    with pytest.raises(FormatError):
        parse_graph("p edge 3 2\ne 1 2\n")


def test_coloring_format_round_trip():
    g = triangle()
    f = EdgeColoring(3, [1, 2, 3])
    text = format_coloring(g, f)
    assert text == "t 3\ne 1 2 1\ne 2 3 2\ne 1 3 3\n"
    assert parse_coloring(text, g) == f
    with pytest.raises(FormatError):
        parse_coloring("t 3\ne 1 2 1\ne 2 3 2\n", g)  # missing an edge
    with pytest.raises(FormatError):
        parse_coloring(text + "e 1 2 1\n", g)  # duplicate
    with pytest.raises(FormatError):
        parse_coloring("t 2\ne 1 2 1\ne 2 3 2\ne 1 3 3\n", g)  # out of range


@pytest.mark.parametrize(
    "call",
    [
        lambda g, f, h, e: interchange(g, f, KempeMove(1, 2, e)),
        lambda g, f, h, e: grow_fan(g, f, 1, e),
        lambda g, f, h, e: downshift(g, f, Fan(5, (e,), ()), 3),
        lambda g, f, h, e: describe_window(g, f, e),
        lambda g, f, h, e: lemma_2_3(g, f, h, e),
        lambda g, f, h, e: case_a_step(g, f, e),
        lambda g, f, h, e: walk_init(g, f, e),
    ],
    ids=[
        "interchange",
        "grow_fan",
        "downshift",
        "describe_window",
        "lemma_2_3",
        "case_a_step",
        "walk_init",
    ],
)
@pytest.mark.parametrize("edge", ["minus_one", "m"])
def test_edge_id_out_of_range_is_typed_error(call, edge):
    """Id m is past the end, and id -1 must not be read as edge m - 1."""
    g = octahedron()
    # seed 1: color 3 is missing at both ends of edge m - 1 = (5, 6), so a
    # downshift of the fan (5, (-1,)) would otherwise go through
    f = random_proper_coloring(g, 5, 1)
    _, h = figure1_pair()
    e = -1 if edge == "minus_one" else g.m
    with pytest.raises(EdgeOutOfRange, match=f"edge id {e} not in 0..{g.m - 1}"):
        call(g, f, h, e)


@pytest.mark.parametrize("edge", ["minus_one", "m", "none"])
def test_delete_edges_rejects_bad_ids(edge):
    """None is `Graph.edge_id` of a non-edge; no bad id may leave the whole
    graph standing."""
    g = octahedron()
    e = {"minus_one": -1, "m": g.m, "none": g.edge_id(1, 3)}[edge]
    assert (edge == "none") == (e is None)
    with pytest.raises(EdgeOutOfRange, match=f"edge id {e} not in 0..{g.m - 1}"):
        delete_edges(g, [0, e])
