"""The package's public names: the transforms, replay, file I/O and the
oracle, plus the value types and the engine steps that acceptance and the
benchmark import.  A name joins or leaves only by editing this list."""
import kempe_edge

PUBLIC = [
    "EdgeColoring",
    "Fan",
    "Graph",
    "KempeEdgeError",
    "KempeMove",
    "Transcript",
    "acyclic_reduce",
    "apply_transcript",
    "bicolored_subgraph",
    "build_tower",
    "chromatic_index",
    "color_class",
    "downshift",
    "equalize",
    "grow_fan",
    "induced_high_degree_subgraph",
    "interchange",
    "involution_check",
    "is_acyclic",
    "is_proper",
    "kempe_classes",
    "lift_coloring",
    "low_degree_equalize",
    "maximalize_top_class",
    "peel_and_recurse",
    "project_transcript",
    "read_coloring",
    "read_graph",
    "read_transcript",
    "reduce_to_delta_plus_one",
    "same_class",
    "theorem_4_1_transform",
    "transform_delta4",
    "write_coloring",
    "write_graph",
    "write_transcript",
]


def test_public_names_are_pinned_and_import():
    assert len(PUBLIC) == 36
    assert sorted(kempe_edge.__all__) == PUBLIC
    namespace = {}
    exec("from kempe_edge import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(kempe_edge, name)
