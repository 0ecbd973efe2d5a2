"""kempe_edge: certified transformations between proper edge colorings.

The library turns constructive Kempe-interchange reachability arguments into
executable transforms: palette reduction by fan recoloring, the reduction to
maximum degree when the max-degree subgraph is acyclic, the 4-regular
five-to-four case machine, the padding to 4-regular for maximum degree 4,
and the recursive peeling reductions.  Every transform emits a transcript of single
interchanges that can be replayed and re-verified move by move, and an
exhaustive oracle independently decides equivalence on small instances.

The public names are the transforms, transcript replay, file I/O and the
oracle, with the value types and engine steps they are built from.  The
lemma steps of the case machine and the acyclic reduction's walk are
internal to their modules.
"""

from .acyclic_reduce import acyclic_reduce
from .degree4_lift import (
    build_tower,
    lift_coloring,
    low_degree_equalize,
    project_transcript,
    transform_delta4,
)
from .errors import KempeEdgeError
from .graph_core import (
    EdgeColoring,
    Graph,
    bicolored_subgraph,
    color_class,
    induced_high_degree_subgraph,
    is_acyclic,
    is_proper,
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
)
from .kempe_engine import (
    Fan,
    KempeMove,
    Transcript,
    apply_transcript,
    downshift,
    grow_fan,
    interchange,
    involution_check,
    read_transcript,
    write_transcript,
)
from .oracle import chromatic_index, kempe_classes, same_class
from .reductions import equalize, maximalize_top_class, peel_and_recurse
from .regular4_core import theorem_4_1_transform
from .vizing_reduce import reduce_to_delta_plus_one

__version__ = "0.1.0"

__all__ = [
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
