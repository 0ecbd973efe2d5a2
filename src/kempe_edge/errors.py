"""Exception hierarchy.

Every error carries a short machine-readable ``code`` used by the CLI to emit
its single-line JSON diagnostic.
"""


class KempeEdgeError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, detail=""):
        self.detail = detail
        super().__init__(detail)


class FormatError(KempeEdgeError):
    code = "bad_format"


class GraphInvariantError(KempeEdgeError):
    code = "bad_graph"


class MissingEdgeColor(KempeEdgeError):
    code = "missing_edge_color"


class ColorOutOfRange(KempeEdgeError):
    code = "color_out_of_range"


class EdgeOutOfRange(KempeEdgeError):
    code = "edge_out_of_range"


class NotProper(KempeEdgeError):
    code = "not_proper"


class EqualColors(KempeEdgeError):
    code = "equal_colors"


class RepEdgeNotBicolored(KempeEdgeError):
    code = "rep_edge_not_bicolored"


class EdgeNotIncident(KempeEdgeError):
    code = "edge_not_incident"


class NotSaturated(KempeEdgeError):
    code = "not_saturated"


class InvalidMoveAtIndex(KempeEdgeError):
    code = "invalid_move"

    def __init__(self, index, reason):
        self.index = index
        self.reason = reason
        super().__init__(f"move {index}: {reason}")


class PaletteTooSmall(KempeEdgeError):
    code = "palette_too_small"


class PaletteMismatch(KempeEdgeError):
    code = "palette_mismatch"


class MaxDegreeSubgraphCyclic(KempeEdgeError):
    code = "max_degree_subgraph_cyclic"


class NotRegular4(KempeEdgeError):
    code = "not_regular4"


class TargetNotProper4(KempeEdgeError):
    code = "target_not_proper4"


class PreconditionViolated(KempeEdgeError):
    code = "precondition_violated"


class WrongMaxDegree(KempeEdgeError):
    code = "wrong_max_degree"


class NoFreeLowColor(KempeEdgeError):
    code = "no_free_low_color"


class ProjectionMismatch(KempeEdgeError):
    code = "projection_mismatch"


class SearchBudgetExceeded(KempeEdgeError):
    code = "search_budget_exceeded"


class UnsupportedFamily(KempeEdgeError):
    code = "unsupported_family"


class BudgetExceeded(KempeEdgeError):
    code = "budget_exceeded"


class InfeasibleN(KempeEdgeError):
    code = "infeasible_n"


class UsageError(KempeEdgeError):
    """The command line does not parse: an unknown or missing option, a bad
    choice or an ill-typed value."""

    code = "usage_error"


class InternalInvariantError(KempeEdgeError):
    """A runtime certificate check failed.  Indicates a bug, not bad input."""

    code = "internal_invariant"
