"""The layers the traced run measures, and the per-layer metrics.

Every per-layer metric is per pass of the workload's op list (totals over
the traced passes divided by their number), so counts repeat exactly from
run to run and times compare across runs of different lengths.  Names are
``<module>.<what>``:

- ``.calls``  calls of the span;
- ``.s``      self seconds: the span's time minus the time of traced spans
              it called, so no interval is counted twice, also under
              recursion (``equalize`` -> ``peel_and_recurse`` -> ``equalize``);
- ``.incl_s`` seconds of the outermost calls, children included;
- counts (``states``, ``moves``, ``rounds``, ...) and ratios, each ratio
  named with its base.
"""
from __future__ import annotations

import importlib

import tracer


def _moves(result, args, kwargs):
    return {"moves": len(result)}


def _pair_moves(result, args, kwargs):
    return {"moves": len(result[1])}


def _replayed(result, args, kwargs):
    tr = args[2] if len(args) > 2 else kwargs["tr"]
    return {"moves": len(tr.moves)}


def _phase_moves(result, args, kwargs):
    phase2 = sum(1 for note in result.annotations if note == "phase2")
    return {"phase1_moves": len(result.moves) - phase2, "phase2_moves": phase2}


def _states(result, args, kwargs):
    return {"states": len(result)}


def _enumerated(result, args, kwargs):
    return {"states": len(result[0])}


def _colorings(result, args, kwargs):
    return {"colorings": result.total_colorings}


# (module, function, span, count, position of its `stats` list or None)
LAYER_SPANS = (
    ("degree4_lift", "_equalize_search", "degree4_lift.search", _moves, None),
    ("degree4_lift", "_agreement", "degree4_lift.agreement", None, None),
    ("degree4_lift", "build_tower", "degree4_lift.tower.build", None, None),
    ("degree4_lift", "lift_coloring", "degree4_lift.tower.lift", None, None),
    ("degree4_lift", "project_transcript", "degree4_lift.tower.project", _moves, None),
    ("degree4_lift", "transform_delta4", "degree4_lift.transform_delta4", None, None),
    ("regular4_core", "theorem_4_1_transform", "regular4_core.theorem", _phase_moves, 3),
    ("vizing_reduce", "reduce_to_delta_plus_one", "vizing_reduce", _pair_moves, None),
    ("kempe_engine", "apply_transcript", "kempe_engine.replay", _replayed, None),
    ("oracle", "same_class", "oracle.same_class", None, None),
    ("oracle", "kempe_classes", "oracle.kempe_classes", _colorings, None),
    ("oracle", "chromatic_index", "oracle.chromatic_index", None, None),
    ("reductions", "equalize", "reductions.equalize", None, None),
    ("reductions", "peel_and_recurse", "reductions.peel", None, None),
    ("acyclic_reduce", "acyclic_reduce", "acyclic_reduce", _pair_moves, 2),
)

# kernel functions of `kernels.backend`: (name, span, count)
KERNEL_SPANS = (
    ("trace_component", "kernels.trace_component", None),
    ("is_proper", "kernels.is_proper", None),
    ("kempe_neighbor_moves", "kernels.kempe_neighbor_moves", _states),
    ("kempe_neighbors", "kernels.kempe_neighbors", _states),
    ("enumerate_proper", "kernels.enumerate_proper", _enumerated),
)

SEARCH = "degree4_lift.search"
THEOREM = "regular4_core.theorem"
REPLAY = "kempe_engine.replay"
SAME_CLASS = "oracle.same_class"
NEIGHBOR_MOVES = "kernels.kempe_neighbor_moves"


class Traced:
    def __init__(self, clock):
        self.tracer = tracer.Tracer(clock)
        spans = [
            (importlib.import_module(f"kempe_edge.{mod}"), fn, name, count, stats)
            for mod, fn, name, count, stats in LAYER_SPANS
        ]
        self.restore = tracer.install(self.tracer, spans, KERNEL_SPANS)

    def stop(self):
        self.restore()

    def metrics(self, passes, scale, produce_s, certify_s, backend_compiled):
        """Per-layer metrics per pass.  Span seconds are multiplied by
        `scale`, the reference-speed factor of the traced passes;
        `produce_s` and `certify_s` are the benchmark's own per-pass totals
        (already scaled), the bases of the share ratios."""
        t = self.tracer

        def calls(name):
            return t.calls[name] / passes

        def self_s(name):
            return t.self_s[name] * scale / passes

        def incl_s(name):
            return t.incl_s[name] * scale / passes

        def count(name, key):
            return t.counts[name, key] / passes

        def under_s(outer, name):
            return t.under_s[outer, name] * scale / passes

        def ratio(num, den):
            return num / den if den else 0.0

        out = {"kernels.backend_compiled": int(backend_compiled)}
        for kname, name, _ in KERNEL_SPANS:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = self_s(name)
        for name in (NEIGHBOR_MOVES, "kernels.kempe_neighbors", "kernels.enumerate_proper"):
            out[f"{name}.states"] = count(name, "states")

        generated = t.under_counts[SEARCH, NEIGHBOR_MOVES, "states"] / passes
        search_incl = incl_s(SEARCH)
        out.update({
            f"{SEARCH}.calls": calls(SEARCH),
            f"{SEARCH}.s": self_s(SEARCH),
            f"{SEARCH}.incl_s": search_incl,
            f"{SEARCH}.expanded": t.under_calls[SEARCH, NEIGHBOR_MOVES] / passes,
            f"{SEARCH}.generated": generated,
            f"{SEARCH}.agreement_calls": calls("degree4_lift.agreement"),
            f"{SEARCH}.agreement_s": self_s("degree4_lift.agreement"),
            f"{SEARCH}.moves": count(SEARCH, "moves"),
            f"{SEARCH}.useful_ratio": ratio(count(SEARCH, "moves"), generated),
            f"{SEARCH}.produce_share": ratio(search_incl, produce_s),
            "degree4_lift.tower.build_s": self_s("degree4_lift.tower.build"),
            "degree4_lift.tower.lift_s": self_s("degree4_lift.tower.lift"),
            "degree4_lift.tower.project_s": self_s("degree4_lift.tower.project"),
            "degree4_lift.tower.projected_moves": count("degree4_lift.tower.project", "moves"),
            "degree4_lift.transform_delta4.calls": calls("degree4_lift.transform_delta4"),
            "degree4_lift.transform_delta4.s": self_s("degree4_lift.transform_delta4"),
            "regular4_core.calls": calls(THEOREM),
            "regular4_core.s": self_s(THEOREM),
            "regular4_core.phase1_s": incl_s(THEOREM) - under_s(THEOREM, SEARCH),
            "regular4_core.rounds": count(THEOREM, "rounds"),
            "regular4_core.phase1_moves": count(THEOREM, "phase1_moves"),
            "regular4_core.phase2_moves": count(THEOREM, "phase2_moves"),
            "vizing_reduce.calls": calls("vizing_reduce"),
            "vizing_reduce.s": self_s("vizing_reduce"),
            "vizing_reduce.moves": count("vizing_reduce", "moves"),
            f"{REPLAY}.calls": calls(REPLAY),
            f"{REPLAY}.s": self_s(REPLAY),
            f"{REPLAY}.incl_s": incl_s(REPLAY),
            f"{REPLAY}.moves": count(REPLAY, "moves"),
            f"{REPLAY}.is_proper_s": under_s(REPLAY, "kernels.is_proper"),
            f"{REPLAY}.trace_s": under_s(REPLAY, "kernels.trace_component"),
            f"{REPLAY}.is_proper_certify_share": ratio(
                under_s(REPLAY, "kernels.is_proper"), certify_s
            ),
            f"{SAME_CLASS}.calls": calls(SAME_CLASS),
            f"{SAME_CLASS}.s": self_s(SAME_CLASS),
            f"{SAME_CLASS}.states": t.under_calls[SAME_CLASS, NEIGHBOR_MOVES] / passes,
            "oracle.kempe_classes.calls": calls("oracle.kempe_classes"),
            "oracle.kempe_classes.s": self_s("oracle.kempe_classes"),
            "oracle.kempe_classes.colorings": count("oracle.kempe_classes", "colorings"),
            "oracle.chromatic_index.calls": calls("oracle.chromatic_index"),
            "oracle.chromatic_index.s": self_s("oracle.chromatic_index"),
            "reductions.equalize.calls": calls("reductions.equalize"),
            "reductions.equalize.s": self_s("reductions.equalize"),
            "reductions.peel.calls": calls("reductions.peel"),
            "reductions.peel.s": self_s("reductions.peel"),
            "acyclic_reduce.calls": calls("acyclic_reduce"),
            "acyclic_reduce.s": self_s("acyclic_reduce"),
            "acyclic_reduce.moves": count("acyclic_reduce", "moves"),
            "acyclic_reduce.rounds": count("acyclic_reduce", "rounds"),
            "bench.produce_s": produce_s,
            "bench.certify_s": certify_s,
        })
        return out


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"
