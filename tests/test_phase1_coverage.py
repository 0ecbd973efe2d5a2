"""Statement coverage of the phase-1 case machine, as a ratchet.

The workload is every golden family plus every test of the case machine and
its synthesized deep cases, run under `linetrace` limited to
`regular4_core`.  A statement that is not a `raise` and does not run must
be named in `PINNED`; a pinned statement that runs, or is gone, must leave
the list, so the list can only shrink.
"""
import collections

import linetrace
import test_golden_transcripts
import test_regular4_core
import test_regular4_deep_cases
from kempe_edge import regular4_core
from test_regular4_deep_cases import (
    _SEEDED_RARE,
    _run_and_collect,
    _seeded_rare_instance,
)

# (function, statement text) -> how many such statements never run.  No
# test reaches the six-cycle ending (c6), the length-7 path ending (p7), the
# B.2.3-45 correction of a distance-2 edge or the side swap before B.2.3.1.
PINNED = collections.Counter({
    ("_case_B23", "closing = g.edge_id(V[2], U[2])"): 1,
    ("_case_B23", "if closing is None or not work.correct1(closing):"): 1,
    ("_case_B23", 'work.recolor(closing, 5, "B.2.3-c6")'): 1,
    ("_case_B23", 'work.apply(1, 2, e, "B.2.3-c6")'): 1,
    ("_case_B23", "work.apply_expect(1, 5, closing, "
                  '{y1, U[1], U[2], V[2], V[1], x1}, "B.2.3-c6")'): 1,
    ("_case_B23", "return None"): 2,
    ("_case_B23", "e_u34 = g.edge_id(U[2], U[3])"): 1,
    ("_case_B23", "e_v34 = g.edge_id(V[2], V[3])"): 1,
    ("_case_B23", "for w4 in (U[3], V[3]):"): 1,
    ("_case_B23", "if w4 in (x1, y1):"): 1,
    ("_case_B23", 'work.apply(1, 2, e, "B.2.3-p7")'): 1,
    ("_case_B23", "work.apply_expect(1, 5, g.edge_id(U[1], y1), "
                  '{U[2], U[1], y1}, "B.2.3-p7")'): 1,
    ("_case_B23", "work.apply_expect(1, 5, g.edge_id(V[1], x1), "
                  '{V[2], V[1], x1}, "B.2.3-p7")'): 1,
    ("_case_B23", 'work.recolor(e_u34, 1, "B.2.3-p7")'): 1,
    ("_case_B23", 'work.recolor(e_v34, 1, "B.2.3-p7")'): 1,
    ("_case_B23", "if not cycle_len and len(W) == 4:"): 1,
    ("_case_B23", "pair, c = _window_b(work, [Z[0]] + list(W[:5]))"): 1,
    ("_case_B23", 'work.recolor(pair, c, "B.2.3-45")'): 1,
    ("_case_B23", "return e"): 1,
    ("_case_B23", "U, V = V, U"): 1,
    ("_case_B23", "x1, y1 = y1, x1"): 1,
})


def _traced(run) -> set:
    with linetrace.LineTracer(regular4_core) as tracer:
        run()
    return tracer.hit


def test_seeded_rare_branches_fire():
    for (n, s), branch in _SEEDED_RARE.items():
        hit = _traced(lambda: _run_and_collect(*_seeded_rare_instance(n, s)))
        ran = linetrace.executed(regular4_core, hit)
        assert not [key for key in branch if key not in ran], ((n, s), branch)


def _workload():
    for make, _ in test_golden_transcripts.GOLDEN.values():
        for _ in make():
            pass
    for module in (test_regular4_core, test_regular4_deep_cases):
        for name, test in sorted(vars(module).items()):
            if name.startswith("test_"):
                test()


def test_unexecuted_statements_are_pinned():
    missed = linetrace.unexecuted(regular4_core, _traced(_workload))
    missed = collections.Counter(
        {key[:2]: n for key, n in missed.items() if not key[2]}
    )
    assert missed - PINNED == collections.Counter(), "unexecuted, not pinned"
    assert PINNED - missed == collections.Counter(), "pinned, but runs or is gone"
