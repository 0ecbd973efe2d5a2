"""Statement coverage of the phase-1 case machine, as a ratchet.

The workload is every golden family plus every test of the case machine and
its synthesized deep cases, run under `linetrace` limited to
`regular4_core`.  A statement that is not a `raise` and does not run must
be named in `PINNED`; a pinned statement that runs, or is gone, must leave
the list, so the list can only shrink.  It is empty: every such statement
runs.
"""
import collections
import contextlib
import inspect
import tempfile
from pathlib import Path

import linetrace
import pytest
import test_golden_transcripts
import test_regular4_core
import test_regular4_deep_cases
from kempe_edge import regular4_core
from test_regular4_deep_cases import (
    _SEEDED_RARE,
    _run_and_collect,
    _seeded_rare_instance,
)

# (function, statement text) -> how many such statements never run
PINNED = collections.Counter()


def _traced(run) -> set:
    with linetrace.LineTracer(regular4_core) as tracer:
        run()
    return tracer.hit


def test_seeded_rare_branches_fire():
    for (n, s), branch in _SEEDED_RARE.items():
        hit = _traced(lambda: _run_and_collect(*_seeded_rare_instance(n, s)))
        ran = linetrace.executed(regular4_core, hit)
        assert not [key for key in branch if key not in ran], ((n, s), branch)


def _call(test):
    """Call a test function once per parametrized case, passing the case's
    arguments and the fixtures it takes: `monkeypatch` from a fresh
    `pytest.MonkeyPatch` context and `tmp_path` as a fresh temporary
    directory, both undone when the call returns."""
    for case in linetrace.cases(test):
        with contextlib.ExitStack() as stack:
            kwargs = dict(case)
            for name in inspect.signature(test).parameters:
                if name in kwargs:
                    continue
                if name == "monkeypatch":
                    kwargs[name] = stack.enter_context(pytest.MonkeyPatch.context())
                elif name == "tmp_path":
                    kwargs[name] = Path(stack.enter_context(tempfile.TemporaryDirectory()))
                else:
                    raise AssertionError(f"{test.__name__} takes {name!r}, which has no stand-in")
            test(**kwargs)


def test_call_passes_fixtures():
    seen = []

    def takes_both(monkeypatch, tmp_path):
        monkeypatch.setattr(regular4_core, "CALL_PROBE", 1, raising=False)
        seen.append((regular4_core.CALL_PROBE, tmp_path.is_dir()))

    def takes_other(capsys):
        pass

    @pytest.mark.parametrize("y", ["a", "b"])
    @pytest.mark.parametrize("x", [1, 2])
    def takes_cases(x, y, tmp_path):
        seen.append((x, y, tmp_path.is_dir()))

    _call(takes_both)
    assert seen == [(1, True)]
    seen.clear()
    _call(takes_cases)
    assert sorted(seen) == [(x, y, True) for x in (1, 2) for y in "ab"]
    assert not hasattr(regular4_core, "CALL_PROBE")
    with pytest.raises(AssertionError, match="takes_other takes 'capsys'"):
        _call(takes_other)


def _workload():
    for make, _ in test_golden_transcripts.GOLDEN.values():
        for _ in make():
            pass
    for module in (test_regular4_core, test_regular4_deep_cases):
        for name, test in sorted(vars(module).items()):
            if name.startswith("test_"):
                _call(test)


def test_unexecuted_statements_are_pinned():
    missed = linetrace.unexecuted(regular4_core, _traced(_workload))
    missed = collections.Counter(
        {key[:2]: n for key, n in missed.items() if not key[2]}
    )
    assert missed - PINNED == collections.Counter(), "unexecuted, not pinned"
    assert PINNED - missed == collections.Counter(), "pinned, but runs or is gone"
