"""Statement coverage of one module by `sys.settrace`, with no dependency.

A statement is named by its enclosing function's qualified name and its
source text (the header of a compound statement, the whole of a simple one,
on one line with whitespace collapsed), never by line number, so a fold elsewhere in the
module leaves the names of untouched statements as they were.  Only
statements inside functions are counted, docstrings excluded: module and
class bodies run at import, before any trace can start.

As a script it runs pytest under the tracer and prints, per function, the
statements of the module that never ran:

    PYTHONPATH=src python tests/linetrace.py kempe_edge.regular4_core [pytest args]

The pytest arguments default to `-q tests`.
"""
from __future__ import annotations

import ast
import collections
import importlib
import sys


def _text(lines, node) -> str:
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        end = max(node.lineno, body[0].lineno - 1)  # a compound's header
    else:
        end = node.end_lineno
    # lines joined with one space, none inside a bracket broken over lines
    text = ""
    for part in (" ".join(line.split()) for line in lines[node.lineno - 1:end]):
        if text and not text.endswith(("(", "[", "{")) and not part.startswith((")", "]", "}")):
            text += " "
        text += part
    return text


def _is_docstring(i, node) -> bool:
    return (
        i == 0
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(module) -> dict:
    """Map each line that starts a statement inside a function of the
    module to (function qualname, statement text, is a raise)."""
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    out = {}

    def visit(body, qual, in_func):
        for i, node in enumerate(body):
            if in_func and not _is_docstring(i, node):
                out[node.lineno] = (qual, _text(lines, node), isinstance(node, ast.Raise))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{node.name}" if qual else node.name
                visit(node.body, name, not isinstance(node, ast.ClassDef))
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), qual, in_func)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, qual, in_func)

    visit(ast.parse(source).body, "", False)
    return out


class LineTracer:
    """Context manager recording the lines of one module's file that run."""

    def __init__(self, module):
        self.path = module.__file__
        self.hit = set()
        self._saved = None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hit.add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename == self.path:
            return self._local
        return None

    def __enter__(self):
        self._saved = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved)
        return False


def executed(module, hit) -> set:
    """The (function, statement text) names of the module's statements
    whose line is in `hit`."""
    return {key[:2] for line, key in statements(module).items() if line in hit}


def unexecuted(module, hit) -> collections.Counter:
    """Count, per (function, statement text, is a raise), the statements of
    the module whose line is not in `hit`."""
    return collections.Counter(
        key for line, key in statements(module).items() if line not in hit
    )


def cases(test) -> list:
    """The keyword arguments of each case pytest runs of a test function:
    the cross product of its `parametrize` marks, or one empty case."""
    out = [{}]
    for mark in getattr(test, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        names, values = mark.args[:2]
        if isinstance(names, str):
            names = [name.strip() for name in names.split(",")]
        rows = values if len(names) > 1 else [(value,) for value in values]
        out = [{**case, **dict(zip(names, row))} for case in out for row in rows]
    return out


def main(argv) -> int:
    import pytest

    if not argv:
        print("usage: linetrace.py MODULE [PYTEST_ARG ...]", file=sys.stderr)
        return 2
    module = importlib.import_module(argv[0])
    with LineTracer(module) as tracer:
        code = pytest.main(argv[1:] or ["-q", "tests"])
    stmts = statements(module)
    missed = {line: key for line, key in sorted(stmts.items()) if line not in tracer.hit}
    print(f"{module.__name__}: {len(missed)} of {len(stmts)} statements never ran, "
          f"{sum(not key[2] for key in missed.values())} of them not a raise")
    func = None
    for line, (qual, text, _) in missed.items():
        if qual != func:
            print(f"{qual}:")
            func = qual
        print(f"  {line:5d}  {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
