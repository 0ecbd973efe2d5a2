"""Span tracing for the traced run, installed from outside the library.

:func:`install` wraps module-level functions of the library and rebinds
*every* name that refers to them: ``reductions`` binds ``_equalize_search``,
``transform_delta4`` and ``acyclic_reduce`` at import, ``regular4_core``
imports ``_equalize_search`` at call time (it then reads the patched module
attribute), and the kernels are reached through each module's ``backend``
name, which is replaced by a namespace holding wrapped kernels.  The
kernel module's own globals are left alone, so a kernel calling another
kernel internally is not counted: the same calls are seen on the pure-Python
and the compiled backend.

Per span name the tracer keeps:

- ``calls``: every call;
- ``self_s``: duration minus the time covered by traced child spans, so the
  self times of all spans never count the same interval twice, including for
  recursion (``equalize`` -> ``peel_and_recurse`` -> ``equalize``);
- ``incl_s``: duration of the outermost call of that name only;
- per-name counters returned by the span's count function (states
  generated, moves emitted, rounds);
- ``under``: the time, calls and counters of a span while another span is
  open, e.g. kernel ``is_proper`` inside ``kempe_engine.replay``.
"""
from __future__ import annotations

import sys
import types
from collections import Counter, defaultdict

PACKAGE = "kempe_edge"
# modules whose globals must not be rebound: the kernels calling each other
_UNPATCHED = {f"{PACKAGE}._kernels_py", f"{PACKAGE}._speedups"}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stack = []  # [name, start, seconds covered by child spans]
        self.active = Counter()  # span name -> open calls
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()  # (name, key) -> total
        self.under_s = defaultdict(float)  # (ancestor, name) -> seconds
        self.under_calls = Counter()  # (ancestor, name) -> calls
        self.under_counts = Counter()  # (ancestor, name, key) -> total

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])
        self.active[name] += 1

    def leave(self, counts=None):
        name, start, child = self.stack.pop()
        dt = self.clock() - start
        self.active[name] -= 1
        if not self.active[name]:
            del self.active[name]
        outermost = name not in self.active
        self.calls[name] += 1
        self.self_s[name] += dt - child
        if outermost:
            self.incl_s[name] += dt
        if self.stack:
            self.stack[-1][2] += dt
        for key, k in (counts or {}).items():
            self.counts[name, key] += k
        for anc in self.active:
            self.under_calls[anc, name] += 1
            if outermost:
                self.under_s[anc, name] += dt
            for key, k in (counts or {}).items():
                self.under_counts[anc, name, key] += k

    def wrap(self, name, fn, count=None):
        """`fn` inside a span; `count(result, args, kwargs)` gives counters."""

        def traced(*args, **kwargs):
            self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(count(result, args, kwargs) if result is not None and count else None)
            return result

        return traced


def with_stats(fn, pos):
    """`fn` with its optional `stats` list argument always supplied, so the
    traced run can count rounds (len of the list after the call)."""

    def call(*args, **kwargs):
        if len(args) > pos:
            if args[pos] is None:
                args = args[:pos] + ([],) + args[pos + 1:]
            stats = args[pos]
        else:
            if kwargs.get("stats") is None:
                kwargs["stats"] = []
            stats = kwargs["stats"]
        before = len(stats)
        result = fn(*args, **kwargs)
        return result, len(stats) - before

    return call


def install(tracer, layer_spans, kernel_spans):
    """Wrap and rebind.  `layer_spans`: (module, attribute, span name,
    count, stats position or None); `kernel_spans`: (kernel name, span name,
    count).  Returns a function that restores every binding."""
    from kempe_edge import kernels

    replaced = {}  # id(original) -> (original, wrapper)
    for module, attr, name, count, stats_pos in layer_spans:
        orig = getattr(module, attr)
        replaced[id(orig)] = (orig, _layer_wrapper(tracer, name, orig, count, stats_pos))

    backend = kernels.backend
    proxy = types.SimpleNamespace(**{k: getattr(backend, k) for k in dir(backend)})
    for kname, name, count in kernel_spans:
        setattr(proxy, kname, tracer.wrap(name, getattr(backend, kname), count))

    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname in _UNPATCHED:
            continue
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for key, value in list(vars(mod).items()):
            if key == "backend" and value is backend:
                new = proxy
            else:
                hit = replaced.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                new = hit[1]
            setattr(mod, key, new)
            undo.append((mod, key, value))

    def restore():
        for mod, key, value in undo:
            setattr(mod, key, value)

    return restore


def _layer_wrapper(tracer, name, orig, count, stats_pos):
    if stats_pos is None:
        return tracer.wrap(name, orig, count)
    inner = with_stats(orig, stats_pos)

    def rounds_count(pair, args, kwargs):
        result, rounds = pair
        out = {"rounds": rounds}
        if count is not None:
            out.update(count(result, args, kwargs))
        return out

    traced = tracer.wrap(name, inner, rounds_count)

    def call(*args, **kwargs):
        return traced(*args, **kwargs)[0]

    return call
