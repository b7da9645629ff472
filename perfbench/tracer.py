"""Span tracer that wraps sulphsim's public functions from outside the program.

``Tracer.install()`` replaces every public function of each timed layer
module with a timing wrapper, in every sulphsim namespace that binds it
(``cg_solve`` is bound in ``bulk``, ``diagnostics`` and the package;
``step_r`` in ``surface`` and ``bulk``), so calls made through any of those
names are seen.  The rng layer's work happens in its generator's methods,
so those are wrapped on the class.  ``uninstall()`` restores the originals.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans of one thread nest on a per-thread stack; a span that
opens on an empty stack in another thread (a sweep worker) is a child of
the installing thread's outermost open span, and since such children
overlap, coverage is the union of their intervals.  All aggregates are
updated under one lock.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("config", "grid", "rng", "model", "surface", "bulk", "diagnostics", "output", "runner")
RNG_METHODS = ("uniform", "next_u64")

# Jacobi-PCG vector traffic per iteration, in float64 vectors of length n:
# matvec reads p and writes Ap (2); x += a*p (3); r -= a*Ap (3); z = r/d (3);
# r.z (2); p = z + b*p (3); ||r|| (1).
CG_VECTOR_PASSES = 17


class _Span:
    __slots__ = ("key", "start", "children")

    def __init__(self, key: str, start: float):
        self.key = key
        self.start = start
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    # -- installation -------------------------------------------------------

    def _namespaces(self):
        name = self.package.__name__
        return [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == name or k.startswith(name + "."))
        ]

    def install(self) -> None:
        pkg = self.package.__name__
        spaces = self._namespaces()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg}.{layer}")
            if mod is None:  # a layer that is gone reports zero spans
                continue
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{fname}", _HOOKS.get(f"{layer}.{fname}"))
        for space in spaces:
            for fname, obj in list(vars(space).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((space, fname, obj))
                    setattr(space, fname, wrappers[obj])
        rng = sys.modules.get(f"{pkg}.rng")
        for cname, cls in vars(rng).items() if rng is not None else ():
            if inspect.isclass(cls) and cls.__module__ == rng.__name__:
                for mname in RNG_METHODS:
                    if mname in vars(cls):
                        orig = vars(cls)[mname]
                        self._patches.append((cls, mname, orig))
                        setattr(cls, mname, self._wrap(orig, f"rng.{cname}.{mname}", None))
        self._local.stack = self._main_stack

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, key, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = _Span(key, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(span, end, stack)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span: _Span, end: float, stack: list[_Span]) -> None:
        dur = end - span.start
        with self._lock:
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[0]
            else:
                parent = None
            if parent is not None:
                parent.children.append((span.start, end))
            self.calls[span.key] += 1
            self.incl_s[span.key] += dur
            self.self_s[span.key] += dur - _covered(span.children)

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def count_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    # -- summaries ----------------------------------------------------------

    def layer_spans(self, layer: str) -> int:
        return sum(n for k, n in self.calls.items() if k.split(".", 1)[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(t for k, t in self.self_s.items() if k.split(".", 1)[0] == layer)


def _cg_hook(tracer: Tracer, args, kwargs, result) -> None:
    system = args[0] if args else kwargs["sys"]
    iters = int(result[1])
    csr = system.data.nbytes + system.indices.nbytes + system.indptr.nbytes
    tracer.count("bulk.cg_solve.iters_total", iters)
    tracer.count_max("bulk.cg_solve.iters_max", iters)
    tracer.count("bulk.cg_solve.bytes_computed", iters * (csr + CG_VECTOR_PASSES * 8 * system.n))


def _bytes_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("output.bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))


_HOOKS = {
    "bulk.cg_solve": _cg_hook,
    "output.write_vtk": _bytes_hook,
    "output.write_profiles_csv": _bytes_hook,
    "output.write_invariants_csv": _bytes_hook,
    "output.write_manifest": _bytes_hook,
}
