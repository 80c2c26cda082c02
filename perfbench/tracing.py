"""Span tracer installed from outside the package.

`Tracer.installed(modules)` replaces every public function of each module,
and every public method of the classes each module defines, by a wrapper
that records a span (name, start, end, parent). Package code looks module
attributes up at call time, so calls made inside the package are caught as
well. Dict values that hold an original function (such as
`experiments.RUNNERS`, through which `cli` calls the runners) are swapped
too. Everything is restored when the block ends.
"""

import functools
import inspect
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []     # (name, start, end, parent index or -1)
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
        return traced

    @contextmanager
    def installed(self, modules, dicts=()):
        """Trace every public function and method of `modules` in the block."""
        undo = []       # (owner, attribute, original)
        wrapped = {}    # original function -> wrapper
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                    undo.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            undo.append((obj, meth, fn))
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        swapped = [(d, k, v) for d in dicts for k, v in d.items()
                   if inspect.isfunction(v) and v in wrapped]
        for d, k, v in swapped:
            d[k] = wrapped[v]
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            for d, k, v in swapped:
                d[k] = v


def self_times(spans):
    """{name: (calls, self seconds)} where a span's self time is its
    duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - inner)
    return out
