"""Span tracing applied to nilkaehler from outside the package.

``Tracer.install()`` replaces every public module-level function of the
traced modules by a wrapper that records a span: name, start, end and the
index of the enclosing span.  A function is replaced in every module that
holds it, because ``catalog`` imports ``jacobi_check`` by name and a call
through that name would otherwise escape the trace.

Two boundaries are too busy for one span per call: Scalar arithmetic
(millions of constant operations in a pointwise pass) and the numpy calls
of the Newton probe (about a million ``einsum`` calls at 200 starts per
form).  Those are counted instead, and their time is charged to the
innermost open span, so that a span's self time is its duration minus the
time covered by child spans and by these counted calls.

Scalar operations are split into constant ones (no parameter, and no
sqrt(2), occurs in an operand or the result) and parametric ones.
``peak_terms`` is the largest numerator plus denominator term count among
the operands and results of parametric operations; a constant has at most
two terms.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

from nilkaehler import catalog, geometry, liealg, linalg, solver, tensors
from nilkaehler.scalar import Scalar

SPAN_MODULES = (linalg, tensors, liealg, geometry, solver, catalog)

# Scalar operators timed at the operator boundary; a nested operator call
# (``a - b`` runs ``__neg__`` and ``__add__``) is part of the outer one.
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "substitute",
)

NUMPY_CALLS = ((np, "einsum", "numpy.einsum"),
               (np.linalg, "lstsq", "numpy.linalg.lstsq"))

# span record fields
_NAME, _START, _END, _PARENT, _LEAF_S, _NESTED = range(6)


class Tracer:
    """Spans of module functions plus Scalar and numpy counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._in_scalar_op = False
        self.scalar = {
            "const_ops": 0, "const_s": 0.0, "param_ops": 0, "param_s": 0.0,
            "peak_terms": 0, "slowest_op_s": 0.0,
        }
        self.numpy: dict[str, list] = {label: [0, 0.0] for *_, label in NUMPY_CALLS}

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        targets: dict[int, object] = {}
        for module in SPAN_MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    targets[id(fn)] = self._span_wrapper(f"{short}.{name}", fn)
        holders = [m for name, m in sys.modules.items()
                   if name == "nilkaehler" or name.startswith("nilkaehler.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patch(holder, attr, wrapper)
        for attr in SCALAR_OPS:
            self._patch(Scalar, attr, self._scalar_wrapper(vars(Scalar)[attr]))
        for owner, attr, label in NUMPY_CALLS:
            self._patch(owner, attr, self._leaf_wrapper(label, getattr(owner, attr)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, active = tracer.spans, tracer._stack, tracer._active
            index = len(spans)
            nested = active.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, nested > 0]
            spans.append(span)
            stack.append(index)
            active[name] = nested + 1
            span[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
                active[name] = nested

        return traced

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]][_LEAF_S] += seconds

    def _scalar_wrapper(self, fn):
        tracer = self
        stats = self.scalar

        # kept lean: pointwise makes millions of cheap constant operations
        @functools.wraps(fn)
        def op(*args):
            if tracer._in_scalar_op:
                return fn(*args)
            tracer._in_scalar_op = True
            result = None
            start = perf_counter()
            try:
                result = fn(*args)
                return result
            finally:
                seconds = perf_counter() - start
                tracer._in_scalar_op = False
                tracer._charge(seconds)
                operands = [x for x in (*args, result) if type(x) is Scalar]
                if any(x._num.ring._scalar_names for x in operands):
                    stats["param_ops"] += 1
                    stats["param_s"] += seconds
                    terms = max(len(x._num) + len(x._den) for x in operands)
                    if terms > stats["peak_terms"]:
                        stats["peak_terms"] = terms
                else:
                    stats["const_ops"] += 1
                    stats["const_s"] += seconds
                if seconds > stats["slowest_op_s"]:
                    stats["slowest_op_s"] = seconds

        return op

    def _leaf_wrapper(self, label: str, fn):
        tracer = self
        counter = self.numpy[label]

        @functools.wraps(fn)
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                counter[0] += 1
                counter[1] += seconds
                tracer._charge(seconds)

        return call

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, inclusive seconds and self seconds.

        Inclusive seconds count only the outermost span of a name, so a
        recursive call is not counted twice.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, dict[str, float]] = {}
        for span, child_s in zip(self.spans, covered):
            row = out.setdefault(span[_NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = span[_END] - span[_START]
            row["calls"] += 1
            if not span[_NESTED]:
                row["s"] += duration
            row["self_s"] += duration - child_s - span[_LEAF_S]
        return out

    def accounted_s(self, table: dict[str, dict[str, float]]) -> float:
        """Seconds explained by span self times and counted leaf calls."""
        leaf = self.scalar["const_s"] + self.scalar["param_s"]
        leaf += sum(seconds for _, seconds in self.numpy.values())
        return sum(row["self_s"] for row in table.values()) + leaf

    def write(self, path: str, origin: float) -> None:
        """Write spans (times relative to ``origin``) and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[s[_NAME], round(s[_START] - origin, 7),
                           round(s[_END] - origin, 7), s[_PARENT]]
                          for s in self.spans],
                "scalar": self.scalar,
                "numpy": {k: {"calls": c, "s": t} for k, (c, t) in self.numpy.items()},
            }, fh)
