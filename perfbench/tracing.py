"""Per-layer measurement from outside the library.

Nothing here edits ``src/``.  The layers are observed only through the
calls into their public surface:

- ``drivers``: a ``call`` span around each driver call, and an ``eval``
  span around each call of the target function the driver receives.
- ``vector`` / ``dual``: class-level wrappers on the public methods of
  ``DualVector`` and ``Dual`` (and ``Partials`` construction), installed
  only for a separate counting pass so that they never inflate a span.
- ``gc.callbacks`` for collector time and ``resource.getrusage`` for
  minor page faults.
"""

from __future__ import annotations

import gc
import itertools
import resource
import threading
import time

from dualgrad.dual import Dual, Partials
from dualgrad.vector import DualVector

TRANSCENDENTALS = frozenset({"sin", "cos", "tan", "exp", "log", "sqrt"})

# Methods that dispatch, describe or construct rather than compute.
_NOT_OPS = frozenset(
    {"__init__", "__len__", "__iter__", "__repr__", "__array_ufunc__", "__hash__"}
)


def _is_op(name, attr):
    """Public methods and operator dunders, not dispatch or private helpers."""
    if not callable(attr) or name in _NOT_OPS:
        return False
    return name.startswith("__") or not name.startswith("_")


class SpanRecorder:
    """In-memory spans: (id, name, start, end, parent id, thread id)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._call_id = None

    def traced_target(self, f):
        """The target function wrapped so that each evaluation is an eval span."""

        def traced(x):
            start = time.perf_counter()
            try:
                return f(x)
            finally:
                end = time.perf_counter()
                self.spans.append(
                    (next(self._ids), "eval", start, end, self._call_id, threading.get_ident())
                )

        return traced

    def call(self, fn):
        """Run one driver call inside a call span; returns (result, span id)."""
        span_id = next(self._ids)
        self._call_id = span_id
        start = time.perf_counter()
        try:
            return fn(), span_id
        finally:
            end = time.perf_counter()
            self._call_id = None
            self.spans.append((span_id, "call", start, end, None, threading.get_ident()))

    def by_call(self):
        """{call id: (call span, [eval spans])}."""
        calls = {s[0]: (s, []) for s in self.spans if s[1] == "call"}
        for s in self.spans:
            if s[1] == "eval" and s[4] in calls:
                calls[s[4]][1].append(s)
        return calls


def union_length(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class GcTimer:
    """Collector time via ``gc.callbacks`` while the context is open."""

    def __init__(self):
        self.seconds = 0.0
        self._start = None

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class OpCounter:
    """Counts calls into the vector and dual layers while installed.

    ``vector_ops`` counts outermost ``DualVector`` method calls (an op that
    delegates to another, as ``x**2`` to ``square``, counts once);
    ``vector_transcendental_elems`` counts components passed through
    sin/cos/tan/exp/log/sqrt; ``vector_bytes`` sums the sizes of the
    arrays those ops newly allocate (computed from array sizes, not
    measured traffic).  ``dual_ops`` counts every ``Dual`` method call at
    any nesting depth, ``dual_objects`` every ``Dual`` and ``Partials``
    built, and ``dual_seconds`` the time inside outermost ``Dual`` method
    and constructor calls, wrapper cost included.  Serial use only.
    """

    def __init__(self):
        self.vector_ops = 0
        self.vector_transcendental_elems = 0
        self.vector_bytes = 0
        self.dual_ops = 0
        self.dual_objects = 0
        self.dual_seconds = 0.0
        self._vector_depth = 0
        self._dual_depth = 0
        self._saved = []

    # -- wrappers -------------------------------------------------------

    def _wrap_vector(self, name, fn):
        counter = self
        transcendental = name in TRANSCENDENTALS

        def wrapper(self, *args, **kwargs):
            if counter._vector_depth:
                return fn(self, *args, **kwargs)
            counter._vector_depth += 1
            try:
                out = fn(self, *args, **kwargs)
            finally:
                counter._vector_depth -= 1
            counter.vector_ops += 1
            if transcendental:
                counter.vector_transcendental_elems += len(self)
            if isinstance(out, DualVector):
                counter.vector_bytes += sum(
                    a.nbytes for a in (out.values, out.partials) if a.flags.owndata
                )
            return out

        return wrapper

    def _timed_dual(self, fn, args, kwargs):
        """Call fn, adding its time to dual_seconds unless inside a Dual call."""
        if self._dual_depth:
            return fn(*args, **kwargs)
        self._dual_depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.dual_seconds += time.perf_counter() - start
            self._dual_depth -= 1

    def _wrap_dual(self, fn):
        counter = self

        def wrapper(*args, **kwargs):
            counter.dual_ops += 1
            return counter._timed_dual(fn, args, kwargs)

        return wrapper

    def _wrap_constructor(self, fn):
        counter = self

        def wrapper(*args, **kwargs):
            counter.dual_objects += 1
            return counter._timed_dual(fn, args, kwargs)

        return wrapper

    # -- install / restore ---------------------------------------------

    def _patch(self, cls, name, new):
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, new)

    def __enter__(self):
        try:
            for name, fn in list(vars(DualVector).items()):
                if _is_op(name, fn):
                    self._patch(DualVector, name, self._wrap_vector(name, fn))
            for name, fn in list(vars(Dual).items()):
                if name == "__init__":
                    self._patch(Dual, name, self._wrap_constructor(fn))
                elif _is_op(name, fn):
                    self._patch(Dual, name, self._wrap_dual(fn))
            partials_new = vars(Partials)["__new__"].__func__
            counted_new = self._wrap_constructor(partials_new)
            self._patch(Partials, "__new__", staticmethod(counted_new))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def __exit__(self, *exc):
        self._restore()
        return False
