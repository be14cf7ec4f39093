"""Per-thread pool of large float64 buffers, kept across a thread's driver calls.

A gradient pass allocates a fresh lane block for every intermediate.
Blocks of ``POOL_MIN_BYTES`` and more are the ones glibc hands back to the
OS when they are freed, so without reuse the next pass page-faults them
in again: a 3000-component Rosenbrock gradient at chunk 8 took about 140
minor faults per pass.  The drivers' pass runner therefore enters a
``lane_pool()`` in each thread that runs passes.  Each dual rule (one
body serves ``Dual``, ``DualVector`` and ``NestedDualVector``) asks
``ops`` once for the operations it computes with: while a pool is active
and the rule's lanes are a float64 array that large, these write their
results through ``pooled``, which hands out a buffer of the same shape
that nothing outside the pool refers to any more.  ``out=`` gives the
same values as a fresh ufunc result, so pooling never changes a number.
Any other lanes (a scalar ``Dual``'s tuple, a nested vector's duals) get
the plain operations, which are Python's operators where there is one.
A thread keeps its pool across driver calls: one pool per call faulted
its blocks in anew, 275 minor faults a call for a one-pass k=30 Hessian.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import threading

import numpy as np

__all__ = ["POOL_MIN_BYTES", "lane_pool", "pooled", "pooled_zeros"]

# glibc's free() consolidates blocks of this size and larger and trims
# the heap back to the OS.  Smaller results keep numpy's own allocation.
POOL_MIN_BYTES = 64 * 1024

# Buffers kept per shape.  The most a driver call had in use at once was
# 7 (a k=300 Hessian at chunks (30, 30)); a target that keeps more than
# this many alive gets fresh arrays instead of a scan over all it keeps.
_MAX_PER_SHAPE = 16

# Operands that leave a ufunc on float64 arrays with a float64 result.
_FLOAT64 = np.dtype(np.float64)
_POOL_SCALARS = (float, int, np.float64)
# The lanes of first-order vectors; a nested vector's lanes are duals.
_ndarray = np.ndarray


class _Pool:
    """One thread's large float64 buffers, handed out again by shape.

    A buffer is reused only when the pool holds the only reference to it,
    so a result, view or operand that anything else still refers to (a
    target that stashed it, the interpreter stack mid-expression) is never
    overwritten.  numpy's temporary elision relies on the same test.
    """

    def __init__(self, sole):
        # the count sys.getrefcount reads in take() for a buffer that only
        # the pool holds
        self.sole = sole
        self.buffers = {}
        self.last = {}  # the previous call's buffers, by shape, not yet asked for

    def take(self, shape):
        same = self.buffers.get(shape)
        if same is None:
            same = self.buffers[shape] = self.last.pop(shape, [])
        for buf in same:
            if sys.getrefcount(buf) == self.sole:
                return buf
        buf = np.empty(shape)
        if len(same) < _MAX_PER_SHAPE:
            same.append(buf)
        return buf


def _sole_refcount():
    """The count ``_Pool.take`` reads for a buffer that only the pool holds.

    Probed through ``take`` itself rather than assumed, so that it matches
    this interpreter's reference counting.  None, which disables reuse,
    when the count does not also tell a buffer held elsewhere from a free
    one, or when threads run without the GIL.
    """
    if not getattr(sys, "_is_gil_enabled", lambda: True)():
        return None
    for count in range(1, 16):
        pool = _Pool(count)
        first = pool.take((1,))
        del first
        if pool.take((1,)) is pool.buffers[(1,)][0]:
            break
    else:
        return None
    held = pool.buffers[(1,)][0]
    if pool.take((1,)) is held:
        return None
    return count


_SOLE = _sole_refcount()


class _Active(threading.local):
    pool = None  # the thread's kept pool while a driver call runs in it
    kept = None  # the thread's pool, kept between its driver calls


_active = _Active()


class lane_pool:
    """Reuse large float64 buffers in the calling thread until the block exits.

    The drivers' pass runner enters one per driver call in each thread
    that runs passes.  Rule results of at least ``POOL_MIN_BYTES`` are
    then written into buffers whose earlier results nothing refers to any
    more; the values are the same as without the pool, bit for bit.  The
    outermost block activates the thread's kept pool and makes its buffers
    "last": a shape's move back when the call first asks for it, and the
    exit drops the rest.  So between calls a thread keeps its last call's
    shapes, as many buffers each as were in use at once, up to
    ``_MAX_PER_SHAPE``.  A nested block shares the active pool.
    """

    __slots__ = ("outer",)

    def __enter__(self):
        self.outer = _active.pool
        if self.outer is None and _SOLE is not None:
            kept = _active.pool = _active.kept = _active.kept or _Pool(_SOLE)
            kept.last, kept.buffers = kept.buffers, {}

    def __exit__(self, *exc):
        if self.outer is None and _active.pool is not None:
            _active.pool.last = {}
        _active.pool = self.outer


def _out_shape(args):
    """Shape of a large float64 ``ufunc(*args)`` that its first array operand has.

    None (no pooling) unless the first array operand has at least
    ``POOL_MIN_BYTES``, every array operand is native float64 and shaped
    like trailing axes of the first, and every other operand is a Python or
    float64 scalar.
    """
    shape = None
    for a in args:
        if type(a) is np.ndarray:
            if shape is None:
                if a.nbytes < POOL_MIN_BYTES or a.dtype is not _FLOAT64:
                    return None
                shape = a.shape
            elif a.dtype is not _FLOAT64 or a.shape != shape[len(shape) - a.ndim :]:
                return None
        elif type(a) not in _POOL_SCALARS:
            return None
    return shape


def pooled(ufunc, *args):
    """``ufunc(*args)``, written into a pooled buffer when a pool is active and it is large."""
    pool = _active.pool
    shape = None if pool is None else _out_shape(args)
    if shape is None:
        return ufunc(*args)
    return ufunc(*args, out=pool.take(shape))


# name -> numpy ufunc of each generic elementary function (``dual.sin`` ...)
_ELEMENTARY = dict(sin=np.sin, cos=np.cos, tan=np.tan, exp=np.exp, log=np.log)
_ELEMENTARY |= dict(sqrt=np.sqrt, square=np.square)


def _ieee_div(a, b):
    """``a / b``, but inf/nan instead of the ZeroDivisionError that Python scalars raise."""
    try:
        return a / b
    except ZeroDivisionError:
        return np.divide(np.float64(a), np.float64(b))


# The operations of the dual rules, by name
_UFUNCS = _ELEMENTARY | dict(add=np.add, sub=np.subtract, mul=np.multiply, neg=np.negative)
_UFUNCS |= dict(div=np.true_divide, power=np.power, absolute=np.absolute, sign=np.sign)
# Namespaces are classes, whose attributes are the cheapest to look up: a
# k=30 Hessian (all small rules) ran 2% faster than with SimpleNamespace.
_POOLED_OPS = type("PooledOps", (), {n: functools.partial(pooled, u) for n, u in _UFUNCS.items()})
# Python's operators where there is one: nested lanes are duals and a
# scalar Dual's are a tuple, not arrays
_OPERATORS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, neg=operator.neg)
_OPERATORS["div"] = _ieee_div
_PLAIN_OPS = type("PlainOps", (), _UFUNCS | _OPERATORS)


def ops(lanes):
    """The operations of a rule on ``lanes``, pooled or plain: the same numbers either way.

    Pooled only for a float64 array of at least ``POOL_MIN_BYTES`` while a
    ``lane_pool`` is active in this thread, so never for nested or scalar
    lanes or outside a driver call.
    """
    if type(lanes) is _ndarray and lanes.nbytes >= POOL_MIN_BYTES:
        if lanes.dtype is _FLOAT64 and _active.pool is not None:
            return _POOLED_OPS
    return _PLAIN_OPS


def pooled_zeros(shape):
    """``np.zeros(shape)``, in a pooled buffer when a pool is active and it is large."""
    pool = None if math.prod(shape) * 8 < POOL_MIN_BYTES else _active.pool
    if pool is None:
        return np.zeros(shape)
    buf = pool.take(shape)
    buf.fill(0.0)
    return buf
