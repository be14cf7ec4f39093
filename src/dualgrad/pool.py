"""Per-thread pool of large float64 buffers, kept across a thread's driver
calls, and the lane windows of first-order passes.

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
Any other lanes (a scalar ``Dual``'s float64 row or tuple, a nested
vector's duals) get the plain operations, Python's operators where there is one.
A thread keeps its pool across driver calls: one pool per call faulted
its blocks in anew, 275 minor faults a call for a one-pass k=30 Hessian.
No lane window's block is pooled: their shapes change from pass to pass,
and keeping them all took a reversed-slice gradient at k=12000 to a
1164 MiB peak.  Only the k-column ndarrays that a window builds are (its
full block, the row tiles of its sums).

A ``_Window`` is a lane block that holds only the entries its seeds can
reach.  The N unit lanes of a first-order pass are one diagonal of its
N x k block, and elementwise rules and shifted slices keep each lane on
a few diagonals, so a window holds them as a band: an N x w block whose
entry (n, t) is column lo + skew * n + t, skew 1 or -1 (a reversed slice
flips it); at skew 0 it holds w whole columns.  ``ops`` hands the rules
on a window operations that compute its entries only, each value-shaped
coefficient cut to them as a strided N x w view.  The rule bodies stay
the same.  A band leaves its band in one of two ways.  One that cannot
stay a band (a slice cuts its edge, it meets the other skew) becomes a
window on the columns it spans, N lanes by up to 2N columns; what cannot
stay in those (fancy indexes, a reshape, ``np.asarray``, full lanes as
the other operand) builds the full N x k block.  Both are cheap at a few
hundred lanes and not at tens of thousands, so the drivers run the wide
middle of a default gradient through ``in_band``: there the first such
step raises before it builds anything, and the call reports which of
the two it was.  A sum over rows of more than two nonzeros builds its
full rows in tiles of at most LANE_BLOCK_BYTES and stays allowed.
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

# The lane block budget of ``drivers.default_chunk``; a window's ``sum``
# builds the full rows it needs in tiles of at most this size.
LANE_BLOCK_BYTES = 256 * 1024

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
    guard = False  # whether a lane window that leaves its band raises (``in_band``)
    left = None  # how a window left its band while guarded: "columns" or "full"


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
# scalar Dual's may be a tuple, not arrays
_OPERATORS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, neg=operator.neg)
_OPERATORS["div"] = _ieee_div
_PLAIN_OPS = type("PlainOps", (), _UFUNCS | _OPERATORS)


def ops(lanes):
    """The operations of a rule on ``lanes``, pooled, windowed or plain.

    Pooled only for a float64 array of at least ``POOL_MIN_BYTES`` while a
    ``lane_pool`` is active in this thread, so never for nested or scalar
    lanes or outside a driver call; windowed for a ``_Window``.  Pooled
    and plain give the same numbers; a window's left-out lanes read +0.0
    where the full block may hold -0.0.
    """
    kind = type(lanes)
    if kind is _ndarray and lanes.nbytes >= POOL_MIN_BYTES:
        if lanes.dtype is _FLOAT64 and _active.pool is not None:
            return _POOLED_OPS
    return _WINDOW_OPS if kind is _Window else _PLAIN_OPS


def _pooled_empty(shape):
    """``np.empty(shape)``, in a pooled buffer when a pool is active and it is large."""
    pool = None if math.prod(shape) * 8 < POOL_MIN_BYTES else _active.pool
    return np.empty(shape) if pool is None else pool.take(shape)


def pooled_zeros(shape):
    """``np.zeros(shape)``, in a pooled buffer when a pool is active and it is large."""
    buf = _pooled_empty(shape)
    buf.fill(0.0)
    return buf


# ----------------------------------------------------------------------
# lane windows: the entries of a lane block that its seeds can reach
# ----------------------------------------------------------------------


# the lane axis of the indexes DualVector.__getitem__ builds
_EVERY_LANE = slice(None)


def _band(a, start, step, rows, w):
    """The ``(rows, w)`` view of 1-D ``a`` whose entry ``(n, t)`` is ``a[start + step * n + t]``."""
    if w == 1:  # a plain slice is cheapest; a step of 0 leaves one row
        return a[start :: step or 1][:rows, None]
    a = np.ascontiguousarray(a)
    size = a.itemsize
    return np.ndarray((rows, w), a.dtype, a, start * size, (step * size, size))


class _Window:
    """Lane block of full shape ``(N, k)`` that is zero outside the entries
    that ``block`` holds: its entry ``(n, t)`` is column ``lo + skew * n + t``.

    At skew 0 ``block`` holds the w columns ``[lo, hi)``; at skew 1 or -1
    it holds w diagonals, a band.  The drivers seed a first-order pass
    with a band of one diagonal, its N unit lanes, and elementwise rules
    and shifted slices keep them there.  ``ops`` gives the rules on a
    window operations that cut value-shaped coefficients to its entries.
    A band that cannot stay one (a slice that cuts its edge, another skew
    or full lanes as the other operand) first becomes a window on the
    columns it spans (``columns``).  What cannot stay in those (another
    slice step, fancy indexes, a reshape) gives the full block, which
    ``np.asarray`` builds.
    """

    __slots__ = ("block", "lo", "hi", "k", "skew")

    def __init__(self, block, lo, k, skew=0):
        self.block = block
        self.lo = lo
        self.hi = lo + block.shape[-1]
        self.k = k
        self.skew = skew
        if skew:  # a band's coefficients are strided views, which read raw memory
            first, stop = self.span()
            if block.ndim != 2 or first < 0 or stop > k:
                raise ValueError(f"a band of {block.shape} lanes at {lo} leaves columns [0, {k})")

    @property
    def shape(self):
        return self.block.shape[:-1] + (self.k,)

    # read through to the block, for code that inspects lane arrays: the
    # dtype a scalar Dual's lanes take on, sizes for allocation counters
    ndim = property(lambda self: self.block.ndim)
    dtype = property(lambda self: self.block.dtype)
    nbytes = property(lambda self: self.block.nbytes)
    flags = property(lambda self: self.block.flags)

    def span(self):
        """The columns ``[first, stop)`` that the entries lie in."""
        reach = self.skew * (self.block.shape[0] - 1)
        return self.lo + min(reach, 0), self.hi + max(reach, 0)

    def like(self, block):
        """A window on the same entries holding ``block``."""
        return _Window(block, self.lo, self.k, self.skew)

    def copy(self):
        """A window on the same entries; a target may copy ``v.partials``."""
        return self.like(self.block.copy())

    def _spread(self, shape, first=0):
        """Lanes of ``shape`` on the columns from ``first`` on: the entries, zeros elsewhere."""
        out = pooled_zeros(shape) if shape[-1] == self.k else np.zeros(shape)
        flat = out.reshape(-1)
        _band(flat, self.lo - first, shape[-1] + self.skew, *self.block.shape)[...] = self.block
        return out

    def full(self):
        """The full block."""
        _leave("full")
        return self._spread(self.shape)

    def columns(self):
        """The same lanes as a window on the columns the entries span; itself at skew 0."""
        if not self.skew:
            return self
        _leave("columns")
        first, stop = self.span()
        return _Window(self._spread((self.block.shape[0], stop - first), first), first, self.k)

    def __array__(self, dtype=None, copy=None):
        return self.full() if dtype is None else self.full().astype(dtype, copy=False)

    def reshape(self, shape):
        return np.asarray(self).reshape(shape)

    def __getitem__(self, idx):
        """Lanes at ``(_EVERY_LANE, i)``, the index ``DualVector.__getitem__`` passes.

        On one component axis an integer gives its column and a step-1 or
        step-(-1) slice a window; any other index reads the full block.
        """
        block, skew = self.block, self.skew
        ours = type(idx) is tuple and len(idx) == 2 and idx[0] is _EVERY_LANE
        i = idx[1] if ours and block.ndim == 2 else None
        if type(i) is int or isinstance(i, np.integer):
            # DualVector indexed its values first, so i is in range; the
            # entries (n, t) in column i have t + skew * n == j
            j = i - self.lo + (self.k if i < 0 else 0)
            if not skew:
                return block[:, j] if 0 <= j < block.shape[1] else np.zeros(block.shape[0])
            # at most w of them, on one diagonal of the block or of its mirror
            off = j if skew < 0 else block.shape[1] - 1 - j
            entries = np.diagonal(block if skew < 0 else block[:, ::-1], off)
            out = np.zeros(block.shape[0])
            out[max(0, -off) :][: len(entries)] = entries
            return out
        if type(i) is slice and (taken := range(self.k)[i]).step in (1, -1):
            # the columns [a, b) that the slice takes
            if taken.step == 1:
                a, b = taken.start, taken.stop
            else:
                a, b = taken.stop + 1, taken.start + 1
            first, stop = self.span()
            if min(b, stop) <= max(a, first):
                return _Window(block[:, :0], 0, len(taken))
            if skew and (first < a or b < stop):  # a band would lose entries
                return self.columns()[idx]
            lo, hi = max(self.lo, a), min(self.hi, b)
            block = block[:, lo - self.lo : hi - self.lo]
            if taken.step == 1:
                return _Window(block, lo - taken.start, len(taken), skew)
            return _Window(block[:, ::-1], taken.start - (hi - 1), len(taken), -skew)
        return np.asarray(self)[idx]

    def sum(self, axis):
        """Sum over the last axis, in the window where that gives the full block's numbers.

        A row with at most two nonzero lanes sums to the same ``fl(a + b)``
        in any order.  Any other row is summed over its full row, in numpy's
        pairwise order, built in tiles of rows of at most LANE_BLOCK_BYTES.
        Neither leaves the band (``in_band``): the tiles stay within the budget.
        """
        block, skew = self.block, self.skew
        if block.shape[-1] <= 2 or np.add.reduce(block != 0, -1).max() <= 2:
            return block.sum(axis=axis)
        rows = max(1, LANE_BLOCK_BYTES // (8 * self.k))
        out = np.empty(block.shape[0])
        for r in range(0, block.shape[0], rows):
            tile = _Window(block[r : r + rows], self.lo + skew * r, self.k, skew)
            out[r : r + rows] = tile._spread(tile.shape).sum(axis=-1)
        return out


class _LeftBand(BaseException):
    """A lane window left its band inside ``in_band``.

    Not an Exception, so that a target's ``except Exception`` lets it through.
    """


def _leave(how):
    """A window leaves its band, "columns" or "full": inside ``in_band``, stop there."""
    if _active.guard:
        if _active.left != "full":
            _active.left = how
        raise _LeftBand(how)


def in_band(f, arg):
    """``(f(arg), None)``, or ``(None, how)`` if a lane window in f would leave its band.

    The first step out, to a column window or a full block, raises before
    it builds anything; ``how`` is "columns" or "full", "full" if f caught
    that and went on to both.  What f then returns, or raises as an
    ``Exception``, is dropped.
    """
    _active.guard = True
    try:
        y = f(arg)
    except (Exception, _LeftBand):
        if _active.left is None:
            raise
    finally:
        left, _active.guard, _active.left = _active.left, False, None
    return (None, left) if left else (y, None)


def _full(a):
    return np.asarray(a) if type(a) is _Window else a


def _cut(c, win):
    """Coefficient ``c`` on the entries of ``win``, or None when its last axis is not win's."""
    if type(c) in _POOL_SCALARS:
        return c
    c = np.asarray(c)
    if c.ndim == 0 or c.shape[-1] == 1:
        return c
    if c.shape[-1] != win.k or win.skew and c.ndim != 1:
        return None
    return _band(c, win.lo, win.skew, *win.block.shape) if win.skew else c[..., win.lo : win.hi]


def _scale(ufunc):
    """mul or div of lanes by a coefficient: a window scales its entries only.

    Every rule puts its lanes on the left, so a window on the right reads
    its full block (as a divisor, its zeros give c / 0 outside the entries).
    """

    def op(a, b):
        if type(a) is _Window and (c := _cut(b, a)) is not None:
            return a.like(ufunc(a.block, c))
        return pooled(ufunc, _full(a), _full(b))

    return op


def _join(ufunc):
    """add or sub of two lane blocks: windows of one skew join on the union of their entries."""

    def op(a, b):
        wa, wb = type(a) is _Window, type(b) is _Window
        same = wa and wb and a.k == b.k and a.block.shape[:-1] == b.block.shape[:-1]
        if same and not (a.block.size and b.block.size):
            # a slice that missed the entries: the other's, with a dense block's signed zeros
            if a.block.size:
                return a.like(ufunc(a.block, 0.0))
            return b.like(ufunc(0.0, b.block))
        if wa and wb and a.skew != b.skew:
            a, b = a.columns(), b.columns()
        if same:
            if a.lo == b.lo and a.hi == b.hi:
                return a.like(ufunc(a.block, b.block))
            lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
            out = np.zeros(a.block.shape[:-1] + (hi - lo,))
            out[..., a.lo - lo : a.hi - lo] = a.block
            part = out[..., b.lo - lo : b.hi - lo]
            ufunc(part, b.block, out=part)
            return _Window(out, lo, a.k, a.skew)
        if wa != wb:  # full lanes (a dense vector's, a scalar Dual's) and a window
            _leave("full")
            win, full = (a.columns(), b) if wa else (b.columns(), a)
            shape = np.broadcast_shapes(win.shape, np.shape(full))
            if (cols := _cut(full, win)) is not None and shape[-1] == win.k:
                # the full block, without writing the window's zeros out first
                out = _pooled_empty(shape)
                ufunc(0.0 if wa else a, 0.0 if wb else b, out=out)
                part = out[..., win.lo : win.hi]
                ufunc(win.block if wa else cols, cols if wa else win.block, out=part)
                return out
        return pooled(ufunc, _full(a), _full(b))

    return op


def _neg(a):
    if type(a) is _Window:
        return a.like(np.negative(a.block))
    return pooled(np.negative, a)


# the pooled operations, but lanes on a window stay on its entries
_WINDOW_OPS = type("WindowOps", (_POOLED_OPS,), dict(add=_join(np.add), sub=_join(np.subtract)))
_WINDOW_OPS.mul, _WINDOW_OPS.div = _scale(np.multiply), _scale(np.true_divide)
_WINDOW_OPS.neg = _neg
