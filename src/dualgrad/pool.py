"""Per-thread pool of large float64 buffers, kept across a thread's driver
calls, and the lane windows of first-order and Hessian band passes.

A gradient pass allocates a fresh lane block for every intermediate.
Blocks of ``POOL_MIN_BYTES`` and more are the ones glibc hands back to the
OS when they are freed, so without reuse the next pass page-faults them
in again: a 3000-component Rosenbrock gradient at chunk 8 took about 140
minor faults per pass.  The drivers' pass runner therefore enters a
``lane_pool()`` in each thread that runs passes.  Each dual rule (one body
serves ``Dual``, ``DualVector`` and ``NestedDualVector``) asks ``ops`` for
the operations of its values and of its lanes: while a pool is active,
float64 arrays that large get ones that write their results through
``pooled``, into a buffer of the same shape that nothing outside the pool
refers to any more, which never changes a number; anything else (smaller
arrays, duals, tuples, masked lanes) gets Python's operators.  A
thread keeps its pool across driver calls: one pool per call faulted its
blocks in anew, 275 minor faults a call for a one-pass k=30 Hessian.  No lane window's block is pooled:
their shapes change from pass to pass, and keeping them all took a
reversed-slice gradient at k=12000 to a 1164 MiB peak.  Only the k-column
ndarrays that a window builds are (its full block, the row tiles of its
sums).

A ``_Window`` is a lane block that holds only the entries its seeds can
reach.  The N unit lanes of a first-order pass are one diagonal of its
N x k block, and elementwise rules and shifted slices keep each lane on
a few diagonals, so a window holds them as a band: w diagonals, lane n's
entry t at column lo + skew * n + t, skew 1 or -1 (a reversed slice
flips it), in a w x C block over the C columns in [0, k) it spans, one
row a diagonal, where a position whose lane is not one of the N is never
read; at skew 0 it holds w whole columns.  So each ufunc of a rule runs
over w rows, a value-shaped coefficient (k,) or (E, k) scales a band by
broadcasting its own columns, and a slice that cuts a band, leaving it
overhanging [0, k), is a view of the block's columns.  A Hessian's band
pass keeps its N x E x k second-order lanes (E inner lanes, dense) as a
w x E x C window, which starts without entries.  A band that meets the
other skew becomes a window on the columns it spans; what cannot stay
in those (fancy indexes, a reshape, ``np.asarray``, full lanes as the
other operand) builds the full N x k block.  Both are cheap at a few
hundred lanes and not at tens of thousands, so the drivers run wide
passes through ``in_band``: there the first such step raises before it
builds anything, and so does a union of bands far apart.  A sum over
rows of more than two nonzeros builds its full rows in tiles of at most
LANE_BLOCK_BYTES and stays allowed.  Lanes are NaN-safe (``_Masked``),
so the zeros a window leaves out are a dense pass's whatever the
coefficients: 0 * inf, the NaN a dense pass had there, is 0.
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
_new = object.__new__


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
    guard = ()  # the ways out of a band that raise (``in_band``); none outside it
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
    ``_MAX_PER_SHAPE``.  A nested block shares the active pool.  The block
    also suspends the thread's ``in_band`` guard, so that a driver called
    inside a guarded target neither stops it nor lifts its guard.
    """

    __slots__ = ("outer", "guard")

    def __enter__(self):
        self.outer, self.guard, _active.guard = _active.pool, _active.guard, ()
        if self.outer is None and _SOLE is not None:
            kept = _active.pool = _active.kept = _active.kept or _Pool(_SOLE)
            kept.last, kept.buffers = kept.buffers, {}

    def __exit__(self, *exc):
        if self.outer is None and _active.pool is not None:
            _active.pool.last = {}
        _active.pool, _active.guard = self.outer, self.guard


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


class _Masked(np.ndarray):
    """Float64 lanes of a NaN-safe pass, which the drivers run only where a pass's lanes are not finite.

    Every ufunc returns this kind, so lanes from masked seeds stay masked;
    values never are.  A product, or a quotient of masked lanes, that is NaN
    where masked lanes hold an exact zero (0 * inf, 0 / 0) is 0.0 instead.
    """

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        plain = [a.view(_ndarray) if type(a) is _Masked else a for a in args]
        if out := kwargs.get("out"):
            kwargs["out"] = tuple(o.view(_ndarray) for o in out)
        res = np.asarray(getattr(ufunc, method)(*plain, **kwargs))
        if method == "__call__" and (ufunc is np.multiply or ufunc is np.true_divide):
            for a, p in zip(args if ufunc is np.multiply else args[:1], plain):  # a quotient: its dividend
                if type(a) is _Masked:
                    np.copyto(res, 0.0, where=(p == 0) & np.isnan(res))
        return out[0] if out else res.view(_Masked)


def _like(a, lanes):
    """Array ``a`` as lanes of the kind of the array ``lanes``: itself, or masked."""
    return a if type(lanes) is _ndarray else a.view(_Masked)


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
# Python's operators where there is one: nested lanes are duals, a scalar
# Dual's may be a tuple, and masked lanes mask in their own ufuncs
_OPERATORS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, neg=operator.neg)
_OPERATORS["div"] = _ieee_div
_PLAIN_OPS = type("PlainOps", (), _UFUNCS | _OPERATORS)


def ops(lanes):
    """The operations of a rule on ``lanes``, or on values: pooled, windowed or plain.

    Pooled only for a float64 array of at least ``POOL_MIN_BYTES`` while a
    ``lane_pool`` is active in this thread, so never for nested, masked or
    scalar lanes or outside a driver call; windowed for a ``_Window``.
    Pooled and plain give the same numbers; a window's left-out lanes read
    +0.0 where the full block may hold -0.0.
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


def _band(a, start, dt, dn, shape, *de):
    """The ``shape`` view of 1-D ``a`` whose entry ``(t, n)`` is ``a[start + t * dt + n * dn]``,
    steps ``de`` along the extra axes of a shape ``(w, *extra, N)``."""
    if shape[0] == 1 and not de:  # a plain slice is cheapest; a step of 0 leaves one entry
        return a[start :: dn or 1][: shape[1]][None]
    kind, a = type(a), np.ascontiguousarray(a)
    size = a.itemsize
    strides = tuple(d * size for d in (dt, *de, dn)) if de else (dt * size, dn * size)
    return kind(shape, a.dtype, a, start * size, strides)


def _lanes_first(a):
    """A ``(*extra, N)`` array as lanes-first ``(N, *extra)``; 1-D as it is."""
    return a if a.ndim == 1 else a.transpose(-1, *range(a.ndim - 1))


class _Window:
    """Lane block of full shape ``(N, k)`` that is zero outside the entries that ``block`` holds.

    At skew 1 or -1 it holds w diagonals, a band: lane n's entry t is its
    column ``lo + skew * n + t``.  ``block`` is ``(w, C)`` over the
    columns ``[c0, c0 + C)`` that the band spans in ``[0, k)``, one row a
    diagonal, so its entry ``(t, j - c0)`` is lane ``skew * (j - lo - t)``'s.
    A position whose lane falls outside ``[0, N)`` holds no lane and is
    never read: reads that need lanes (``sum``, an integer index, ``full``,
    ``columns``) take each diagonal's run of lanes (``_rows``), or a lane
    by lane view of a band inside [0, k) (``_lanes``).  At skew 0 it holds
    the w columns ``[lo, hi)``, a ``(w, N)`` block whose entry ``(t, n)``
    is lane n's column ``lo + t``.  A lane block with component axes
    before the last, ``(N, *extra, k)``, has a ``(w, *extra, C)`` block
    (``(w, *extra, N)`` at skew 0): the second-order lanes of a Hessian's
    band pass.  The drivers seed a first-order pass with a band of one
    diagonal, its N unit lanes; elementwise rules and step-1 or step-(-1)
    slices keep them there.  A band that cannot stay one (another skew or
    full lanes as the other operand) first becomes a window on the columns
    it spans (``columns``).  What cannot stay in those (another slice
    step, fancy indexes, a reshape) gives the full block, which
    ``np.asarray`` builds.
    """

    __slots__ = ("block", "lo", "hi", "k", "skew", "shape", "c0")

    def __init__(self, block, lo, k, skew=0, lanes=None):
        dims = block.shape
        if len(dims) < 2:
            raise ValueError(f"a window holds a w x C or w x N block, or w x ... x C or N, not {dims}")
        n = dims[-1] if lanes is None else lanes
        self.shape = (n, k) if len(dims) == 2 else (n, *dims[1:-1], k)  # the full block's
        self.block = block
        self.lo = lo
        self.hi = lo + dims[0]
        self.k = k
        self.skew = skew
        # a band block's column 0, its first in [0, k): span() inline, but min and max cost 2x
        first = lo if skew >= 0 else lo - n + 1
        self.c0 = first if skew and first > 0 else 0

    # read through to the block, for code that inspects lane arrays: the
    # dtype a scalar Dual's lanes take on, sizes for allocation counters
    ndim = property(lambda self: self.block.ndim)
    dtype = property(lambda self: self.block.dtype)
    nbytes = property(lambda self: self.block.nbytes)
    flags = property(lambda self: self.block.flags)

    def span(self):
        """The columns ``[first, stop)`` that the entries lie in."""
        reach = self.skew * (self.shape[0] - 1)
        return self.lo + min(reach, 0), self.hi + max(reach, 0)

    def like(self, block):
        """A window on the same entries holding ``block``, a rule's result with as many rows, built
        without ``__init__``: the shape is this one's, or anew where extra axes may broadcast."""
        out = _new(_Window)
        out.block, out.lo, out.hi, out.k, out.skew, out.c0 = block, self.lo, self.hi, self.k, self.skew, self.c0
        out.shape = self.shape if block.ndim == 2 else (self.shape[0], *block.shape[1:-1], self.k)
        return out

    def copy(self):
        """A window on the same entries; a target may copy ``v.partials``."""
        return self.like(self.block.copy())

    def _rows(self):
        """``(t, first, stop, entries)`` for each diagonal t of a band whose lanes ``[first, stop)``
        have columns in the block: ``entries`` is the ``(1, *extra, stop - first)`` view of them."""
        block, lanes, rows = self.block, self.shape[0], []
        cols, at = block.shape[-1], self.lo - self.c0  # lane 0's position on diagonal 0
        for t in range(block.shape[0]):
            d = at + t  # lane n's position on diagonal t is d + skew * n
            if self.skew > 0:
                first, stop = max(0, -d), min(lanes, cols - d)
                run = block[t : t + 1, ..., d + first : d + stop]
            else:
                first, stop = max(0, d + 1 - cols), min(lanes, d + 1)
                run = block[t : t + 1, ..., d + 1 - stop : d + 1 - first][..., ::-1]
            if first < stop:
                rows.append((t, first, stop, run))
        return rows

    def _lanes(self):
        """The block lane by lane, ``(w, *extra, N)``, where a view gives it: at skew 0, and for a band
        inside [0, k) of one diagonal or without extra axes (of a C-order copy if need be); else None."""
        block, skew, lanes = self.block, self.skew, self.shape[0]
        w, cols = block.shape[0], block.shape[-1]
        if not skew or cols != lanes + w - 1:
            return None if skew else block
        if w == 1:  # a plain slice is cheapest
            return block[..., ::skew]
        return _band(block.reshape(-1), self.lo - self.c0, cols + 1, skew, (w, lanes)) if block.ndim == 2 else None

    def _spread(self, cols, first=0, by_column=False):
        """Lanes on the columns [first, first + cols), zero but its entries: N x cols, or cols x N
        (N x extra x cols, or cols x extra x N)."""
        block, rows, extra = self.block, self.shape[0], self.block.shape[1:-1]
        shape = (cols, *extra, rows) if by_column else (rows, *extra, cols)
        out = pooled_zeros(shape) if cols == self.k else np.zeros(shape)
        # entry (t, *e, n) goes to column lo + skew * n + t of lane n; the steps are out's
        unit = rows if by_column else cols
        de = [unit * math.prod(extra[i + 1 :]) for i in range(len(extra))]
        size = unit * math.prod(extra)
        dt, dn = (size, self.skew * size + 1) if by_column else (1, size + self.skew)
        flat, start = out.reshape(-1), (self.lo - first) * dt
        lanes = self._lanes()  # all diagonals as one run where they are lane-aligned
        for t, n, _, entries in self._rows() if lanes is None else [(0, 0, rows, lanes)]:
            _band(flat, start + t * dt + n * dn, dt, dn, entries.shape, *de)[...] = entries
        return _like(out, block)

    def full(self):
        """The full block."""
        _leave("full")
        return self._spread(self.k)

    def columns(self):
        """The same lanes as a window on the columns of [0, k) they span; itself at skew 0."""
        if not self.skew:
            return self
        _leave("columns")
        return _Window(self._spread(self.block.shape[-1], self.c0, True), self.c0, self.k)

    def _tile(self, first, stop):
        """The window of the lanes [first, stop)."""
        block, skew, c0 = self.block, self.skew, self.c0
        if not skew:
            return _Window(block[..., first:stop], self.lo, self.k)
        lo = self.lo + skew * first
        low = lo + min(skew * (stop - first - 1), 0)  # the tile's span, clipped to [0, k)
        a, b = max(low, 0), min(low + stop - first + block.shape[0] - 1, self.k)
        return _Window(block[..., a - c0 : max(a, b) - c0], lo, self.k, skew, stop - first)

    def __array__(self, dtype=None, copy=None):
        return self.full() if dtype is None else self.full().astype(dtype, copy=False)

    def reshape(self, shape):
        return self.full().reshape(shape)

    def __getitem__(self, idx):
        """Lanes at ``(_EVERY_LANE, ..., i)``, the index ``DualVector.__getitem__`` passes.

        On the last component axis, every other one taken whole, an integer
        gives its column and a step-1 or step-(-1) slice a window; any
        other index reads the full block.
        """
        block, skew = self.block, self.skew
        ours = type(idx) is tuple and len(idx) == block.ndim and idx[0] is _EVERY_LANE
        if ours and len(idx) > 2:
            ours = all(e is _EVERY_LANE for e in idx[1:-1])
        i = idx[-1] if ours else None
        if type(i) is int or isinstance(i, np.integer):
            # DualVector indexed its values first, so i is in range
            j = i - self.lo + (self.k if i < 0 else 0)
            if not skew:
                row = block[j] if 0 <= j < block.shape[0] else _like(np.zeros(block.shape[1:]), block)
                return _lanes_first(row)
            # diagonal t holds lane skew * (j - t) in this column, a run of at most w lanes
            lanes, w = self.shape[0], block.shape[0]
            out = _lanes_first(_like(np.zeros((*block.shape[1:-1], lanes)), block))
            t0, t1 = (max(0, j - lanes + 1), min(w, j + 1)) if skew > 0 else (max(0, j), min(w, j + lanes))
            if t0 < t1:
                entries = block[t0:t1, ..., j + self.lo - self.c0]
                if skew > 0:
                    out[j - t1 + 1 : j - t0 + 1] = entries[::-1]
                else:
                    out[t0 - j : t1 - j] = entries
            return out
        if type(i) is slice and (taken := range(self.k)[i]).step in (1, -1):
            # the columns [a, b) that the slice takes
            if taken.step == 1:
                a, b = taken.start, taken.stop
            else:
                a, b = taken.stop + 1, taken.start + 1
            first, stop = self.span()
            if min(b, stop) <= max(a, first):
                return _Window(_like(np.empty((0, *block.shape[1:-1], self.shape[0])), block), 0, len(taken))
            if skew:  # a band keeps its lanes; the block keeps the columns in [a, b)
                first, stop = max(self.c0, a), min(self.c0 + block.shape[-1], b)
                block, lo, hi = block[..., first - self.c0 : stop - self.c0], self.lo, self.hi
            else:
                lo, hi = max(self.lo, a), min(self.hi, b)
                block = block[lo - self.lo : hi - self.lo]
            if taken.step == 1:
                return _Window(block, lo - a, len(taken), skew, self.shape[0])
            flipped = block[::-1, ..., ::-1] if skew else block[::-1]
            return _Window(flipped.copy(), b - hi, len(taken), -skew, self.shape[0])
        return self.full()[idx]

    def sum(self, axis):
        """Sum over the last axis, in the window where that gives the full block's numbers.

        A lane with at most two nonzero entries sums to the same ``fl(a + b)``
        in any order: the rows add.  Any other lane is summed over its full
        row, in numpy's pairwise order, built in tiles of lanes of at most
        LANE_BLOCK_BYTES.  Neither leaves the band (``in_band``).
        """
        block, lanes = self.block, self._lanes()
        if lanes is None and block.shape[0] <= 2:  # each lane adds its entries to +0.0, as np.add.reduce does
            out = _like(np.zeros((*block.shape[1:-1], self.shape[0])), block)
            for _, first, stop, entries in self._rows():
                out[..., first:stop] += entries[0]
            return _lanes_first(out)
        if lanes is None:  # lane by lane, zero where a diagonal has no column
            lanes = _like(np.zeros((*block.shape[:-1], self.shape[0])), block)
            for t, first, stop, entries in self._rows():
                lanes[t : t + 1, ..., first:stop] = entries
        if lanes.shape[0] <= 2 or np.add.reduce(lanes != 0, 0).max() <= 2:
            rows = np.add.reduce(lanes, 0)  # lanes.sum(axis=0) without its wrapper
            return rows if lanes.ndim == 2 else _lanes_first(rows)
        count, extra = self.shape[0], lanes.shape[1:-1]
        rows = max(1, LANE_BLOCK_BYTES // (8 * self.k * math.prod(extra)))
        out = _like(np.empty((count, *extra)), block)
        for r in range(0, count, rows):
            out[r : r + rows] = self._tile(r, min(r + rows, count))._spread(self.k).sum(axis=-1)
        return out


class _LeftBand(BaseException):
    """A lane window left its band inside ``in_band``.

    Not an Exception, so that a target's ``except Exception`` lets it through.
    """


def _leave(how):
    """A window leaves its band ("columns" or "full"): stop if guarded against that."""
    if how in _active.guard:
        if _active.left in (None, "columns"):
            _active.left = how
        raise _LeftBand(how)


def in_band(f, arg, stops=("columns", "full")):
    """``(f(arg), None)``, or ``(None, how)`` if a lane window in f would leave its band.

    The first step out in ``stops`` raises before it builds anything: to
    a column window or to the full block.  ``how`` names it; if f caught a
    "columns" stop and went on to the full block, "full".  What f then returns, or
    raises as an ``Exception``, is dropped.  The thread's guard and its
    record of a stop are restored on the way out, so guards nest.
    """
    outer, (_active.guard, _active.left) = (_active.guard, _active.left), (stops, None)
    try:
        y = f(arg)
    except (Exception, _LeftBand):
        if _active.left is None:
            raise
    finally:
        left, (_active.guard, _active.left) = _active.left, outer
    return (None, left) if left else (y, None)


def _full(a):
    return a.full() if type(a) is _Window else a


def _scale(ufunc):
    """mul or div of lanes by a coefficient: a window scales its entries only.

    A scalar, 0-d or ``(1,)`` coefficient, or one of shape ``(*lead, k)``
    or ``(*lead, 1)`` with no more axes than the block's extra ones,
    broadcasts over a band's block as its columns ``[c0, c0 + C)``, and
    over a column window's rows as its columns ``[lo, hi)``.  Every rule
    puts its lanes on the left, so a window on the right reads its full
    block (as a divisor, its zeros give c / 0 outside the entries), and so
    does one that meets any other coefficient.
    """

    def op(a, b):
        if type(a) is not _Window:  # full lanes over a window's
            return pooled(ufunc, a, _full(b))
        block = a.block
        c = part = b if type(b) in _POOL_SCALARS else np.asanyarray(b)  # masked: a nested pass's lanes
        if isinstance(c, _ndarray) and c.ndim:
            if c.ndim >= block.ndim or c.shape[-1] not in (1, a.k):
                return pooled(ufunc, a.full(), c)
            if not a.skew and c.shape[-1] != 1:  # the block's rows are the columns [lo, hi)
                lead = (1,) * (block.ndim - 1 - c.ndim) + c.shape[:-1]
                part = _lanes_first(c[..., a.lo : a.hi]).reshape((a.hi - a.lo, *lead, 1))
            elif a.skew and c.shape[-1] == a.k != block.shape[-1]:  # one that spans [0, k) takes c whole
                part = c[..., a.c0 : a.c0 + block.shape[-1]]
        if block.ndim == 2:
            return a.like(ufunc(block, part))
        return a.like(ufunc(block, part, order="C"))  # not an order that broadcasting picks

    return op


def _join(ufunc):
    """add or sub of two lane blocks: windows of one skew join on the union of their entries."""

    def op(a, b):
        wa, wb = type(a) is _Window, type(b) is _Window
        if not (wa or wb):  # a value channel, or full lanes
            return pooled(ufunc, a, b)
        same = wa and wb and a.shape == b.shape
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
            row = 8 * math.prod(a.shape[:-1])  # a diagonal's or a column's lanes
            if (hi - lo) * row > max(LANE_BLOCK_BYTES, (a.hi - a.lo + b.hi - b.lo) * row):
                _leave("columns")  # a union that pays for a wide gap between the entries
            # a band's rows take the columns of both; at skew 0 both are all N lanes
            ca, cb = a.block.shape[-1], b.block.shape[-1]
            c0 = min(a.c0, b.c0)
            out = _like(np.zeros((hi - lo, *a.block.shape[1:-1], max(a.c0 + ca, b.c0 + cb) - c0)), a.block)
            out[a.lo - lo : a.hi - lo, ..., a.c0 - c0 : a.c0 - c0 + ca] = a.block
            part = out[b.lo - lo : b.hi - lo, ..., b.c0 - c0 : b.c0 - c0 + cb]
            ufunc(part, b.block, out=part)
            return _Window(out, lo, a.k, a.skew, a.shape[0])
        if wa != wb:  # full lanes (a dense vector's, a scalar Dual's) and a window
            _leave("full")
            win, full = (a.columns(), b) if wa else (b.columns(), a)
            shape = np.broadcast_shapes(win.shape, np.shape(full))
            if shape[-1] == win.k:
                # the full block, without writing the window's zeros out first
                out = _pooled_empty(shape)
                ufunc(0.0 if wa else a, 0.0 if wb else b, out=out)
                part = out[..., win.lo : win.hi]
                cols = full[..., win.lo : win.hi] if np.shape(full)[-1:] == (win.k,) else full
                block = win.block.swapaxes(0, -1)  # lanes first, columns last
                ufunc(block if wa else cols, cols if wa else block, out=part)
                return _like(out, block)
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
