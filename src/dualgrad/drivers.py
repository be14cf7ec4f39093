"""Differentiation drivers: derivatives, chunked gradients, Jacobians,
Hessians and third-order tensors, plus the threaded chunk scheduler.

The gradient of f at a point of dimension k is computed in ceil(k / N)
passes through f, where N is the chunk size.  Pass p seeds components
p*N .. min(p*N + N, k) - 1 with orthogonal unit lanes and leaves every
other component as a plain value; the output lanes of that pass are the
partial derivatives of the seeded components.  A trailing chunk narrower
than N seeds only the remaining components.  Lanes propagate independently,
so the assembled gradient is identical, bit for bit, for every chunk size
(the sign of an exactly-zero entry aside, see below).

Every level's unit lanes are built one way, as a ``pool._Window`` band of
ones on the block's diagonal, which a dense pass 0 (every driver's, unless
it runs in band, below) reads as the full N x k lane block.  When the
lanes a window would skip, N x (k - 2N) float64, come to at least
POOL_MIN_BYTES and pass 0's output lanes are all finite, every later pass
of a gradient or Jacobian keeps the band: only the entries its N seeds can
reach are computed, so a Rosenbrock pass does N x 2 lane work (N lanes by
the band's width) instead of N x k.  The entries it leaves out are exact
zeros in a dense pass, because a coefficient that is non-finite on a
column reaching the result would have made pass 0's lanes non-finite too;
a zero derivative entry may come out as +0.0 where a dense pass gave
-0.0.  Below the gate a window's per-op bookkeeping costs more than the
columns it skips (Rosenbrock at chunk 64, median of 5 interleaved runs:
1.05x dense at k=140, 1.16x at k=200, 0.78x at k=256).

At the default chunk N0 = default_chunk(k), where windows pay, pass 0 is
a band pass itself: on ``_plan``'s first block of up to 32768 components
for a gradient (one pass for Rosenbrock at k=3000, not 300), on N0 for a
Jacobian, whose outputs size the later blocks.  f runs it
``pool.in_band``, where a coefficient that would turn the left-out zeros
into NaN stops the pass, standing in for the dense pass 0's finiteness
test.  So does a band that f would turn into the full N x k block (fancy
indexes, reshape, a dense vector or scalar dual operand), and in a pass
wider than WIDE_CHUNK one it would turn into a window on its columns (a
reversed operand) or a union across a wide gap.  A stopped pass 0 runs
again dense on N0 lanes, and the rest in windowed blocks where those
fallbacks stay small (``_passes``).

Higher-order drivers nest duals (forward-over-forward).  For a Hessian
each pass seeds a block of M components on the float64 lanes of a
DualVector and a block of N components on the lanes of a NestedDualVector
wrapped around it, so one pass fills an M x N block of the k x k matrix
and ceil(k/M) * ceil(k/N) passes fill all of it; the third-order tensor
adds one more nesting level.  A default Hessian from k = 27 seeds all k
components (up to ``_wide()``) on its outer lanes as one guarded band, so
it takes ceil(k/N) passes at N = default_chunk(k, 2): its first-order
lanes are the band of a gradient's pass, its second-order lanes (M x N x
k) a band w x N x M, and its inner lanes stay dense.  Any stop runs the
dense plan instead: from pass 0 at N0 x N0 if pass 0 stopped, or a later
pass's inner block at N0 x N.  Every level is float64 arrays, and one pass
loop, one seeding helper and one runner serve all orders, the Jacobian
and every thread count; only the reader of the target's result differs.

Each thread that runs passes enters ``np.errstate(all="ignore")`` once
a call (numpy's error state is per thread), so out-of-domain points give
inf/nan derivatives and never warn; outside a driver, dual arithmetic
follows numpy's error state like ndarray arithmetic does.  It also enters
a ``pool.lane_pool``: float64 rule results of at least 64 KiB go into
buffers reused from earlier passes and calls of that thread, once nothing
refers to their old contents, not fresh ones that glibc returns to the OS
and the next pass page-faults in again; a worker's pool ends with it.

All drivers require a pure target function: same input, same output.
Each later pass compares its value channel (every output, for a
Jacobian) with pass 0's as soon as it has read it; a difference raises
ImpureTargetError, and no thread starts another pass.  One runner runs
every call: passes 0 and 1 on the caller, then the rest from one queue
that the caller and the workers draw from in order, the caller first, so
a serial call is the one-thread case.  With more threads f must be safely
callable from several threads at once; a worker running below break-even
(measured against the faster of the caller's first two passes) stops
drawing and leaves the rest to the caller, passes write disjoint slices,
and no worker outlives its call.  Besides its passes a call does
only what its result needs: a band target's default gradient up to
k = 32768, one pass, plans no further pass, starts no thread, fills no
array it drops and reads the clock only around that pass.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
import time
from dataclasses import dataclass

import numpy as np

from .dual import Dual, _DualKind, base_value
from .pool import LANE_BLOCK_BYTES, POOL_MIN_BYTES, _Window, in_band, lane_pool, pooled_zeros
from .vector import DualVector, NestedDualVector

__all__ = [
    "ChunkConfig",
    "GradientResult",
    "JacobianResult",
    "HessianResult",
    "EvalCounter",
    "ImpureTargetError",
    "default_chunk",
    "derivative",
    "second_derivative",
    "gradient",
    "gradient_threaded",
    "jacobian",
    "hessian",
    "third_order_tensor",
]

# Wider chunks mean fewer passes, and each op costs about a microsecond of
# numpy dispatch whatever its width, so the default is the widest chunk
# whose lane block (N**levels * k float64 lanes at nesting depth levels)
# fits LANE_BLOCK_BYTES.  chunk-sweep on a 2-CPU x86 host, min of 7, at
# N = 8 / 16 / 32 / 64: Ackley at k=1000 took 11.3 / 8.3 / 6.2 / 9.1 ms;
# Rosenbrock at k=3000 peaked at 35.6 / 37.2 / 39.9 / 45.9 MiB of RSS, as
# the pool keeps wider blocks.  The floor of 8 keeps k >= 4096 as it was.
# A default gradient's band passes hold a few entries a lane whatever their
# width, so they take up to 32768 lanes (``_plan``).  A band that meets a
# reversed one falls back to a window of N lanes by up to 2N columns, so a
# pass that wide stops there, and the rest runs WIDE_CHUNK lanes a pass:
# at 128 / 256 / 512 / 1024 lanes that fallback peaked at 35.7 / 36.6 /
# 39.4 / 51.1 MiB at k=3000.
DEFAULT_CHUNK_LIMIT = 8
WIDE_CHUNK = 512


def default_chunk(k, levels=1):
    """Lanes per level at nesting depth ``levels`` (2 for a Hessian) when the
    caller picks none: the widest N <= k whose lane block of N**levels * k
    float64 lanes fits LANE_BLOCK_BYTES, but never fewer than min(k, 8).
    A default Hessian from k = 27 seeds its outer lanes on all k components
    in band, so only its inner level takes blocks of this N."""
    fits = LANE_BLOCK_BYTES // (8 * k)  # the largest N**levels in budget
    n = round(fits ** (1 / levels))  # the float root is off by at most one
    return min(k, max(DEFAULT_CHUNK_LIMIT, n - (n**levels > fits)))


def _windows_pay(n, k):
    """Whether later passes of n lanes keep windows: the lanes one skips fill POOL_MIN_BYTES."""
    return n * (k - 2 * n) * 8 >= POOL_MIN_BYTES


def _wide(outputs=1):
    """Lanes of a band pass whose N x outputs result fits LANE_BLOCK_BYTES; WIDE_CHUNK at least."""
    return max(WIDE_CHUNK, LANE_BLOCK_BYTES // (8 * outputs))


def _plan(k, chunk_size):
    """A gradient's component blocks, pass 0 first, when f keeps its lanes in band: N each at
    an explicit chunk N, and at the default N0 = default_chunk(k), if windows pay, ``_wide()``
    = 32768 each, so one pass up to k = 32768."""
    n = _resolve("chunk_size", chunk_size, k)
    return _blocks(k, _wide() if chunk_size is None and _windows_pay(n, k) else n)


def _check_count(name, value, least=1):
    """``value`` as an int >= least; anything else (floats, bools, less) raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _resolve(name, value, k, levels=1):
    """Lanes per pass: ``value`` clamped to k, or ``default_chunk(k, levels)`` for None."""
    if value is None:
        return default_chunk(k, levels)
    return min(_check_count(name, value), k)


@dataclass(frozen=True)
class ChunkConfig:
    """Runtime tuning for gradient passes.

    chunk_size: lanes per pass, clamped to the input dimension: ceil(k / N)
    passes.  None picks ``default_chunk(k)`` = N0 (k up to k=181, 32 at
    k=1000, 8 from k=4096 on), and where lane windows pay, one band pass
    per 32768 components for a gradient (``_plan``).  Where f would leave
    the lanes' band or scale them by an unsafe coefficient, pass 0 runs
    again dense on N0 lanes and the rest WIDE_CHUNK or N0 lanes a pass
    (``_passes``).
    threads: worker count for the chunk scheduler; 1 means serial.
    """

    chunk_size: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.chunk_size is not None:
            _check_count("chunk_size", self.chunk_size)
        _check_count("threads", self.threads)

    def resolve(self, k):
        return _resolve("chunk_size", self.chunk_size, k)


@dataclass(frozen=True)
class GradientResult:
    """Dense gradient plus f(x), which the value channel yields for free."""

    values: np.ndarray
    f_value: float


@dataclass(frozen=True)
class JacobianResult:
    """Dense m x k Jacobian; entry (i, j) is df_i/dx_j."""

    entries: np.ndarray
    f_value: np.ndarray


@dataclass(frozen=True)
class HessianResult:
    """Dense k x k Hessian with the gradient and value from the same passes."""

    entries: np.ndarray
    gradient: np.ndarray
    f_value: float


class ImpureTargetError(AssertionError):
    """The target function's value changed between passes.

    It subclasses AssertionError, the type the purity check raised when it
    was an ``assert`` (which ``python -O`` removed), so existing handlers
    keep working.
    """


class EvalCounter:
    """Wrapper counting evaluations of a target function (thread-safe).

    Lets tests and the verifier confirm the pass accounting of the chunked
    drivers.
    """

    def __init__(self, f):
        self.f = f
        self.count = 0
        self._lock = threading.Lock()

    def __call__(self, x):
        with self._lock:
            self.count += 1
        return self.f(x)

    def reset(self):
        with self._lock:
            self.count = 0


# ----------------------------------------------------------------------
# scalar drivers
# ----------------------------------------------------------------------


def _check_scalar(name, x):
    """Raise ValueError unless the point x is a scalar (a 0-d array counts)."""
    if np.ndim(x):
        raise ValueError(f"{name} needs a scalar point, got shape {np.shape(x)}")


def derivative(f, x):
    """First derivative of a scalar function at x via a single-lane dual."""
    _check_scalar("derivative", x)
    with np.errstate(all="ignore"):
        y = f(Dual(x, (1.0,)))
    return float(base_value(_lane(y, 0)))


def second_derivative(f, x):
    """Exact second derivative via one nested (hyper-dual) evaluation.

    Seeds inner and outer unit lanes with a zero cross seed, then reads the
    partial-of-partial of the result.
    """
    _check_scalar("second_derivative", x)
    with np.errstate(all="ignore"):
        y = f(Dual(Dual(x, (1.0,)), (Dual(1.0, (0.0,)),)))
    return float(base_value(_lane(_lane(y, 0), 0)))


def _lane(v, i):
    """Lane i of a scalar dual; a scalar constant contributes a zero lane."""
    if isinstance(v, Dual):
        return v.partials[i]
    _check_result(v, _is_scalar(v), "a scalar")
    return 0.0


def _is_scalar(v):
    """True for a plain number, a numpy scalar or a 0-d array; checked without converting v."""
    return isinstance(v, (numbers.Number, np.generic)) or isinstance(v, np.ndarray) and v.ndim == 0


def _check_result(y, ok, expected):
    """Raise the drivers' TypeError, naming y's shape or type, unless ``ok``."""
    if not ok:
        shaped = isinstance(y, (np.ndarray, DualVector))
        got = f"shape {y.shape}" if shaped else f"a {type(y).__name__}"
        raise TypeError(f"target function must return {expected}, got {got}")


# ----------------------------------------------------------------------
# the pass machinery shared by every chunked driver
# ----------------------------------------------------------------------


def _vector(values, partials):
    return (DualVector if isinstance(values, np.ndarray) else NestedDualVector)(values, partials)


def _constant(values, widths):
    """Float array ``values`` as duals with zero lanes of the given widths."""
    if not widths:
        return values
    *inner, width = widths
    zeros = pooled_zeros((width,) + values.shape)
    return _vector(_constant(values, inner), _constant(zeros, inner))


def _seeded(x, blocks, windowed=False):
    """Input of one pass: x with unit lanes on the components in blocks[d] at level d.

    Level 0 is a float64 DualVector; every further level wraps the one
    below in a NestedDualVector whose unit lanes are constants of the
    levels below.  A windowed input keeps its level-0 unit lanes as the
    ``pool._Window`` band of ones; a windowed Hessian's inner unit lanes
    are dense, their zero level-0 lanes a window without entries.  Any
    other input gets the full blocks as ndarrays.
    """
    k, widths, out = x.shape[0], [b.stop - b.start for b in blocks], x
    for d, block in enumerate(blocks):
        ones = np.empty((1, widths[d]))
        ones.fill(1.0)  # np.ones without its wrapper, a third of the seeding's time
        unit = _Window(ones, block.start, k, 1)
        if not windowed:
            unit = _constant(unit.full(), widths[:d])
        elif d:  # a Hessian's inner units are dense, their outer lanes an empty window
            unit = DualVector(unit.full(), _Window(np.empty((0, widths[d], widths[0])), 0, k))
        out = _vector(out, unit)
    return out


def _scalar_output(y, widths):
    """(f value, outermost first-order lanes, highest-order lane block) of a result."""
    if not isinstance(y, _DualKind):  # constant: every lane is zero
        _check_result(y, _is_scalar(y), "a scalar")
        return y, np.zeros(widths[-1]), np.zeros(widths)
    if not isinstance(y, Dual) and y.ndim:
        raise TypeError("target function must return a scalar, got a vector")
    top = y
    for _ in widths:
        top = top.partials
    top = np.asarray(top, dtype=np.float64)
    if top.shape != widths:
        raise ValueError(f"target function returned lanes of shape {top.shape}, expected {widths}")
    first = top if len(widths) == 1 else base_value(y.partials)
    return base_value(y), first, top


def _blocks(k, chunk, start=0):
    """Component slices of [start, k) at one level: chunk wide, the last one narrower."""
    return [slice(lo, min(lo + chunk, k)) for lo in range(start, k, chunk)]


def _check_pure(first, value, p):
    """Raise ImpureTargetError unless pass p's f value is pass 0's (NaN equals NaN)."""
    if isinstance(first, np.ndarray):  # a vector target's
        same = np.array_equal(value, first, equal_nan=True)
    else:
        same = value == first or (value != value and first != first)
    if not same:
        raise ImpureTargetError(
            f"target function is impure: value channel changed between passes "
            f"(pass 0 gave {first}, pass {p} gave {value})"
        )


def _run_passes(run, count, threads):
    """run(p) for every pass: passes 0 and 1 on the caller, alone, then the rest from one queue.

    count() is read after pass 0, which plans the others, so a call of one or two passes
    ends with its last one and starts no thread.  The caller and up to threads - 1 workers
    draw passes 2.. in order from one iterator under a lock, the caller first.  t_ref, the
    lesser time of passes 0 and 1 (either may be slow: pass 0 may stop and run again, a
    collection may land in one), budgets the workers: one whose passes, timed from the
    fan-out, average over threads * t_ref stops drawing, as all threads together then finish
    fewer passes per second than the caller alone would, and the caller draws the rest.
    The first failure stops all drawing and is re-raised after the join; a failed start's
    error is re-raised once the caller has drained the queue and joined the workers that did
    start, so no worker outlives its call.
    """
    with lane_pool(), np.errstate(all="ignore"):
        t_ref = math.inf
        for p in range(2):
            if p < count():
                start = time.perf_counter()
                run(p)
                t_ref = min(t_ref, time.perf_counter() - start)
        if count() <= 2:
            return
        queue, lock, failures, started = iter(range(2, count())), threading.Lock(), [], []
        threads = min(threads, count() - 2)

        def work(budget):
            """Draw and run passes until the queue is empty, a pass fails or they average over budget."""
            try:
                for i in itertools.count(1):
                    with lock:
                        p = None if failures else next(queue, None)
                    if p is None:
                        return
                    run(p)
                    if time.perf_counter() - fanned_out > i * budget * t_ref:
                        return
            except BaseException as exc:  # re-raised after the join barrier
                failures.append(exc)

        def worker():
            go.wait()  # the caller draws first
            with lane_pool(), np.errstate(all="ignore"):
                work(threads)

        go = threading.Event()
        try:
            for _ in range(threads - 1):
                w = threading.Thread(target=worker)
                w.start()
                started.append(w)
        finally:  # a failed start still drains the queue and joins the workers it left
            fanned_out = time.perf_counter()
            go.set()
            work(math.inf)
            for w in started:
                w.join()
        if failures:
            raise failures[0]


def _passes(f, x, chunks, threads=1, read=_scalar_output, lead=None):
    """One pass through f per combination of lane blocks, one block per level.

    chunks holds the lanes per pass at each nesting level, level 0 first.  read(y, widths)
    turns f's result into (f value, the outermost level's first-order lanes or None, lane
    block of shape (outputs..., *widths)).  Pass 0 seeds each level's first block, dense; it
    sizes the result and, unless it covered every component, plans the other passes, the
    product of each level's blocks.  Given ``lead`` (at the default chunk N0 of a first-order
    call where windows pay, or of a Hessian in band), pass 0 seeds ``lead`` outer lanes
    ``pool.in_band``, as does every later block wider than WIDE_CHUNK, in ``_wide(outputs)``
    outer blocks, and every pass of a Hessian.  A guarded pass stops, its result dropped,
    where f would leave a band that wide or meets an unsafe coefficient.  A stopped pass 0
    runs again dense at N0 and the rest in windowed blocks: WIDE_CHUNK lanes after a column
    window, N0 after a full block or an unsafe coefficient, or dense ones if pass 0's lanes
    are not finite (a Hessian: the dense plan); a stopped later block runs again in those
    narrow blocks, in the same call of ``run``.  Later passes are checked against pass 0's
    value and output count.  Returns (derivative array of shape (outputs...,) + (k,) *
    len(chunks), a Hessian's gradient or None, f value).
    """
    k, n = x.shape[0], chunks[0]
    # later first-order passes run on lane windows if they pay and pass 0's lanes are finite
    windowed = len(chunks) == 1 and _windows_pay(n, k)
    guarded = lead is not None  # whether wide passes run in band: until pass 0 stops
    combos = [(slice(0, min(k, lead if guarded else n)), *[slice(0, c) for c in chunks[1:]])]
    f0 = out = grad = narrow = None  # pass 0's f value, the arrays it sizes, lanes after a stop

    def run(p):
        """Pass p, in band where guarded; a stopped pass runs again in narrow blocks."""
        nonlocal guarded, narrow
        blocks = combos[p]
        narrow_pass = windowed and blocks[0].stop - blocks[0].start <= WIDE_CHUNK
        if not guarded or p and narrow_pass:
            return record(p, blocks, f(_seeded(x, blocks, p > 0 and windowed)))
        # a first-order pass no wider than WIDE_CHUNK keeps its column windows: they are small there
        stops = ("full", "unsafe") if narrow_pass else ("columns", "full", "unsafe")
        y, left = in_band(f, _seeded(x, blocks, True), stops)
        if not left:
            return record(p, blocks, y)
        width = WIDE_CHUNK if left == "columns" and windowed else n
        if p == 0:  # pass 0 again, dense at N0, and the rest in blocks of width
            guarded, narrow, combos[0] = False, width, (slice(0, n), *blocks[1:])
            return record(0, combos[0], f(_seeded(x, combos[0])))
        for b in _blocks(blocks[0].stop, width, blocks[0].start):
            record(p, (b, *blocks[1:]), f(_seeded(x, (b, *blocks[1:]), windowed)))

    def record(p, blocks, y):
        """Read pass p's result y, check it and copy it out; pass 0 sizes and plans the rest."""
        nonlocal windowed, f0, out, grad
        widths = tuple([b.stop - b.start for b in blocks])
        value, first, top = read(y, widths)
        outputs = top.shape[: top.ndim - len(widths)]
        if p == 0:  # pass 0 runs first and alone
            windowed = windowed and (guarded or bool(np.isfinite(top).all()))
            f0, out = value, np.empty(outputs + (k,) * len(widths))
            grad = np.empty(k) if len(widths) == 2 else None  # only a Hessian returns it
            if widths != (k,) * len(widths):
                width = _wide(math.prod(outputs)) if guarded else narrow if narrow and windowed else n
                firsts = [blocks[0], *_blocks(k, width, widths[0])]
                combos[1:] = list(itertools.product(firsts, *[_blocks(k, c) for c in chunks[1:]]))[1:]
        elif outputs != out.shape[: len(outputs)]:
            raise ValueError(
                f"target function changed output length between passes: {out.shape[0]} then {outputs[0]}"
            )
        else:
            _check_pure(f0, value, p)
        if grad is not None:
            grad[blocks[-1]] = first
        out[(..., *blocks)] = top

    _run_passes(run, lambda: len(combos), threads)
    return out, grad, f0


def _as_input_vector(x):
    """x as a 1-D float64 array; raise ValueError unless it is real numbers (bool, int, float)."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"input must be real numbers, got dtype {x.dtype}")
    if x.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty input: gradients need at least one component")
    return x.astype(np.float64, copy=False)


def _first_order(f, x, cfg, read=_scalar_output):
    """``_passes`` of a gradient or Jacobian, cfg (None for the defaults) and x checked: at the default
    chunk a band pass 0 on ``_plan``'s first block, or on N0 lanes for a Jacobian's outputs."""
    if cfg is not None and not isinstance(cfg, ChunkConfig):
        raise ValueError(f"cfg must be a ChunkConfig or None, got {cfg!r}")
    chunk, threads = (None, 1) if cfg is None else (cfg.chunk_size, cfg.threads)
    x = _as_input_vector(x)
    n = _resolve("chunk_size", chunk, x.shape[0])
    band = chunk is None and _windows_pay(n, x.shape[0])
    lead = (_wide() if read is _scalar_output else n) if band else None
    return _passes(f, x, (n,), threads, read, lead)


def gradient(f, x, cfg=None):
    """Gradient of scalar f at x in ceil(k / N) passes at chunk size N, or fewer at the default.

    f receives a DualVector (a sequence of k duals) and must return a
    scalar; x is any 1-D vector of real numbers, and cfg a ChunkConfig or
    None for the defaults.  With cfg.threads > 1 the passes are
    distributed across the threaded scheduler, which produces bitwise
    identical results.
    """
    values, _, f_value = _first_order(f, x, cfg)
    return GradientResult(values, float(f_value))


def gradient_threaded(f, x, cfg=None):
    """``gradient``, passes 2.. drawn by cfg.threads threads from one queue (``_run_passes``), bitwise equal.

    At the default chunk a band target takes one pass up to k = 32768 and
    starts no thread.  The target must tolerate concurrent calls.
    """
    return gradient(f, x, cfg)


# ----------------------------------------------------------------------
# Jacobian
# ----------------------------------------------------------------------


def _check_lanes(n_lanes, width):
    """Raise ValueError unless a result carries the ``width`` lanes its pass seeded."""
    if n_lanes != width:
        raise ValueError(f"target function returned {n_lanes} lanes, expected {width}")


def _vector_output(y, widths):
    """(values, None, lanes by output component) of a vector-valued target-function result."""
    (width,) = widths
    if isinstance(y, DualVector) and y.ndim == 1:
        _check_lanes(y.n_lanes, width)
        values = np.asarray(y.values, dtype=np.float64)
        return values, None, np.asarray(y.partials, dtype=np.float64).T
    # a list is never converted: np.shape on a list of vectors builds an object array
    flat = isinstance(y, (list, tuple)) or isinstance(y, np.ndarray) and y.ndim == 1
    _check_result(y, flat, "a 1-D vector")
    values, lanes = np.empty(len(y)), np.zeros((len(y), width))
    for i, c in enumerate(y):
        if isinstance(c, Dual):
            _check_lanes(len(c.partials), width)
            lanes[i] = np.asarray(c.partials, dtype=np.float64)
        else:
            _check_result(c, _is_scalar(c), "a 1-D vector of scalars")
        values[i] = base_value(c)
    return values, None, lanes


def jacobian(f, x, cfg=None):
    """m x k Jacobian of a vector-valued f, one column block per chunk, threaded as ``gradient``."""
    entries, _, f_value = _first_order(f, x, cfg, _vector_output)
    return JacobianResult(entries, f_value.copy())  # never x itself or a pooled buffer


# ----------------------------------------------------------------------
# higher-order drivers
# ----------------------------------------------------------------------


def hessian(f, x, outer_chunk=None, inner_chunk=None):
    """Dense Hessian by forward-over-forward differentiation.

    Each pass seeds M = outer_chunk components on the float64 lanes and N = inner_chunk
    on the nested lanes, filling the k x k matrix in ceil(k/M) * ceil(k/N) passes through
    f, which also give the gradient and f(x).  A chunk left None is ``default_chunk(k, 2)``:
    k up to k=32 (one pass), 18 at k=100, 8 from k=405.  With both left None, from k = 27
    every pass seeds all k components on the outer lanes as one guarded band (``_passes``):
    ceil(k/N) passes, 30 at k=300, with the dense plan's bytes.  A target that leaves the
    band takes the dense plan and one more evaluation.
    """
    x = _as_input_vector(x)
    k = x.shape[0]
    chunks = (
        _resolve("outer_chunk", outer_chunk, k, 2),
        _resolve("inner_chunk", inner_chunk, k, 2),
    )
    # in band where the second-order entries it leaves out, k x N x (k - 2) float64, fill
    # twice POOL_MIN_BYTES: from k = 27, below which a Rosenbrock Hessian measured faster dense
    band = outer_chunk is None and inner_chunk is None
    band = band and k * chunks[1] * (k - 2) * 8 >= 2 * POOL_MIN_BYTES
    entries, grad, f_value = _passes(f, x, chunks, lead=_wide() if band else None)
    return HessianResult(entries, grad, float(f_value))


THIRD_ORDER_DIM_LIMIT = 8


def third_order_tensor(f, x, chunks=None, dim_limit=THIRD_ORDER_DIM_LIMIT):
    """k x k x k tensor of third partial derivatives via triple nesting.

    Dense third-order storage grows as k**3, so the dimension is capped at
    ``dim_limit`` (default 8); differentiate blockwise with repeated calls
    on slices if a larger problem is unavoidable.  chunks, when given, is
    the lane width per nesting level as a (first, second, third) triple; by
    default each is ``default_chunk(k, 3)``, which is k (one pass) up to k=13.
    """
    x = _as_input_vector(x)
    k = x.shape[0]
    if k > dim_limit:
        raise ValueError(
            f"third_order_tensor is capped at {dim_limit} components (got {k}); "
            "batch larger problems into repeated smaller calls"
        )
    if chunks is None:
        chunks = (None, None, None)
    if not isinstance(chunks, (tuple, list)) or len(chunks) != 3:
        raise ValueError(f"chunks must be a (first, second, third) triple, got {chunks!r}")
    widths = tuple(_resolve(f"chunks[{i}]", c, k, 3) for i, c in enumerate(chunks))
    tensor, _, _ = _passes(f, x, widths)
    return tensor
