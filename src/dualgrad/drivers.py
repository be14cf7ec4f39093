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
ones on the block's diagonal, which pass 0 of every driver reads as the
full N x k lane block, an ndarray.  When the lanes a window would skip,
N x (k - 2N) float64, come to at least POOL_MIN_BYTES and pass 0's output
lanes are all finite, every later pass of a gradient or Jacobian keeps the
band: only the entries its N seeds can reach are computed, so a Rosenbrock
pass does N x 2 lane work (N lanes by the band's width) instead of N x k.  The entries it leaves
out are exact zeros in a dense pass, because a coefficient that is
non-finite on a column reaching the result would have made pass 0's lanes
non-finite too; a zero derivative entry may come out as +0.0 where a
dense pass gave -0.0.  Below the gate a window's per-op bookkeeping costs
more than the columns it skips (Rosenbrock at chunk 64, median of 5
interleaved runs: 1.05x dense at k=140, 1.16x at k=200, 0.78x at k=256).

At the default chunk N0 = default_chunk(k), when pass 0 finds that
windows apply, ``_plan`` runs the middle components [N0, k - N0) in
blocks of W lanes, 32768 for a gradient, and the last N0 in an end pass
as narrow as pass 0, where a slice such as x[:-1] cuts the band: 3
passes, not 300, for Rosenbrock at k=3000.  The first middle block, the
trial, runs second, and f runs it ``pool.in_band``.  A band that f would
turn into a window on its columns (a slice that cuts it, a reversed
operand) or into the full N x k block (fancy indexes, reshape, a dense
vector or scalar dual operand) stops the trial before the block is
built, and the middle runs again in narrow blocks, where those fallbacks
stay small: WIDE_CHUNK = 512 lanes after a column window, N0 after a full
block.  A sum over lane rows of more than two nonzeros, built in
tiles of at most LANE_BLOCK_BYTES, stays in band.

Higher-order drivers nest duals (forward-over-forward).  For a Hessian
each pass seeds a block of M components on the float64 lanes of a
DualVector and a block of N components on the lanes of a NestedDualVector
wrapped around it, so one pass fills an M x N block of the k x k matrix
and ceil(k/M) * ceil(k/N) passes fill all of it; the third-order tensor
adds one more nesting level.  Every level is float64 arrays, and one pass
loop, one seeding helper and one runner serve all orders, the Jacobian
and every thread count; only the reader of the target's result differs.

Every evaluation of the target runs under ``np.errstate(all="ignore")``:
out-of-domain points give inf/nan derivatives and never warn, in worker
threads too (numpy's error state is per thread, so each thread that runs
passes enters it once).  Outside a driver, dual arithmetic follows
numpy's current error state like ndarray arithmetic does.

Each thread that runs passes does so inside a ``pool.lane_pool``:
float64 rule results of at least 64 KiB go into buffers reused from
earlier passes and calls of that thread, once nothing refers to their old
contents, instead of fresh allocations that glibc returns to the OS and
the next pass page-faults in again; a worker thread's pool ends with it.

All drivers require a pure target function: same input, same output.
Each pass compares its value channel (every output, for a Jacobian)
with pass 0's as soon as it has read it; a difference raises
ImpureTargetError, and no thread starts another pass.  The runner runs
passes 0 and 1 on the caller and the rest in one static block per thread,
the caller's first, so a serial call is the one-thread case (as is a
band target's default gradient, which leaves one pass).  With more
threads f must be safely callable from several threads at once; a worker
running below break-even (measured against the faster of the caller's
first two passes) hands its block's rest back to the caller, and passes
write disjoint slices.
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
# Rosenbrock at k=3000 took 67 / 78 / 80 / 94 ms and peaked at 35.6 /
# 37.2 / 39.9 / 45.9 MiB of RSS, as the pool keeps wider blocks, so the
# budget stops at N=10 there.  The floor of 8 keeps k >= 4096 as it was:
# at k=12000, N=64 ran Ackley 2.2-2.4x faster but peaked at 61.7 MiB, not 38.
# The windowed passes after a default pass 0 hold bands of a few entries a
# lane whatever their width, so the middle runs in one wide pass (``_plan``).
# A band that a slice cuts or that meets a reversed one falls back to a
# window of N lanes by up to 2N columns, so a trial that would leave its
# band stops, and the middle runs again WIDE_CHUNK lanes a pass
# (``_passes``): at 128 / 256 / 512 / 1024 lanes np.sum(v[k//3:2*k//3]**2)
# peaked at 35.7 / 36.6 / 39.4 / 51.1 MiB at k=3000, and perfbench
# call_p50_rel on rosenbrock-grad read 2.35 / 1.50 / 1.10 / 0.87.
DEFAULT_CHUNK_LIMIT = 8
WIDE_CHUNK = 512


def default_chunk(k, levels=1):
    """Lanes per level at nesting depth ``levels`` (2 for a Hessian) when the
    caller picks none: the widest N <= k whose lane block of N**levels * k
    float64 lanes fits LANE_BLOCK_BYTES, but never fewer than min(k, 8)."""
    fits = LANE_BLOCK_BYTES // (8 * k)  # the largest N**levels in budget
    n = round(fits ** (1 / levels))  # the float root is off by at most one
    return min(k, max(DEFAULT_CHUNK_LIMIT, n - (n**levels > fits)))


def _windows_pay(n, k):
    """Whether later passes of n lanes keep windows: the lanes one skips fill POOL_MIN_BYTES."""
    return n * (k - 2 * n) * 8 >= POOL_MIN_BYTES


def _plan(k, chunk_size, outputs=1):
    """A gradient's or Jacobian's component blocks, pass 0 first: N each at an explicit
    chunk N.  At the default N0 = default_chunk(k), if windows pay, [0, N0), then the
    trial, the first block of the middle [N0, k - N0), then the end pass [k - N0, k), then
    the rest of the middle.  Middle blocks are W = max(WIDE_CHUNK, LANE_BLOCK_BYTES //
    (8 outputs)) lanes wide, so that a pass's N x outputs result fits the lane block
    budget: one block up to k = 32768 + 2 N0 for a gradient.  A band that a slice cuts at
    either end of the components, as x[:-1] does, then falls back in the end pass, on N0
    lanes, and not in the trial."""
    n = _resolve("chunk_size", chunk_size, k)
    if chunk_size is None and _windows_pay(n, k):  # then k > 2n
        trial, *rest = _blocks(k - n, max(WIDE_CHUNK, LANE_BLOCK_BYTES // (8 * outputs)), n)
        return [slice(0, n), trial, slice(k - n, k)] + rest
    return _blocks(k, n)


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
    passes.  None picks ``default_chunk(k)`` for pass 0 (k up to k=181, 32
    at k=1000, 8 from k=4096 on) and as many for the end pass, and for a
    gradient one trial pass on the whole middle up to k = 32768 + 2 N0
    (``_plan``), which falls back to WIDE_CHUNK or N0 lanes a pass where f
    would leave the lanes' band (``_passes``).
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
    levels below.  A windowed first-order input keeps its unit lanes as
    the ``pool._Window`` band of ones, one entry a lane; every other input,
    pass 0's of every driver included, gets the full block as an ndarray.
    """
    widths = [b.stop - b.start for b in blocks]
    out = x
    for d, block in enumerate(blocks):
        unit = _Window(np.ones((widths[d], 1)), block.start, x.shape[0], 1)
        out = _vector(out, unit if windowed else _constant(unit.full(), widths[:d]))
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
    """run(p) for every pass: passes 0 and 1 on the caller, the rest in static blocks.

    count() is the number of passes, read after pass 0 and again after
    pass 1, since each may plan the passes after it; a true run(1) is a
    stopped trial (``_passes``), and the caller runs the new pass 1 alone
    too.  With threads=1, or one pass left, no thread starts.  A worker
    whose passes, timed from the fan-out, average over threads * t_ref
    hands its block's rest back for the caller to run after the join: all
    threads together then finish fewer passes per second than the caller
    alone would.  t_ref is the lesser time of passes 0 and 1, not counting
    a stopped trial: either may be slower than the rest (pass 0 runs
    without lane windows, a collection may land in one), which would make
    the budget lenient.  Each thread enters its own lane pool and
    ``np.errstate(all="ignore")`` once.  Passes stop at the first failure,
    re-raised.
    """
    failures, handed_back = [], []

    def work(block, budget):
        """Run block's passes; hand the rest back once they average over budget * t_ref."""
        try:
            for i, p in enumerate(block):
                if failures:
                    return
                run(p)
                if time.perf_counter() - fanned_out > (i + 1) * budget * t_ref:
                    handed_back.append(block[i + 1 :])
                    return
        except BaseException as exc:  # re-raised after the join barrier
            failures.append(exc)

    def worker(block):
        go.wait()  # the caller starts its block first
        with lane_pool(), np.errstate(all="ignore"):
            work(block, len(blocks))

    with lane_pool(), np.errstate(all="ignore"):
        t_ref = math.inf
        for p in range(2):  # alone: each may plan the passes after it
            if p < count():
                start = time.perf_counter()
                if run(p):  # a stopped trial: pass 1 is now the end pass
                    start = time.perf_counter()
                    run(p)
                t_ref = min(t_ref, time.perf_counter() - start)
        n_passes = count()
        first = min(2, n_passes)  # the passes left start here
        n_blocks = max(1, min(threads, n_passes - first))
        size, extra = divmod(n_passes - first, n_blocks)  # np.array_split's blocks
        ends = [first + i * size + min(i, extra) for i in range(n_blocks + 1)]
        blocks = [range(lo, hi) for lo, hi in zip(ends, ends[1:])]
        workers = [threading.Thread(target=worker, args=(block,)) for block in blocks[1:]]
        go = threading.Event() if workers else None  # a serial call needs none
        try:
            for w in workers:
                w.start()
        finally:  # if a start fails, the workers already started must not wait forever
            fanned_out = time.perf_counter()
            if workers:
                go.set()
        work(blocks[0], math.inf)
        for w in workers:
            w.join()
        for tail in handed_back:
            work(tail, math.inf)
    if failures:
        raise failures[0]


def _passes(f, x, chunks, threads=1, read=_scalar_output, wide=False):
    """One pass through f per combination of lane blocks, one block per level.

    chunks holds the lanes per pass at each nesting level, level 0 first.
    read(y, widths) turns f's result into (f value, the outermost level's
    first-order lanes or None, lane block of shape (outputs..., *widths)).
    Pass 0 seeds each level's first block, dense, and then plans the other
    passes: the product of each level's blocks, or ``_plan``'s at the
    default chunk of a first-order call (``wide``) when later passes keep
    lane windows.  Then pass 1 is the trial: the first middle block, which
    f runs ``pool.in_band``, as it does any later middle block wider than
    WIDE_CHUNK.  If f would leave a band there, the pass stops, its result
    is dropped, and that middle runs again in blocks of WIDE_CHUNK lanes
    after a column window, or of N0 after a full block: for the trial the
    whole middle, re-planned to follow the end pass, and for a later block
    that block, in the same call of ``run``.
    Returns (derivative array of shape (outputs...,) + (k,) * len(chunks),
    gradient from those first-order lanes, f value).
    """
    k, n = x.shape[0], chunks[0]
    combos = [tuple(slice(0, c) for c in chunks)]
    grad = np.empty(k)
    # later passes run on lane windows if they pay and pass 0's lanes are finite
    windowed = len(chunks) == 1 and _windows_pay(n, k)
    guarded = False  # whether middle passes run in band: a wide plan's until its trial stops
    f0 = out = None  # pass 0's f value and the result array that pass sizes

    def run(p):
        """Pass p; True if it was a trial that stopped, after re-planning the middle."""
        nonlocal guarded
        blocks = combos[p]
        if not guarded or p > 1 and blocks[0].stop - blocks[0].start <= WIDE_CHUNK:
            return record(p, blocks, f(_seeded(x, blocks, p > 0 and windowed)))
        y, left = in_band(f, _seeded(x, blocks, True))
        if not left:
            return record(p, blocks, y)
        lo, hi = blocks[0].start, blocks[0].stop
        narrow = _blocks(k - n if p == 1 else hi, WIDE_CHUNK if left == "columns" else n, lo)
        if p == 1:
            guarded = False
            combos[1:] = [(slice(k - n, k),)] + [(b,) for b in narrow]
            return True
        for b in narrow:
            record(p, (b,), f(_seeded(x, (b,), True)))

    def record(p, blocks, y):
        """Read pass p's result y, check it and write it out; pass 0 also plans the rest."""
        nonlocal windowed, guarded, f0, out
        widths = tuple(b.stop - b.start for b in blocks)
        value, first, top = read(y, widths)
        outputs = top.shape[: top.ndim - len(widths)]
        if p == 0:  # pass 0 runs first and alone
            windowed = windowed and bool(np.isfinite(top).all())
            guarded = wide and windowed
            f0, out = value, np.empty(outputs + (k,) * len(widths))
            if guarded:
                levels = [_plan(k, None, math.prod(outputs))]
            else:
                levels = [_blocks(k, c) for c in chunks]
            combos[1:] = list(itertools.product(*levels))[1:]
        if outputs != out.shape[: len(outputs)]:
            raise ValueError(
                f"target function changed output length between passes: "
                f"{out.shape[0]} then {outputs[0]}"
            )
        _check_pure(f0, value, p)
        if first is not None:
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
    """``_passes`` of a gradient or Jacobian: cfg (None for the defaults) and x checked, and
    the wide plan at the default chunk."""
    if not isinstance(cfg, (ChunkConfig, type(None))):
        raise ValueError(f"cfg must be a ChunkConfig or None, got {cfg!r}")
    cfg, x = cfg or ChunkConfig(), _as_input_vector(x)
    return _passes(f, x, (cfg.resolve(x.shape[0]),), cfg.threads, read, cfg.chunk_size is None)


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
    """Gradient with chunk passes split across cfg.threads threads.

    The caller runs passes 0 and 1 alone, which plan passes 2..P-1; they go
    in contiguous blocks, one per thread.  At the default chunk pass 1 is
    the trial on the middle, and a band target leaves only the end pass, so
    no thread starts; a trial that stops is followed by the end pass, also
    alone.  A worker whose passes, timed from the fan-out, average over
    threads * t_ref (``_run_passes``) hands the rest back to the caller.
    The result equals the serial gradient bitwise.  The target must
    tolerate concurrent calls.
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

    Each pass seeds M = outer_chunk components on the float64 lanes and
    N = inner_chunk components on the nested lanes, filling the k x k
    matrix in ceil(k/M) * ceil(k/N) passes through f.  The first-order
    gradient and f(x) come from the same evaluations.  A chunk left None is
    ``default_chunk(k, 2)``: k up to k=32 (one pass), 18 at k=100, 8 from k=405.
    """
    x = _as_input_vector(x)
    k = x.shape[0]
    chunks = (
        _resolve("outer_chunk", outer_chunk, k, 2),
        _resolve("inner_chunk", inner_chunk, k, 2),
    )
    entries, grad, f_value = _passes(f, x, chunks)
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
