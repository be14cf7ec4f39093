"""The four benchmark workloads: seeded inputs, driver calls and checks.

Each workload stands in for an optimiser that asks for one derivative at
a fresh point and waits for it before asking for the next (a closed loop
with one client).  Inputs come only from the benchmark's own seed, so an
edit to the library's CLI module cannot change what is measured.

Why these four:

- ``ackley-grad``: compute-bound.  8 x 1000 float64 lane blocks are 64 KB,
  far below glibc's 128 KB mmap threshold, and the time goes to
  transcendentals and to a value channel recomputed on every pass.
- ``rosenbrock-grad``: the allocation-bound twin.  Arithmetic only, and
  its 8 x 3000 lane blocks (192 KB) exceed the mmap threshold, so every
  pass page-faults fresh buffers.
- ``rosenbrock-hessian``: forward-over-forward on object-dtype arrays of
  nested scalar duals, 16 passes at k=30.
- ``ackley-grad-2t``: ``ackley-grad`` through the threaded scheduler with
  two workers, the only workload that runs it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from dualgrad.drivers import ChunkConfig, gradient, hessian
from dualgrad.testfns import (
    ackley,
    ackley_grad_analytic,
    max_relative_error,
    rosenbrock,
    rosenbrock_grad_analytic,
)

# Same tolerance and denominator floor as ``dualgrad-bench verify``.
REL_TOL = 1e-5
REL_FLOOR = 1e-12

# Chunk sizes for the C3 (chunk invariance) comparison; 7 leaves a
# narrower trailing chunk at every workload size.
ALT_CHUNK = 7
ALT_HESSIAN_CHUNKS = (7, 5)

# Ackley points keep |x_i| >= this, far from the sqrt kink at the origin.
ACKLEY_MIN_ABS = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    target: str  # "ackley" or "rosenbrock"
    order: int  # 1 = gradient, 2 = Hessian
    k: int
    tiny_k: int  # input size for the benchmark's self-test
    threads: int = 1
    # (per-layer metric, low, high, claim): a fact the workload split rests
    # on, checked by the traced run and reported as held or not.
    trace_fact: tuple | None = None

    @property
    def f(self):
        return ackley if self.target == "ackley" else rosenbrock

    def size(self, tiny=False):
        return self.tiny_k if tiny else self.k

    def entries(self, k):
        """Derivative entries one call delivers: k per gradient, k^2 per Hessian."""
        return k**self.order

    def rngs(self, seed, part=0):
        """(warm-up rng, per-call rng), fixed by seed, workload name and part."""
        seq = np.random.SeedSequence([seed, zlib.crc32(self.name.encode()), part])
        warm, calls = seq.spawn(2)
        return np.random.default_rng(warm), np.random.default_rng(calls)

    def point(self, rng, k):
        """A fresh evaluation point of dimension k."""
        if self.target == "ackley":
            mags = rng.uniform(ACKLEY_MIN_ABS, 1.0, size=k)
            return np.where(rng.random(k) < 0.5, -mags, mags)
        return rng.uniform(-2.0, 2.0, size=k)

    def call(self, x, f=None, chunks=None, threads=None):
        """One driver call as a library user makes it.

        ``f`` replaces the target (the tracer passes a wrapped one);
        ``chunks`` and ``threads`` override the workload's configuration
        for the invariance checks.
        """
        f = self.f if f is None else f
        threads = self.threads if threads is None else threads
        if self.order == 2:
            outer, inner = chunks if chunks is not None else (None, None)
            return hessian(f, x, outer, inner)
        if chunks is None and threads == 1:
            return gradient(f, x)
        return gradient(f, x, ChunkConfig(chunk_size=chunks, threads=threads))

    def oracle_gradient(self, x):
        if self.target == "ackley":
            return ackley_grad_analytic(x)
        return rosenbrock_grad_analytic(x)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ackley-grad", "ackley", 1, k=1000, tiny_k=40,
            trace_fact=("vector.minflt_per_pass", -1.0, 1.0, "near 0"),
        ),
        Workload(
            "rosenbrock-grad", "rosenbrock", 1, k=3000, tiny_k=60,
            trace_fact=("vector.minflt_per_pass", 10.0, math.inf, "well above 0"),
        ),
        Workload(
            "rosenbrock-hessian", "rosenbrock", 2, k=30, tiny_k=6,
        ),
        Workload(
            "ackley-grad-2t", "ackley", 1, k=1000, tiny_k=40, threads=2,
            trace_fact=("drivers.eval_stretch", 1.0, math.inf, "above 1"),
        ),
    )
}


def rosenbrock_hessian(x):
    """Closed-form Rosenbrock Hessian (tridiagonal), independent of the library."""
    x = np.asarray(x, dtype=np.float64)
    head, tail = x[:-1], x[1:]
    h = np.zeros((x.shape[0], x.shape[0]))
    idx = np.arange(x.shape[0] - 1)
    h[idx, idx] += 1200.0 * head**2 - 400.0 * tail + 2.0
    h[idx + 1, idx + 1] += 200.0
    h[idx, idx + 1] = -400.0 * head
    h[idx + 1, idx] = -400.0 * head
    return h


def _rel_problem(label, approx, exact):
    err = max_relative_error(approx, exact, floor=REL_FLOOR)
    if not err <= REL_TOL:  # also catches NaN
        return [f"{label}: max rel err {err:.3e} > {REL_TOL:g}"]
    return []


def check(wl, x, result):
    """Oracle checks of one result; returns a list of problems (empty = pass)."""
    problems = []
    plain = float(wl.f(x))
    if not math.isclose(result.f_value, plain, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"f_value {result.f_value!r} != f(x) {plain!r}")
    if wl.order == 1:
        problems += _rel_problem("gradient vs closed form", result.values, wl.oracle_gradient(x))
    else:
        problems += _rel_problem("Hessian vs closed form", result.entries, rosenbrock_hessian(x))
        problems += _rel_problem("Hessian gradient vs closed form", result.gradient,
                                 rosenbrock_grad_analytic(x))
    return problems


def _derivative(result):
    return result.values if hasattr(result, "values") else result.entries


def check_invariance(wl, x, result):
    """Bitwise C3 (another chunk size) and C7 (threaded vs serial) checks."""
    problems = []
    got = _derivative(result)
    chunks = ALT_HESSIAN_CHUNKS if wl.order == 2 else ALT_CHUNK
    if not np.array_equal(got, _derivative(wl.call(x, chunks=chunks))):
        problems.append(f"C3: result changed at chunk size {chunks}")
    if wl.order == 1:
        other = 1 if wl.threads > 1 else 2
        if not np.array_equal(got, _derivative(wl.call(x, threads=other))):
            problems.append(f"C7: threads={other} differs from threads={wl.threads}")
    return problems
