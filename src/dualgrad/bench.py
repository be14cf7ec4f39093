"""Benchmark and verification harness for the chunked gradient drivers.

Subcommands:

  chunk-sweep   time gradient evaluation across chunk sizes at fixed k
  size-sweep    time gradient evaluation across input sizes at fixed chunk
  verify        cross-check propagated gradients against the closed-form
                and finite-difference oracles, plus chunk invariance

Timing protocol: one untimed warm-up evaluation, then at least three timed
repetitions; records carry both the minimum (robust against interference,
used for trend comparisons) and the mean.  Inputs are pseudo-random with a
fixed default seed so runs are reproducible bit for bit.

Exit codes: 0 success, 1 verification or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import testfns
from .drivers import ChunkConfig, EvalCounter, _check_count, _plan, gradient

__all__ = [
    "BenchRecord",
    "VerifyReport",
    "run_chunk_sweep",
    "run_size_sweep",
    "verify",
    "emit_csv",
    "main",
]

DEFAULT_SEED = 42

# name -> (target, analytic gradient, input range)
# Ackley inputs stay in [-1, 1]: away from the origin kink with probability 1.
_FUNCTIONS = {
    "rosenbrock": (testfns.rosenbrock, testfns.rosenbrock_grad_analytic, (-2.0, 2.0)),
    "ackley": (testfns.ackley, testfns.ackley_grad_analytic, (-1.0, 1.0)),
}


def _target(function):
    """(target, analytic gradient, input range) of a function name; ValueError if unknown."""
    if function not in _FUNCTIONS:
        raise ValueError(f"unknown function {function!r}")
    return _FUNCTIONS[function]


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark observation; every field is checked, so a sweep checks its arguments here."""

    function: str
    k: int
    chunk: int
    threads: int
    reps: int
    min_seconds: float
    mean_seconds: float

    def __post_init__(self):
        _check_count("k", self.k, 2)
        ChunkConfig(self.chunk, self.threads)  # ValueError for a bad chunk size or thread count
        _check_count("reps", self.reps, 3)
        if self.min_seconds > self.mean_seconds:
            raise ValueError("min_seconds cannot exceed mean_seconds")


CSV_HEADER = [field.name for field in fields(BenchRecord)]

# the report's comparison pairs, in report order, with their labels
_PAIRS = {
    "ad_vs_analytic": "gradient vs analytic",
    "ad_vs_fd": "gradient vs central differences",
    "analytic_vs_fd": "analytic vs central differences",
}


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verify run; each comparison pair is (worst relative error, its component)."""

    function: str
    k: int
    chunk: int
    passes: int
    expected_passes: int
    ad_vs_analytic: tuple[float, int]
    ad_vs_fd: tuple[float, int]
    analytic_vs_fd: tuple[float, int]
    chunk_invariant: bool
    tolerance: float
    gradient_infnorm: float

    def failures(self):
        """One message per failed criterion, in report order; empty when the run passed."""
        out = []
        for name, label in _PAIRS.items():
            err, idx = getattr(self, name)
            if not err <= self.tolerance:  # a NaN error fails too
                out.append(f"{label} at component {idx}: {err:.3e} > {self.tolerance:g}")
        if not self.chunk_invariant:
            out.append("gradient changed with chunk size")
        if self.passes != self.expected_passes:
            out.append(f"pass count {self.passes} != {self.expected_passes}")
        return out

    @property
    def passed(self):
        return not self.failures()


def input_vector(function, k, seed=DEFAULT_SEED):
    """Seed-stable pseudo-random evaluation point for a target function."""
    lo, hi = _target(function)[2]
    _check_count("k", k)
    return np.random.default_rng(seed).uniform(lo, hi, size=k)


def _sweep(function, points, threads, reps, seed):
    """Time the gradient at every (k, chunk) point: one warm-up, then ``reps`` timed calls.

    A record of every point is built before the first call of the target,
    so a bad k, chunk size, thread count or reps fails before any timing.
    """
    f = _target(function)[0]
    for k, chunk in points:
        BenchRecord(function, k, chunk, threads, reps, 0.0, 0.0)
    records = []
    for k, chunk in points:
        x = input_vector(function, k, seed)
        cfg = ChunkConfig(chunk, threads)
        gradient(f, x, cfg)  # warm-up, excluded
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            gradient(f, x, cfg)
            times.append(time.perf_counter() - start)
        lowest, mean = min(times), sum(times) / reps
        records.append(BenchRecord(function, k, chunk, threads, reps, lowest, mean))
    return records


def run_chunk_sweep(function, k, chunks, reps, seed=DEFAULT_SEED, threads=1):
    """Time the gradient at fixed k for every chunk size in ``chunks``."""
    return _sweep(function, [(k, n) for n in chunks], threads, reps, seed)


def run_size_sweep(function, sizes, chunk, threads, reps, seed=DEFAULT_SEED):
    """Time the gradient at fixed chunk for every input size in ``sizes``."""
    return _sweep(function, [(k, chunk) for k in sizes], threads, reps, seed)


def verify(function, k, chunk, seed=DEFAULT_SEED, tol=1e-5, x=None):
    """Cross-check the drivers at one point (seeded unless ``x`` is given).

    Compares the propagated gradient against the closed-form gradient and,
    on a sample of min(k, 256) components drawn with ``seed``, against the
    central-difference oracle, whose cost is two evaluations of f a
    component; reported components index x.  Confirms the pass count of
    the drivers' plan (``drivers._plan``: ceil(k / N) for an explicit chunk
    N; at the default chunk 3 for both targets, whose lanes stay banded,
    from about k=300 up to k=32784) via an evaluation counter, and checks
    that a different chunk size yields the identical gradient.  The
    finite-difference comparisons floor their denominators at a fraction
    of the gradient's scale: near critical points the oracle's own
    truncation error would otherwise swamp a component that the propagated
    gradient gets exactly right.  chunk None
    picks the drivers' default.
    """
    f, analytic, _ = _target(function)
    x = input_vector(function, k, seed) if x is None else np.asarray(x, dtype=np.float64)
    k = x.shape[0]
    n = ChunkConfig(chunk).resolve(k)

    counted = EvalCounter(f)
    ad = gradient(counted, x, ChunkConfig(chunk)).values

    exact = analytic(x)
    sample = np.sort(np.random.default_rng(seed).choice(k, min(k, 256), replace=False))

    def on_sample(z):  # f at x with the sampled components set to z
        full = x.astype(z.dtype)
        full[sample] = z
        return f(full)

    fd = testfns.fd_gradient(on_sample, x[sample])
    fd_floor = 1e-4 * max(1.0, float(np.max(np.abs(exact))))

    def vs_fd(g):  # worst relative error of g against fd, at its index in x
        err, i = testfns.worst_relative_error(g[sample], fd, floor=fd_floor)
        return err, int(sample[i])

    # second chunking for the invariance check; capped so the lane block
    # stays modest at large k
    alt = k if k <= 1024 else min(2 * n, k)
    if alt == n:
        alt = max(1, n - 1)
    ad_alt = gradient(f, x, ChunkConfig(alt)).values

    return VerifyReport(
        function=function,
        k=k,
        chunk=n,
        passes=counted.count,
        expected_passes=len(_plan(k, chunk)),
        ad_vs_analytic=testfns.worst_relative_error(ad, exact),
        ad_vs_fd=vs_fd(ad),
        analytic_vs_fd=vs_fd(exact),
        chunk_invariant=bool(np.array_equal(ad, ad_alt)),
        tolerance=tol,
        gradient_infnorm=float(np.max(np.abs(ad))),
    )


def _write_csv(records, fh):
    """Header, then one row per record in input order (LF line endings)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(astuple(r) for r in records)


def emit_csv(records, path):
    """Write records as CSV: header then one row per record, input order."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_csv(records, fh)


def read_csv(path):
    """Inverse of emit_csv, mainly for round-trip checks."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [
        BenchRecord(name, int(k), int(n), int(t), int(r), float(lo), float(mean))
        for name, k, n, t, r, lo, mean in rows
    ]


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualgrad-bench",
        description="Benchmark and verify chunked forward-mode gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chunk_p = sub.add_parser("chunk-sweep", help="sweep chunk sizes at fixed input size")
    size_p = sub.add_parser("size-sweep", help="sweep input sizes at fixed chunk size")
    verify_p = sub.add_parser("verify", help="oracle and invariance checks")
    for p in (chunk_p, size_p, verify_p):
        p.add_argument("--function", choices=sorted(_FUNCTIONS), required=True)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    for p in (chunk_p, verify_p):
        p.add_argument("--size", type=int, required=True, metavar="K")
    chunk_p.add_argument("--chunks", type=_int_list, required=True, metavar="N1,N2,...")
    size_p.add_argument("--sizes", type=_int_list, required=True, metavar="K1,K2,...")
    size_p.add_argument("--chunk", type=int, default=10)
    size_p.add_argument("--threads", type=int, default=1)
    for p in (chunk_p, size_p):
        p.add_argument("--reps", type=int, default=3)
        p.add_argument("--csv", metavar="PATH")
    verify_p.add_argument("--chunk", type=int, default=None)
    verify_p.add_argument("--tol", type=float, default=1e-5)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        # argument values are checked by the library functions they reach
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _dispatch(args):
    if args.command == "verify":
        report = verify(args.function, args.size, args.chunk, args.seed, args.tol)
        print(
            f"verify {report.function} k={report.k} chunk={report.chunk}: "
            f"passes={report.passes} (expected {report.expected_passes})"
        )
        for name, label in _PAIRS.items():
            err, idx = getattr(report, name)
            print(f"  max rel err, {label}: {err:.3e} (component {idx})")
        print(f"  chunk invariance (exact): {'yes' if report.chunk_invariant else 'NO'}")
        failures = report.failures()
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        if failures:
            return 1
        print("PASS")
        return 0

    if args.command == "chunk-sweep":
        points, threads = [(args.size, n) for n in args.chunks], 1
    else:
        points, threads = [(k, args.chunk) for k in args.sizes], args.threads
    records = _sweep(args.function, points, threads, args.reps, args.seed)
    _write_csv(records, sys.stdout)
    if args.csv is not None:
        try:
            emit_csv(records, args.csv)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
