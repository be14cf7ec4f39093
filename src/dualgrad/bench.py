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
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .drivers import ChunkConfig, EvalCounter, gradient
from .testfns import (
    ackley,
    ackley_grad_analytic,
    fd_gradient,
    max_relative_error,
    rosenbrock,
    rosenbrock_grad_analytic,
)

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
CSV_HEADER = ["function", "k", "chunk", "threads", "reps", "min_seconds", "mean_seconds"]

# name -> (target, analytic gradient, input range)
# Ackley inputs stay in [-1, 1]: away from the origin kink with probability 1.
_FUNCTIONS = {
    "rosenbrock": (rosenbrock, rosenbrock_grad_analytic, (-2.0, 2.0)),
    "ackley": (ackley, ackley_grad_analytic, (-1.0, 1.0)),
}


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark observation."""

    function: str
    k: int
    chunk: int
    threads: int
    reps: int
    min_seconds: float
    mean_seconds: float

    def __post_init__(self):
        if self.reps < 3:
            raise ValueError(f"reps must be >= 3, got {self.reps}")
        if self.min_seconds > self.mean_seconds:
            raise ValueError("min_seconds cannot exceed mean_seconds")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verify run.

    Each comparison pair carries its worst per-component relative error and
    the index of the component where it occurred.
    """

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

    @property
    def passed(self):
        return (
            self.chunk_invariant
            and self.passes == self.expected_passes
            and self.ad_vs_analytic[0] <= self.tolerance
            and self.ad_vs_fd[0] <= self.tolerance
            and self.analytic_vs_fd[0] <= self.tolerance
        )


def input_vector(function, k, seed=DEFAULT_SEED):
    """Seed-stable pseudo-random evaluation point for a target function."""
    lo, hi = _FUNCTIONS[function][2]
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=k)


def _time_gradient(f, x, cfg, reps):
    gradient(f, x, cfg)  # warm-up, excluded
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        gradient(f, x, cfg)
        times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times)


def run_chunk_sweep(function, k, chunks, reps, seed=DEFAULT_SEED, threads=1):
    """Time the gradient at fixed k for every chunk size in ``chunks``."""
    if function not in _FUNCTIONS:
        raise ValueError(f"unknown function {function!r}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if any(n < 1 for n in chunks):
        raise ValueError("chunk sizes must be >= 1")
    f = _FUNCTIONS[function][0]
    x = input_vector(function, k, seed)
    records = []
    for n in chunks:
        lowest, mean = _time_gradient(f, x, ChunkConfig(n, threads), reps)
        records.append(BenchRecord(function, k, n, threads, reps, lowest, mean))
    return records


def run_size_sweep(function, sizes, chunk, threads, reps, seed=DEFAULT_SEED):
    """Time the gradient at fixed chunk for every input size in ``sizes``."""
    if function not in _FUNCTIONS:
        raise ValueError(f"unknown function {function!r}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if any(k < 2 for k in sizes):
        raise ValueError("sizes must be >= 2")
    f = _FUNCTIONS[function][0]
    records = []
    for k in sizes:
        x = input_vector(function, k, seed)
        lowest, mean = _time_gradient(f, x, ChunkConfig(chunk, threads), reps)
        records.append(BenchRecord(function, k, chunk, threads, reps, lowest, mean))
    return records


def verify(function, k, chunk, seed=DEFAULT_SEED, tol=1e-5, x=None):
    """Cross-check the drivers at one point (seeded unless ``x`` is given).

    Compares the propagated gradient against the closed-form gradient and
    the central-difference oracle, confirms the ceil(k / N) pass count via
    an evaluation counter, and checks that a different chunk size yields the
    identical gradient.  The finite-difference comparisons floor their
    denominators at a fraction of the gradient's scale: near critical
    points the oracle's own truncation error would otherwise swamp a
    component that the propagated gradient gets exactly right.
    """
    if function not in _FUNCTIONS:
        raise ValueError(f"unknown function {function!r}")
    f, analytic, _ = _FUNCTIONS[function]
    if x is None:
        x = input_vector(function, k, seed)
    else:
        x = np.asarray(x, dtype=np.float64)
        k = x.shape[0]
    n = ChunkConfig(chunk).resolve(k)

    counted = EvalCounter(f)
    ad = gradient(counted, x, ChunkConfig(chunk)).values
    expected_passes = math.ceil(k / n)

    exact = analytic(x)
    fd = fd_gradient(f, x)
    fd_floor = 1e-4 * max(1.0, float(np.max(np.abs(exact))))

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
        expected_passes=expected_passes,
        ad_vs_analytic=_worst_component(ad, exact),
        ad_vs_fd=_worst_component(ad, fd, floor=fd_floor),
        analytic_vs_fd=_worst_component(exact, fd, floor=fd_floor),
        chunk_invariant=bool(np.array_equal(ad, ad_alt)),
        tolerance=tol,
        gradient_infnorm=float(np.max(np.abs(ad))),
    )


def _worst_component(approx, exact, floor=1e-12):
    rel = np.abs(np.asarray(approx) - np.asarray(exact)) / np.maximum(np.abs(exact), floor)
    worst = int(np.argmax(rel))
    return float(rel[worst]), worst


def emit_csv(records, path):
    """Write records as CSV: header then one row per record, input order."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [r.function, r.k, r.chunk, r.threads, r.reps, r.min_seconds, r.mean_seconds]
            )


def read_csv(path):
    """Inverse of emit_csv, mainly for round-trip checks."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            records.append(
                BenchRecord(
                    function=row["function"],
                    k=int(row["k"]),
                    chunk=int(row["chunk"]),
                    threads=int(row["threads"]),
                    reps=int(row["reps"]),
                    min_seconds=float(row["min_seconds"]),
                    mean_seconds=float(row["mean_seconds"]),
                )
            )
    return records


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
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("entries must be >= 1")
    return values


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _reps(text):
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError("reps must be >= 3")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualgrad-bench",
        description="Benchmark and verify chunked forward-mode gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chunk_p = sub.add_parser("chunk-sweep", help="sweep chunk sizes at fixed input size")
    chunk_p.add_argument("--function", choices=sorted(_FUNCTIONS), required=True)
    chunk_p.add_argument("--size", type=_positive, required=True, metavar="K")
    chunk_p.add_argument("--chunks", type=_int_list, required=True, metavar="N1,N2,...")
    chunk_p.add_argument("--reps", type=_reps, default=3)
    chunk_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    chunk_p.add_argument("--csv", metavar="PATH")

    size_p = sub.add_parser("size-sweep", help="sweep input sizes at fixed chunk size")
    size_p.add_argument("--function", choices=sorted(_FUNCTIONS), required=True)
    size_p.add_argument("--sizes", type=_int_list, required=True, metavar="K1,K2,...")
    size_p.add_argument("--chunk", type=_positive, default=10)
    size_p.add_argument("--threads", type=_positive, default=1)
    size_p.add_argument("--reps", type=_reps, default=3)
    size_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    size_p.add_argument("--csv", metavar="PATH")

    verify_p = sub.add_parser("verify", help="oracle and invariance checks")
    verify_p.add_argument("--function", choices=sorted(_FUNCTIONS), required=True)
    verify_p.add_argument("--size", type=_positive, required=True, metavar="K")
    verify_p.add_argument("--chunk", type=_positive, default=None)
    verify_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify_p.add_argument("--tol", type=float, default=1e-5)

    return parser


def _print_records(records):
    print(",".join(CSV_HEADER))
    for r in records:
        print(f"{r.function},{r.k},{r.chunk},{r.threads},{r.reps},{r.min_seconds},{r.mean_seconds}")


def _emit(records, path):
    if path is None:
        return 0
    try:
        emit_csv(records, path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        # bad argument combinations that survive argparse (e.g. size below a
        # target function's minimum dimension) are usage errors too
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _dispatch(args):
    if args.command == "chunk-sweep":
        records = run_chunk_sweep(args.function, args.size, args.chunks, args.reps, args.seed)
        _print_records(records)
        return _emit(records, args.csv)

    if args.command == "size-sweep":
        records = run_size_sweep(
            args.function, args.sizes, args.chunk, args.threads, args.reps, args.seed
        )
        _print_records(records)
        return _emit(records, args.csv)

    if args.command == "verify":
        chunk = args.chunk if args.chunk is not None else ChunkConfig().resolve(args.size)
        report = verify(args.function, args.size, chunk, args.seed, args.tol)
        print(
            f"verify {report.function} k={report.k} chunk={report.chunk}: "
            f"passes={report.passes} (expected {report.expected_passes})"
        )
        pairs = [
            ("gradient vs analytic", report.ad_vs_analytic),
            ("gradient vs central differences", report.ad_vs_fd),
            ("analytic vs central differences", report.analytic_vs_fd),
        ]
        for label, (err, idx) in pairs:
            print(f"  max rel err, {label}: {err:.3e} (component {idx})")
        print(f"  chunk invariance (exact): {'yes' if report.chunk_invariant else 'NO'}")
        if report.passed:
            print("PASS")
            return 0
        for label, (err, idx) in pairs:
            if err > report.tolerance:
                print(
                    f"FAIL: {label} at component {idx}: {err:.3e} > {report.tolerance:g}",
                    file=sys.stderr,
                )
        if not report.chunk_invariant:
            print("FAIL: gradient changed with chunk size", file=sys.stderr)
        if report.passes != report.expected_passes:
            print(
                f"FAIL: pass count {report.passes} != {report.expected_passes}",
                file=sys.stderr,
            )
        return 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
