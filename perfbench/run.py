"""Closed-loop derivative benchmark for dualgrad.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh interpreters (``perfbench/worker.py``) that import
``dualgrad`` from the checkout's ``src`` with the allocator as a library
caller gets it: no ``mallopt`` tuning.  One client calls the public
drivers on a new seeded point per call and waits for each result.  Every
result is checked against a closed-form oracle outside the timed window,
and sampled calls are also checked bitwise against another chunk size
(C3) and another thread count (C7).

``--trace 0`` reports the end-to-end metrics.  The timed loop runs for
``--seconds`` and at least 100 calls (so that ten samples lie beyond p90),
split over three fresh interpreters.  ``setup_s`` is the median over eleven
fresh interpreters of the time from process start through the untimed
warm-up call, input generation excluded.
The CPU speed of a shared host changes in phases of a few seconds, by up
to half again, which moves raw wall times more than the bounds allow.  So
a fixed numpy kernel (no dualgrad code) is timed between calls, and the
gated latencies ``call_p50_rel`` / ``call_p90_rel`` are the median and p90
of each call's time in multiples of the kernel runs around it (unit
``x_ref``); ``entries_per_ref`` is derivative entries delivered per kernel
time.  The raw ``call_p50_ms``, ``call_p90_ms`` and ``entries_per_s`` are
printed alongside, not gated.

``--trace 1`` reports the per-layer metrics from a separate traced run and
writes its spans to ``perfbench/traces/<workload>-seed<N>.jsonl``.

Before the result the run prints the environment block and one line per
metric; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every check passed, 1
when a check failed (the result is still printed), 2 when the run could
not be made (no result printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The timed loop is split over this many fresh e2e workers ...
E2E_PARTS = 3
# ... which make this many timed calls between them at least, so that the
# p90 has ten samples beyond it.
MIN_CALLS = 100
# Set-up-only interpreters run before, between and after the e2e workers;
# their set-up times and the workers' own give setup_s.
PROBES_PER_GAP = 2
# Fixed for every worker: with random string hashing the set-up time of
# one workload alternates between two levels 40% apart.
HASH_SEED = "0"
# The whole run must end within three minutes.
RUN_TIMEOUT = 170.0

# glibc cache-size sysconf names, absent from os.sysconf_names.
_SC_CACHE = {"L1d": 188, "L2": 191, "L3": 194}


class RunError(Exception):
    """The benchmark could not be run here; no result is printed."""


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise RunError(f"cannot read {path}: {exc}") from exc


def environment(root):
    """Environment block: interpreter, CPUs, caches, allocator, threads, revision."""
    caches = {}
    for name, code in _SC_CACHE.items():
        try:
            caches[name] = os.sysconf(code)
        except (ValueError, OSError):
            caches[name] = None
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "allocator": {
            "state": "untuned",
            "env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        },
        "threads_env": {k: os.environ.get(k) for k in thread_vars},
        "python_hash_seed": HASH_SEED,
        "git_revision": revision,
    }


def run_worker(root, args, mode, deadline, part=0, seconds=None):
    """Run worker.py in a fresh interpreter and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=HASH_SEED)
    seconds = args.seconds if seconds is None else seconds
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--part", str(part),
        "--min-calls", str(math.ceil(MIN_CALLS / E2E_PARTS)),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if mode == "trace":
        traces = os.path.join(HERE, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    """q-th percentile with linear interpolation (numpy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(parts, setups):
    """Gated metrics and raw wall times from the e2e workers' samples."""
    times = [t for p in parts for t in p["times"]]
    refs = [r for p in parts for r in p["refs"]]
    # each call against the mean of the reference runs just before and after it
    rel = [t / ((a + b) / 2) for p in parts
           for t, a, b in zip(p["times"], p["refs"], p["refs"][1:])]
    delivered = sum(p["delivered"] for p in parts)
    metrics = {
        "call_p50_rel": _metric(statistics.median(rel), "x_ref"),
        "call_p90_rel": _metric(_percentile(rel, 90), "x_ref"),
        "entries_per_ref": _metric(delivered / sum(rel), "1/ref"),
        "peak_rss_mb": _metric(max(p["peak_rss_mb"] for p in parts), "MiB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    raw = {
        "call_p50_ms": _metric(1e3 * statistics.median(times), "ms"),
        "call_p90_ms": _metric(1e3 * _percentile(times, 90), "ms"),
        "entries_per_s": _metric(delivered / sum(times), "1/s"),
        "reference_ms": _metric(1e3 * statistics.median(refs), "ms"),
    }
    return metrics, raw


def measure(root, args, wanted):
    deadline = time.monotonic() + RUN_TIMEOUT
    if args.trace:
        report = run_worker(root, args, "trace", deadline)
        notes = [f"{report['samples']} untraced calls; per-layer figures are medians"]
        notes += report["facts"]
    else:
        # Set-up probes before, between and after the e2e workers, so that
        # they do not all fall into one phase of the host's speed.
        def probes():
            return [run_worker(root, args, "setup", deadline)["setup_s"]
                    for _ in range(PROBES_PER_GAP)]

        setups = probes()
        parts = []
        for part in range(E2E_PARTS):
            parts.append(run_worker(root, args, "e2e", deadline, part,
                                    args.seconds / E2E_PARTS))
            setups += [parts[-1]["setup_s"]] + probes()
        metrics, raw = end_to_end(parts, setups)
        report = {
            "metrics": metrics,
            "raw": raw,
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "problems": [m for p in parts for m in p["problems"]],
            "numpy": parts[0]["numpy"],
            "blas": parts[0]["blas"],
        }
        notes = [f"setup_s: median of {len(setups)} fresh interpreters: "
                 + " ".join(f"{v:.3f}" for v in setups),
                 f"{report['attempted']} timed calls in {E2E_PARTS} fresh interpreters; "
                 "x_ref = multiples of the reference kernel timed next to each call"]
    metrics = report["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != units:
        raise RunError(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                       f"{sorted(units.items())}")
    return report, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="Closed-loop dualgrad benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        spec = load_spec(root)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise RunError(f"unknown workload {args.workload!r}; choose from {names}")
        if not os.path.isfile(os.path.join(root, "src", "dualgrad", "__init__.py")):
            raise RunError(f"{root} holds no src/dualgrad: run from the root of a checkout")
        env = environment(root)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        report, notes = measure(root, args, wanted)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env["numpy"] = report["numpy"]
    env["blas"] = report["blas"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# " + note)
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for name, m in report.get("raw", {}).items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']} (raw wall time; host-dependent, not gated)")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{'fail_rate':34s} {failed / attempted:.6g} ratio ({failed}/{attempted} calls)")
    for problem in report["problems"]:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
