"""Run one workload in this (fresh) interpreter and print one JSON line.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Modes:

- ``setup``: import, make the first input, make the untimed warm-up call,
  report the set-up time and exit.
- ``e2e``: set-up, then the closed loop: a fresh seeded point per call,
  each call timed alone and followed by a run of the reference kernel,
  every result checked outside the timed window.  The per-call samples go
  back to run.py, which combines the run's workers.
- ``trace``: set-up, then untraced, span-traced (and, for the threaded
  workload, serial reference) calls in round-robin order, followed by a
  counting pass and direct probes of the vector and testfns layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import dualgrad
from dualgrad.drivers import default_chunk
from dualgrad.vector import DualVector

# perfbench/ itself is on sys.path as the script's directory.
from tracing import GcTimer, OpCounter, SpanRecorder, minor_faults, union_length
from workloads import WORKLOADS, check, check_invariance

# Repetitions in one run of the reference kernel (about 2 ms).
REFERENCE_REPS = 8
# Hard stop for the timed loop, so a run ends well within three minutes.
MAX_LOOP_SECONDS = 60.0
# Every CHECK_EVERY-th call (the first included) also gets the C3/C7
# checks, up to MAX_SAMPLED calls per worker.
CHECK_EVERY = 20
MAX_SAMPLED = 2
# Driver calls made under the op counter.
COUNTING_CALLS = 3
# Lane counts of the vector-layer sweep.
SWEEP_LANES = (1, 2, 4, 8, 16, 32, 64)
# Shares of --seconds spent by the trace run's phases.
TRACE_LOOP_SHARE = 0.7
PROBE_SHARE = 0.1


def _ms(seconds):
    return seconds * 1e3


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _timed_median(fn, budget, min_reps):
    """Median wall time of fn() over at least min_reps calls and ~budget seconds."""
    times = []
    end = time.perf_counter() + budget
    while len(times) < min_reps or time.perf_counter() < end:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Checker:
    """Checks every call outside the timed window and counts failed calls.

    The oracle check runs right after each call.  The bitwise C3/C7 checks
    of the sampled calls wait for ``finish``, after the timed loop: they run other chunk sizes and a second thread,
    which would otherwise change the allocator state the timed calls see.
    """

    def __init__(self, wl):
        self.wl = wl
        self.calls = 0
        self.failed = 0
        self.messages = []
        self._sampled = []

    def _add(self, problems):
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.extend(problems)

    def timed_call(self, x, run):
        """Time run(), a driver call at x, then check it; returns the seconds."""
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a failed call is counted, not fatal
            seconds = time.perf_counter() - start
            self._add([f"call raised {exc!r}"])
        else:
            seconds = time.perf_counter() - start
            problems = check(self.wl, x, result)
            self._add(problems)
            if (not problems and self.calls % CHECK_EVERY == 0
                    and len(self._sampled) < MAX_SAMPLED):
                self._sampled.append((x, result))
        self.calls += 1
        return seconds

    def finish(self):
        for x, result in self._sampled:
            self._add(check_invariance(self.wl, x, result))
        self._sampled = []


def reference_seconds(block, scratch):
    """Time of a fixed numpy kernel that runs no dualgrad code.

    The host's CPU speed changes in phases of a few seconds, by up to half
    again, so raw call times from two runs differ by which phases they
    caught.  Timing this kernel next to every call measures the phase, and
    the gated latencies are call times in multiples of it.  It writes into
    preallocated arrays so that it leaves the allocator's state alone.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        np.multiply(block, 1.0001, out=scratch[0])
        np.add(scratch[0], 0.5, out=scratch[0])
        np.cos(scratch[0], out=scratch[1])
        np.multiply(scratch[1], scratch[0], out=scratch[1])
        scratch[1].sum(axis=1)
    return time.perf_counter() - start


def run_e2e(wl, k, rng, seconds, min_calls):
    """Closed loop; returns the per-call samples for run.py to combine."""
    checker = Checker(wl)
    block = np.random.default_rng(0).random((8, 2000))
    scratch = np.empty((2,) + block.shape)
    refs = [reference_seconds(block, scratch)]
    times = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - start >= MAX_LOOP_SECONDS or (
            now - start >= seconds and len(times) >= min_calls
        ):
            break
        x = wl.point(rng, k)
        times.append(checker.timed_call(x, lambda: wl.call(x)))
        refs.append(reference_seconds(block, scratch))
    checker.finish()
    return {
        "attempted": checker.calls,
        "failed": checker.failed,
        "problems": checker.messages,
        "times": times,
        "refs": refs,
        "delivered": wl.entries(k) * (checker.calls - checker.failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _span_stats(rec, call_ids, threads):
    """Per-call driver figures from the call and eval spans of call_ids."""
    calls = rec.by_call()
    walls, selfs, shares, effs, imbalances, passes, evals = [], [], [], [], [], [], []
    for cid in call_ids:
        call, spans = calls[cid]
        wall = call[3] - call[2]
        busy = {}
        for s in spans:
            busy[s[5]] = busy.get(s[5], 0.0) + (s[3] - s[2])
            evals.append(s[3] - s[2])
        self_time = wall - union_length([(s[2], s[3]) for s in spans])
        walls.append(wall)
        selfs.append(self_time)
        shares.append(self_time / wall)
        effs.append(sum(busy.values()) / (threads * wall))
        imbalances.append(max(busy.values()) / min(busy.values()))
        passes.append(len(spans))
    return {
        "wall": statistics.median(walls),
        "self": statistics.median(selfs),
        "share": statistics.median(shares),
        "eff": statistics.median(effs),
        "imbalance": statistics.median(imbalances),
        "passes": statistics.median(passes),
        "eval": statistics.median(evals),
    }


def _vector_pass(wl, x, n, budget):
    """Median time of f on a float64 DualVector with n unit lanes on x[:n]."""
    dv = DualVector(x, np.eye(n, x.shape[0]))
    return _timed_median(lambda: wl.f(dv), budget, 5)


def run_trace(wl, k, rng, seconds):
    """Per-layer metrics.  Per call, unless named per pass:

    drivers.*: ``passes`` (eval spans per call), ``self_ms``/``self_share``
    (call span minus the union of its eval spans), ``pass_cost_ratio``
    (untraced call / (passes x plain eval)), ``parallel_eff`` (sum of eval
    spans / (threads x call span)), ``worker_imbalance`` (max / min eval
    time per thread), ``eval_stretch`` (median eval span, workload's
    threads / serial; 1 for serial workloads).
    vector.*: ``pass_ms`` and ``pass_ms.nN`` (f on a float64 DualVector of
    N unit lanes at the workload's k, N = default chunk and 1..64),
    ``fixed_ms``/``per_lane_ms``/``fit_resid`` (least-squares line through
    ``pass_ms.nN``, relative RMS residual), op/transcendental/byte counts
    from OpCounter, ``minflt_per_pass`` (getrusage over untraced calls).
    dual.*: counts and outermost-call time from OpCounter; collector time
    over the untraced calls plus one young-generation collection after them.  testfns.*: one plain f(ndarray) evaluation and the
    untraced call over it.  trace.overhead: traced / untraced call median.
    """
    checker = Checker(wl)
    rec = SpanRecorder()
    traced_f = rec.traced_target(wl.f)
    modes = ["plain", "traced"] + (["serial"] if wl.threads > 1 else [])
    ids = {"traced": [], "serial": []}
    plain_times = []
    faults = 0
    gc_timer = GcTimer()
    start = time.perf_counter()
    loop_budget = TRACE_LOOP_SHARE * seconds
    while time.perf_counter() - start < loop_budget or len(plain_times) < 5:
        for mode in modes:
            x = wl.point(rng, k)
            if mode == "plain":

                def run(x=x):
                    nonlocal faults
                    before = minor_faults()
                    with gc_timer:
                        result = wl.call(x)
                    faults += minor_faults() - before
                    return result

                plain_times.append(checker.timed_call(x, run))
            else:
                threads = wl.threads if mode == "traced" else 1

                def run(threads=threads, x=x, mode=mode):
                    result, cid = rec.call(lambda: wl.call(x, f=traced_f, threads=threads))
                    ids[mode].append(cid)
                    return result

                checker.timed_call(x, run)

    # Charge the young garbage the calls left behind, which a later
    # scheduled collection would otherwise pay for.
    with gc_timer:
        gc.collect(0)
    checker.finish()

    traced = _span_stats(rec, ids["traced"], wl.threads)
    serial = _span_stats(rec, ids["serial"], 1) if ids["serial"] else traced
    passes = traced["passes"]
    plain_call = statistics.median(plain_times)

    x = wl.point(rng, k)
    counter = OpCounter()
    counted_passes = 0

    def counted_f(v):
        nonlocal counted_passes
        counted_passes += 1
        return wl.f(v)

    dual_seconds = []
    with counter:
        for _ in range(COUNTING_CALLS):
            before = counter.dual_seconds
            wl.call(x, f=counted_f, threads=1)
            dual_seconds.append(counter.dual_seconds - before)
    per_pass = 1.0 / counted_passes
    passes_per_call = counted_passes / COUNTING_CALLS

    probe_budget = PROBE_SHARE * seconds
    plain_eval = _timed_median(lambda: wl.f(x), probe_budget, 20)
    sweep_budget = probe_budget / len(SWEEP_LANES)
    sweep = {n: _vector_pass(wl, x, n, sweep_budget) for n in SWEEP_LANES}
    chunk = default_chunk(k)
    chunk_pass = sweep[chunk] if chunk in sweep else _vector_pass(wl, x, chunk, sweep_budget)
    lanes = np.array(SWEEP_LANES, dtype=float)
    sweep_ms = np.array([_ms(sweep[n]) for n in SWEEP_LANES])
    per_lane, fixed = np.polyfit(lanes, sweep_ms, 1)
    resid = sweep_ms - (fixed + per_lane * lanes)

    metrics = {
        "drivers.passes": _metric(passes, "count"),
        "drivers.self_ms": _metric(_ms(traced["self"]), "ms"),
        "drivers.self_share": _metric(traced["share"], "ratio"),
        "drivers.pass_cost_ratio": _metric(plain_call / (passes * plain_eval), "ratio"),
        "drivers.parallel_eff": _metric(traced["eff"], "ratio"),
        "drivers.worker_imbalance": _metric(traced["imbalance"], "ratio"),
        "drivers.eval_stretch": _metric(traced["eval"] / serial["eval"], "ratio"),
        "vector.pass_ms": _metric(_ms(chunk_pass), "ms"),
        "vector.fixed_ms": _metric(fixed, "ms"),
        "vector.per_lane_ms": _metric(per_lane, "ms"),
        "vector.fit_resid": _metric(math.sqrt(np.mean(resid**2)) / np.mean(sweep_ms), "ratio"),
        "vector.ops_per_pass": _metric(counter.vector_ops * per_pass, "count"),
        "vector.transcendentals_per_pass": _metric(
            counter.vector_transcendental_elems * per_pass, "count"
        ),
        "vector.lane_bytes_per_pass": _metric(counter.vector_bytes * per_pass, "B_computed"),
        "vector.minflt_per_pass": _metric(faults / (len(plain_times) * passes), "count"),
        "dual.pass_ms": _metric(_ms(statistics.median(dual_seconds)) / passes_per_call, "ms"),
        "dual.objects_per_pass": _metric(counter.dual_objects * per_pass, "count"),
        "dual.ops_per_pass": _metric(counter.dual_ops * per_pass, "count"),
        "dual.gc_ms_per_call": _metric(_ms(gc_timer.seconds) / len(plain_times), "ms"),
        "testfns.plain_ms": _metric(_ms(plain_eval), "ms"),
        "testfns.cost_ratio": _metric(plain_call / plain_eval, "ratio"),
        "trace.overhead": _metric(traced["wall"] / plain_call, "ratio"),
    }
    for n in SWEEP_LANES:
        metrics[f"vector.pass_ms.n{n}"] = _metric(_ms(sweep[n]), "ms")
    facts = []
    if wl.trace_fact is not None:
        name, low, high, claim = wl.trace_fact
        value = metrics[name]["value"]
        held = low < value < high
        facts.append(f"{name} = {value:.4g}, expected {claim}: "
                     f"{'reproduced' if held else 'NOT reproduced'}")
    return {
        "facts": facts,
        "attempted": checker.calls,
        "failed": checker.failed,
        "problems": checker.messages,
        "metrics": metrics,
        "spans": rec.spans,
        "samples": len(plain_times),
    }


def _blas():
    """Name and version of the BLAS numpy was built against."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--min-calls", type=int, default=1,
                        help="timed calls an e2e worker makes at least")
    parser.add_argument("--part", type=int, default=0,
                        help="index of this worker among the run's e2e workers")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    src = os.path.realpath("src")
    if not os.path.realpath(dualgrad.__file__).startswith(src + os.sep):
        print(f"dualgrad imported from {dualgrad.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    k = wl.size(args.tiny)
    warm_rng, call_rng = wl.rngs(args.seed, args.part)
    t0 = time.monotonic()
    x = wl.point(warm_rng, k)
    inputs_s = time.monotonic() - t0
    wl.call(x)  # untimed warm-up
    setup_s = time.monotonic() - args.spawned_at - inputs_s

    if args.mode == "setup":
        out = {"setup_s": setup_s}
    elif args.mode == "e2e":
        out = run_e2e(wl, k, call_rng, args.seconds, args.min_calls)
        out["setup_s"] = setup_s
    else:
        out = run_trace(wl, k, call_rng, args.seconds)
        spans = out.pop("spans")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "thread"), span
                    ))) + "\n")
    out["numpy"] = np.__version__
    out["blas"] = _blas()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
