"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import contextlib
import math
import os

import numpy as np
import pytest

import checks
from dualgrad import (
    ChunkConfig,
    EvalCounter,
    ackley,
    ackley_grad_analytic,
    fd_gradient,
    gradient,
    gradient_threaded,
    hessian,
    max_relative_error,
    rosenbrock,
    rosenbrock_grad_analytic,
    second_derivative,
    sin,
)
from dualgrad.bench import run_chunk_sweep


@contextlib.contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"[{tag}] FAIL  {description}")
        raise
    print(f"[{tag}] PASS  {description}")


def test_c1_nested_dual_exactness():
    with criterion("C1", "second derivative of sin at 1.0 within 2 ulps"):
        target = -0.8414709848078965
        assert target == -math.sin(1.0)  # the pinned literal is the exact float
        got = second_derivative(sin, 1.0)
        assert abs(got - target) <= 2.0 * math.ulp(abs(target))


def test_c2_chunk_pass_accounting():
    with criterion("C2", "exactly ceil(k/N) target evaluations per gradient"):
        counted = EvalCounter(rosenbrock)
        gradient(counted, np.array([0.1, 0.2, 0.3, 0.4]), ChunkConfig(2))
        assert counted.count == 2

        rng = np.random.default_rng(7)
        for k in range(1, 21):
            x = rng.uniform(-1.0, 1.0, k)
            for n in range(1, k + 3):
                counted = EvalCounter(ackley)
                gradient(counted, x, ChunkConfig(n))
                assert counted.count == math.ceil(k / n), (k, n, counted.count)


def test_c3_chunk_size_invariance():
    with criterion("C3", "gradients bitwise equal across chunk sizes"):
        rng = np.random.default_rng(11)
        for f, span in ((rosenbrock, 2.0), (ackley, 1.0)):
            for k in (2, 5, 16, 100):
                x = rng.uniform(-span, span, k)
                ref = gradient(f, x, ChunkConfig(k)).values
                for n in (1, 2, 3, 4, 8, k):
                    got = gradient(f, x, ChunkConfig(n)).values
                    assert np.array_equal(got, ref), (f.__name__, k, n)


def test_c4_oracle_agreement():
    with criterion(
        "C4",
        "AD vs analytic vs central differences at 50 seeded points, k=100",
    ):
        rng = np.random.default_rng(2026)
        worst = {"ad_an": 0.0, "ad_fd": 0.0, "an_fd": 0.0}
        for _ in range(50):
            for f, analytic, span in (
                (rosenbrock, rosenbrock_grad_analytic, 2.0),
                (ackley, ackley_grad_analytic, 1.0),
            ):
                x = rng.uniform(-span, span, 100)
                ad = gradient(f, x).values
                an = analytic(x)
                fd = fd_gradient(f, x)
                worst["ad_an"] = max(worst["ad_an"], max_relative_error(ad, an))
                worst["ad_fd"] = max(worst["ad_fd"], max_relative_error(ad, fd))
                worst["an_fd"] = max(worst["an_fd"], max_relative_error(an, fd))
        assert worst["ad_an"] <= 1e-10, worst
        assert worst["ad_fd"] <= 1e-5, worst
        assert worst["an_fd"] <= 1e-5, worst
        print(
            f"      worst rel errs: ad-analytic {worst['ad_an']:.2e}, "
            f"ad-fd {worst['ad_fd']:.2e}, analytic-fd {worst['an_fd']:.2e}"
        )


def test_c5_hessian_correctness():
    with criterion("C5", "Hessian closed form at the minimum and symmetry"):
        res = hessian(rosenbrock, [1.0, 1.0])
        want = np.array([[802.0, -400.0], [-400.0, 200.0]])
        assert np.max(np.abs(res.entries - want) / np.abs(want)) <= 1e-9

        rng = np.random.default_rng(13)
        for _ in range(6):
            k = int(rng.integers(2, 11))
            x = rng.uniform(-2.0, 2.0, k)
            for f in (rosenbrock, ackley):
                h = hessian(f, x).entries
                asym = np.max(np.abs(h - h.T)) / np.max(np.abs(h))
                assert asym <= 1e-8, (f.__name__, k, asym)


def test_c6_chunk_trend_at_scale():
    with criterion(
        "C6",
        "chunk-size trend at k=12000: N=4 vs N=1 timing ratios",
    ):
        ratios = {}
        for function, bound in (("ackley", 0.6), ("rosenbrock", 0.9)):
            records = {
                r.chunk: r.min_seconds
                for r in run_chunk_sweep(function, 12000, [1, 4], reps=3)
            }
            ratio = records[4] / records[1]
            ratios[function] = (ratio, records[1], records[4])
            assert ratio <= bound, (
                f"{function}: N=4/N=1 min-time ratio {ratio:.3f} exceeds {bound}"
            )
        for name, (ratio, t1, t4) in ratios.items():
            print(f"      {name}: N=1 {t1:.3f}s, N=4 {t4:.3f}s, ratio {ratio:.3f}")


def test_c7_threading_trend_at_scale():
    cpus = os.cpu_count() or 1
    if cpus < 4:
        print(f"[C7] SKIP  machine has {cpus} hardware threads; needs >= 4")
        pytest.skip(f"threading trend needs >= 4 hardware threads, found {cpus}")
    with criterion(
        "C7",
        "4-thread gradient at k=10000, N=10: <= 0.75x serial, bitwise equal",
    ):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1.0, 1.0, 10000)

        serial_cfg = ChunkConfig(10, 1)
        threaded_cfg = ChunkConfig(10, 4)
        serial = gradient(ackley, x, serial_cfg)
        threaded = gradient_threaded(ackley, x, threaded_cfg)
        assert np.array_equal(serial.values, threaded.values)

        def best(fn, reps=3):
            import time

            times = []
            for _ in range(reps):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        t_serial = best(lambda: gradient(ackley, x, serial_cfg))
        t_threaded = best(lambda: gradient_threaded(ackley, x, threaded_cfg))
        ratio = t_threaded / t_serial
        print(f"      serial {t_serial:.3f}s, 4 threads {t_threaded:.3f}s, ratio {ratio:.3f}")
        assert ratio <= 0.75


def test_c8_property_suite():
    with criterion("C8", "randomized invariant suite, >= 1000 cases per rule"):
        rng = np.random.default_rng(1000)
        checks.check_constants_stay_constant(rng, 1000)
        checks.check_linearity(rng, 1000)
        checks.check_chain_rule(rng, 1000)
        checks.check_product_quotient(rng, 1000)
        checks.check_second_derivative_exact(rng, 1000)
        checks.check_fd_agreement_unary(rng, 100)
        checks.check_lane_independence(rng, 1000)
        checks.check_chunk_invariance(rng, k_max=20)
        checks.check_pass_counts(rng, k_max=20)
        checks.check_gradient_oracles(rng, points=10, k=50)
        checks.check_hessian_symmetry(rng, points=5)
        checks.check_hessian_vs_fd_gradient(rng, points=3)
        checks.check_thread_determinism(rng)
