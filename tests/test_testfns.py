"""Benchmark target functions and their oracles."""

import math

import numpy as np
import pytest

from dualgrad import (
    AckleyParams,
    ChunkConfig,
    DualVector,
    ackley,
    ackley_grad_analytic,
    fd_gradient,
    gradient,
    max_relative_error,
    rosenbrock,
    rosenbrock_grad_analytic,
)


# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------


def test_rosenbrock_minimum():
    for k in (2, 3, 10, 500):
        assert rosenbrock(np.ones(k)) == 0.0


def test_rosenbrock_classic_start():
    # 100 (1 - 1.44)^2 + (1 - (-1.2))^2 = 19.36 + 4.84
    assert rosenbrock([-1.2, 1.0]) == pytest.approx(24.2, rel=1e-14)


def test_rosenbrock_needs_two_components():
    with pytest.raises(ValueError):
        rosenbrock([1.0])


def test_ackley_minimum():
    # -a - e + a + e leaves one rounding of the 22.7-scale intermediate
    for k in (1, 2, 5, 100):
        assert abs(ackley(np.zeros(k))) <= 1e-15


def test_ackley_at_one():
    # cos(2 pi) = 1 makes the wavy term cancel e; the radial term remains
    got = ackley(np.array([1.0]))
    assert got == pytest.approx(20.0 * (1.0 - math.exp(-0.2)), rel=1e-14)
    assert got == pytest.approx(3.6253849, abs=1e-6)


def test_ackley_accepts_any_dimension():
    assert ackley([0.3]) > 0.0
    with pytest.raises(ValueError):
        ackley([])


def test_ackley_params():
    p = AckleyParams()
    assert (p.a, p.b, p.c) == (20.0, 0.2, 2.0 * math.pi)
    shifted = AckleyParams(a=5.0, b=0.5, c=1.0)
    assert ackley(np.zeros(3), shifted) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        AckleyParams(a=math.inf)


# ----------------------------------------------------------------------
# input-kind equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("f", [rosenbrock, ackley])
def test_plain_and_zero_lane_dual_evaluate_identically(f):
    x = np.random.default_rng(9).uniform(-2.0, 2.0, 11)
    plain = float(f(x))
    as_dual = f(DualVector(x, np.zeros((3, 11))))
    assert float(as_dual.value) == plain  # same code path, 0 ulps
    assert float(f(list(x))) == plain


# ----------------------------------------------------------------------
# analytic gradients
# ----------------------------------------------------------------------


def test_rosenbrock_analytic_gradient_at_minimum():
    assert np.array_equal(rosenbrock_grad_analytic(np.ones(7)), np.zeros(7))


def test_rosenbrock_analytic_gradient_classic_start():
    got = rosenbrock_grad_analytic([-1.2, 1.0])
    assert got == pytest.approx([-215.6, -88.0], rel=1e-13)


def test_ackley_analytic_gradient_rejects_origin():
    with pytest.raises(ValueError, match="non-differentiable"):
        ackley_grad_analytic(np.zeros(4))


def test_analytic_gradients_match_propagated():
    rng = np.random.default_rng(41)
    for _ in range(50):
        xr = rng.uniform(-2.0, 2.0, 12)
        assert max_relative_error(
            gradient(rosenbrock, xr).values, rosenbrock_grad_analytic(xr)
        ) <= 1e-10
        xa = rng.uniform(-1.0, 1.0, 12)
        assert max_relative_error(
            gradient(ackley, xa).values, ackley_grad_analytic(xa)
        ) <= 1e-10


# ----------------------------------------------------------------------
# finite-difference oracle
# ----------------------------------------------------------------------


def test_fd_gradient_of_square():
    got = fd_gradient(lambda x: np.sum(x**2), np.array([3.0]))
    assert abs(got[0] - 6.0) <= 1e-6


def test_fd_gradient_at_rosenbrock_minimum():
    got = fd_gradient(rosenbrock, np.ones(5))
    assert np.max(np.abs(got)) <= 1e-6


def test_fd_gradient_validates_step():
    with pytest.raises(ValueError):
        fd_gradient(rosenbrock, np.ones(3), step=0.0)


def test_three_way_agreement_at_random_points():
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 20)
        ad = gradient(rosenbrock, x).values
        an = rosenbrock_grad_analytic(x)
        fd = fd_gradient(rosenbrock, x)
        assert max_relative_error(ad, an, floor=1e-3) <= 1e-5
        assert max_relative_error(ad, fd, floor=1e-3) <= 1e-5
        assert max_relative_error(an, fd, floor=1e-3) <= 1e-5

        xa = rng.uniform(-1.0, 1.0, 20)
        ad = gradient(ackley, xa).values
        an = ackley_grad_analytic(xa)
        fd = fd_gradient(ackley, xa)
        assert max_relative_error(ad, an, floor=1e-3) <= 1e-5
        assert max_relative_error(ad, fd, floor=1e-3) <= 1e-5
        assert max_relative_error(an, fd, floor=1e-3) <= 1e-5


def test_ackley_gradient_at_kink_is_the_zero_subgradient():
    # declared fix (NaN-safe lanes), pinned before as
    # test_ackley_gradient_at_kink_is_visibly_nonfinite: all NaN, since the radial sqrt's
    # infinite coefficient met lanes that were exactly zero (0 * inf).  Those stay zero now,
    # which gives 0, a subgradient of the cone at its tip, as abs at 0 does
    res = gradient(ackley, np.zeros(6), ChunkConfig(2))
    assert res.values.tobytes() == np.zeros(6).tobytes()
    assert res.values.tobytes() == gradient(ackley, np.zeros(6), ChunkConfig(6)).values.tobytes()
