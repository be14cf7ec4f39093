"""Differentiation drivers: derivatives, chunked gradients, Jacobians,
Hessians, third-order tensors, threading."""

import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

import checks
import dualgrad
from dualgrad import (
    ChunkConfig,
    Dual,
    DualVector,
    EvalCounter,
    ImpureTargetError,
    ackley,
    cos,
    default_chunk,
    derivative,
    exp,
    fd_gradient,
    log,
    gradient,
    gradient_threaded,
    hessian,
    jacobian,
    rosenbrock,
    second_derivative,
    sin,
    sqrt,
    square,
    third_order_tensor,
)


# ----------------------------------------------------------------------
# scalar drivers
# ----------------------------------------------------------------------


def test_derivative_examples():
    assert derivative(square, 3.0) == 6.0
    assert derivative(sin, 1.0) == 0.5403023058681398
    assert derivative(lambda d: 7.0, 123.4) == 0.0


def test_second_derivative_examples():
    assert second_derivative(sin, 1.0) == -0.8414709848078965
    assert second_derivative(square, -17.3) == 2.0
    assert second_derivative(exp, 0.0) == 1.0


@pytest.mark.parametrize("driver", [derivative, second_derivative])
@pytest.mark.parametrize(
    "target, got",
    [
        (lambda d: [d, 2 * d], "a list"),
        (lambda d: np.array([1.0, 2.0]), "shape (2,)"),
        (lambda d: (d * d, d), "a tuple"),
        (lambda d: "x", "a str"),
    ],
    ids=["list", "array", "tuple", "str"],
)
def test_derivative_drivers_reject_results_that_are_not_scalars(driver, target, got):
    want = f"target function must return a scalar, got {got}"
    with pytest.raises(TypeError, match=re.escape(want)):
        driver(target, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: derivative(math.exp, 1.0),
        lambda: derivative(lambda x: np.float64(x) * x, 2.0),
        lambda: second_derivative(math.exp, 1.0),
        lambda: gradient(lambda v: math.exp(v[0]) + v[1], [1.0, 2.0]),
        lambda: hessian(lambda v: math.exp(v[0]) + v[1], [1.0, 2.0]),
        lambda: third_order_tensor(lambda v: math.exp(v[0]) + v[1], [1.0, 2.0]),
    ],
    ids=["derivative", "np.float64", "second", "gradient", "hessian", "third"],
)
def test_converting_a_dual_to_float_raises_at_every_order(call):
    # a float() of a dual would keep the value and drop every lane
    with pytest.raises(TypeError, match="real number"):
        call()


@pytest.mark.parametrize("driver", [derivative, second_derivative])
@pytest.mark.parametrize("const", [7.0, 7, np.float64(7.0), np.array(7.0)], ids=repr)
def test_derivative_drivers_give_zero_for_scalar_constants(driver, const):
    assert driver(lambda d: const, 1.0) == 0.0


@pytest.mark.parametrize("driver", [derivative, second_derivative])
@pytest.mark.parametrize("x", [1.0, 1, np.float64(1.0), np.array(1.0)], ids=repr)
def test_scalar_drivers_accept_python_and_numpy_scalars(driver, x):
    assert driver(sin, x) == driver(sin, 1.0)


@pytest.mark.parametrize("driver", [derivative, second_derivative])
@pytest.mark.parametrize("f", [sin, lambda d: d * d], ids=["sin", "product"])
def test_scalar_drivers_reject_array_points(driver, f):
    # an array value would turn the single seeded lane into one per element
    with pytest.raises(ValueError, match=r"scalar point, got shape \(2,\)"):
        driver(f, np.array([1.0, 2.0]))


def test_second_derivative_of_composition():
    # f(x) = x^2 sin(x): f'' = 2 sin x + 4x cos x - x^2 sin x
    f = lambda d: d**2 * sin(d)
    for x in (0.3, -1.7, 2.9):
        want = 2 * math.sin(x) + 4 * x * math.cos(x) - x**2 * math.sin(x)
        assert second_derivative(f, x) == pytest.approx(want, rel=1e-13)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_chunk_config_validation():
    with pytest.raises(ValueError):
        ChunkConfig(chunk_size=0)
    with pytest.raises(ValueError):
        ChunkConfig(threads=0)
    # default: the widest chunk whose lane block fits 256 KiB, at least 8
    assert ChunkConfig().resolve(20) == 20
    assert ChunkConfig().resolve(1000) == 32
    assert ChunkConfig().resolve(3000) == 10
    assert ChunkConfig().resolve(12000) == 8
    assert ChunkConfig().resolve(3) == 3
    assert ChunkConfig(100).resolve(10) == 10  # oversized chunks clamp to k


def test_default_chunk_is_the_widest_that_fits_the_lane_block_budget():
    budget = dualgrad.drivers.LANE_BLOCK_BYTES
    for levels in (1, 2, 3):
        for k in range(1, 20001):
            n = default_chunk(k, levels)
            assert min(k, 8) <= n <= k, (k, levels)
            if 8 < n < k:
                assert n**levels * k * 8 <= budget < (n + 1) ** levels * k * 8, (k, levels)
    assert default_chunk(128, 2) == 16  # 16**2 * 128 * 8 bytes is the budget exactly
    assert [default_chunk(k, 2) for k in (30, 100, 1000, 3000, 4096)] == [30, 18, 8, 8, 8]


def test_default_chunks_set_the_pass_count():
    x = np.linspace(-0.9, 0.9, 30)
    counted = EvalCounter(rosenbrock)
    hessian(counted, x)
    assert counted.count == 1
    counted = EvalCounter(ackley)
    gradient(counted, np.linspace(-0.9, 0.9, 1000))
    assert counted.count == 3  # 32 lanes, the 936 in between in one pass, the last 32 lanes
    counted = EvalCounter(rosenbrock)
    third_order_tensor(counted, x[:8])
    assert counted.count == 1


@pytest.mark.parametrize("k", [30, 100, 1000, 3000])
@pytest.mark.parametrize("f", [ackley, rosenbrock], ids=["ackley", "rosenbrock"])
def test_default_chunk_results_equal_chunk_8_bitwise(f, k):
    x = np.random.default_rng(k).uniform(-1.0, 1.0, size=k)
    eight = ChunkConfig(8)
    default, pinned = gradient(f, x), gradient(f, x, eight)
    assert np.array_equal(default.values, pinned.values) and default.f_value == pinned.f_value
    g = lambda v: [f(v), f(2.0 * v)]
    assert np.array_equal(jacobian(g, x).entries, jacobian(g, x, eight).entries)
    if k <= 100:
        default, pinned = hessian(f, x), hessian(f, x, 8, 8)
        assert np.array_equal(default.entries, pinned.entries)
        assert np.array_equal(default.gradient, pinned.gradient)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ChunkConfig(chunk_size=2.5),
        lambda: ChunkConfig(chunk_size=True),
        lambda: ChunkConfig(threads=1.5),
        lambda: ChunkConfig(threads=0),
        lambda: hessian(rosenbrock, np.ones(3), outer_chunk=2.5),
        lambda: hessian(rosenbrock, np.ones(3), outer_chunk=0),
        lambda: hessian(rosenbrock, np.ones(3), inner_chunk="2"),
        lambda: third_order_tensor(rosenbrock, np.ones(3), chunks=(0, 0, 0)),
        lambda: third_order_tensor(rosenbrock, np.ones(3), chunks=(1, 2)),
        lambda: third_order_tensor(rosenbrock, np.ones(3), chunks=(1, 2.0, 1)),
        lambda: gradient(rosenbrock, np.ones(3), 8),
        lambda: gradient_threaded(rosenbrock, np.ones(3), (2, 2)),
        lambda: jacobian(lambda v: v, np.ones(3), {"chunk_size": 2}),
    ],
)
def test_bad_chunk_and_thread_arguments_raise_value_error(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def test_empty_input_is_an_error():
    with pytest.raises(ValueError, match="empty input"):
        gradient(ackley, [])


@pytest.mark.parametrize(
    "x, dtype",
    [
        (np.array([1.0 + 2.0j, 3.0]), "complex128"),
        (["1.5", "2"], "<U3"),
        (np.array([1.0, None]), "object"),
    ],
    ids=["complex", "strings", "object"],
)
@pytest.mark.parametrize("driver", [gradient, jacobian, hessian, third_order_tensor])
def test_inputs_that_are_not_real_numbers_raise_before_any_pass(driver, x, dtype):
    counted = EvalCounter(lambda v: v)
    want = f"input must be real numbers, got dtype {dtype}"
    with pytest.raises(ValueError, match=re.escape(want)):
        driver(counted, x)
    assert counted.count == 0


@pytest.mark.parametrize("x", [[True, False], np.array([1, 0], np.int8), np.float32([1, 0])])
def test_bool_integer_and_float_inputs_are_read_as_float64(x):
    assert np.array_equal(gradient(rosenbrock, x).values, gradient(rosenbrock, [1.0, 0.0]).values)


# ----------------------------------------------------------------------
# gradient
# ----------------------------------------------------------------------


def test_gradient_at_the_minimum_is_exactly_zero():
    for k in (2, 5, 30):
        res = gradient(rosenbrock, np.ones(k))
        assert res.f_value == 0.0
        assert np.array_equal(res.values, np.zeros(k))


def test_gradient_matches_closed_form_at_classic_start():
    # d f / d x1 = -400 x1 (x2 - x1^2) - 2 (1 - x1), d f / d x2 = 200 (x2 - x1^2)
    res = gradient(rosenbrock, [-1.2, 1.0], ChunkConfig(1))
    x1, x2 = -1.2, 1.0
    want = [-400 * x1 * (x2 - x1**2) - 2 * (1 - x1), 200 * (x2 - x1**2)]
    assert res.values == pytest.approx(want, rel=1e-13)
    assert res.values == pytest.approx([-215.6, -88.0], rel=1e-13)
    assert res.f_value == pytest.approx(24.2, rel=1e-14)
    fd = fd_gradient(rosenbrock, [-1.2, 1.0])
    assert res.values == pytest.approx(fd, rel=1e-7)


def test_two_pass_chunking_equals_single_pass():
    x = np.array([0.3, -0.7, 1.1, 0.4])
    counted = EvalCounter(rosenbrock)
    two_pass = gradient(counted, x, ChunkConfig(2))
    assert counted.count == 2
    single = gradient(rosenbrock, x, ChunkConfig(4))
    assert np.array_equal(two_pass.values, single.values)
    assert two_pass.f_value == single.f_value


def test_f_value_recovered_from_value_channel():
    x = np.linspace(0.1, 1.0, 7)
    res = gradient(ackley, x, ChunkConfig(3))
    assert res.f_value == float(ackley(x))


def test_impure_target_function_is_caught():
    calls = []

    def impure(x):
        calls.append(1)
        return np.sum(x**2) + len(calls)  # value channel drifts between passes

    with pytest.raises(ImpureTargetError, match="pass 0 gave 5.0, pass 1 gave 6.0"):
        gradient(impure, np.ones(4), ChunkConfig(2))


def _impure_after_one_call():
    """A counted target whose value channel drifts from its second evaluation on."""
    tickets = itertools.count()

    def target(x):
        return np.sum(x * x) + (next(tickets) > 0)

    return EvalCounter(target)


def test_impure_target_stops_at_its_first_impure_pass():
    counted = _impure_after_one_call()
    with pytest.raises(ImpureTargetError, match="pass 0 gave 40.0, pass 1 gave 41.0"):
        gradient(counted, np.ones(40), ChunkConfig(1))
    assert counted.count == 2


def test_impure_target_stops_every_thread():
    threads = 2
    counted = _impure_after_one_call()
    with pytest.raises(ImpureTargetError, match="pass 0 gave 40.0, pass [0-9]+ gave 41.0"):
        gradient(counted, np.ones(40), ChunkConfig(1, threads))
    # the impure pass, and at most one pass each thread had already begun
    assert counted.count <= 2 + threads


def test_hessian_purity_check_covers_every_pass():
    calls = []

    def impure(x):
        calls.append(1)
        return np.sum(x**2) + len(calls)

    # one pass per outer block: only a check across blocks can see the drift
    with pytest.raises(ImpureTargetError, match="pass 1"):
        hessian(impure, np.ones(3), outer_chunk=1, inner_chunk=3)


def test_purity_check_runs_under_python_O():
    script = textwrap.dedent(
        """
        import numpy as np
        from dualgrad import ChunkConfig, ImpureTargetError, gradient, hessian

        for run in (lambda f: gradient(f, np.ones(4), ChunkConfig(2)),
                    lambda f: hessian(f, np.ones(3), 1, 3)):
            calls = []
            def impure(x):
                calls.append(1)
                return np.sum(x**2) + len(calls)
            try:
                run(impure)
            except ImpureTargetError as exc:
                print("caught:", exc)
            else:
                raise SystemExit("impure target went undetected")
        """
    )
    src = os.path.dirname(os.path.dirname(dualgrad.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("caught:") == 2


def test_loop_style_target_functions_work():
    # iterating a chunk batch yields scalar duals, so element-at-a-time
    # code differentiates too (slow path, same numbers)
    def loopy(x):
        total = 0.0
        for i in range(len(x) - 1):
            total = total + 100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2
        return total

    x = np.array([-1.2, 1.0, 0.5])
    fast = gradient(rosenbrock, x).values
    slow = gradient(loopy, x).values
    assert slow == pytest.approx(fast, rel=1e-12)


def test_nonfinite_results_propagate_not_trap():
    res = gradient(ackley, np.zeros(4))  # kink of the radial sqrt
    assert not np.all(np.isfinite(res.values))


# ----------------------------------------------------------------------
# jacobian
# ----------------------------------------------------------------------


def test_jacobian_of_identity():
    res = jacobian(lambda x: x, np.arange(1.0, 6.0), ChunkConfig(2))
    assert np.array_equal(res.entries, np.eye(5))
    assert np.array_equal(res.f_value, np.arange(1.0, 6.0))


def test_jacobian_value_is_a_copy_of_the_input():
    x = np.arange(1.0, 6.0)
    res = jacobian(lambda v: v, x)
    assert res.f_value is not x and not np.shares_memory(res.f_value, x)
    res.f_value[:] = -1.0
    assert np.array_equal(x, np.arange(1.0, 6.0))


def test_jacobian_product_and_sum_rows():
    res = jacobian(lambda x: [x[0] * x[1], x[0] + x[1]], [3.0, 5.0])
    assert res.entries.tolist() == [[5.0, 3.0], [1.0, 1.0]]


def test_jacobian_rows_sum_to_gradient():
    # summands of the valley function: row sums of the Jacobian must equal
    # the gradient of their sum
    def summands(x):
        head = x[:-1]
        tail = x[1:]
        return 100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2

    x = np.random.default_rng(5).uniform(-2, 2, 7)
    J = jacobian(summands, x, ChunkConfig(3)).entries
    g = gradient(rosenbrock, x).values
    assert np.sum(J, axis=0) == pytest.approx(g, rel=1e-12, abs=1e-12)


def test_jacobian_of_constant_map_is_zero():
    res = jacobian(lambda x: np.array([2.0, 3.0]), np.ones(4), ChunkConfig(3))
    assert np.array_equal(res.entries, np.zeros((2, 4)))
    assert np.array_equal(res.f_value, np.array([2.0, 3.0]))


def test_jacobian_accepts_lists_of_duals_and_scalars():
    res = jacobian(lambda x: (x[0] * x[1], 2, np.float64(3.0), np.array(4.0)), [3.0, 5.0])
    assert res.entries.tolist() == [[5.0, 3.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert res.f_value.tolist() == [15.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize(
    "target, got",
    [
        (lambda v: [v * 2.0, v], "shape (2,)"),
        (lambda v: [v[0], np.ones(2)], "shape (2,)"),
        (lambda v: (v[0], "x"), "a str"),
    ],
    ids=["list-of-vectors", "ragged", "str-component"],
)
def test_jacobian_rejects_lists_without_converting_them(target, got):
    # converting a list of vectors would build an object array and warn
    want = f"target function must return a 1-D vector of scalars, got {got}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TypeError, match=re.escape(want)):
            jacobian(target, [1.0, 2.0])


@pytest.mark.parametrize(
    "target, actual",
    [
        (lambda v: DualVector(v.values, np.concatenate([v.partials, v.partials])), 6),
        (lambda v: DualVector(v.values, v.partials[:1]), 1),
    ],
    ids=["too_many", "too_few"],
)
def test_jacobian_rejects_wrong_lane_count(target, actual):
    with pytest.raises(ValueError, match=f"returned {actual} lanes, expected 3"):
        jacobian(target, np.ones(4), ChunkConfig(3))


@pytest.mark.parametrize(
    "target, got",
    [
        (np.sum, "a Dual"),
        (lambda v: v.reshape((1, 3)), "shape (1, 3)"),
        (lambda v: v.reshape((3, 1)), "shape (3, 1)"),
    ],
    ids=["scalar", "row", "column"],
)
def test_jacobian_rejects_outputs_that_are_not_1d(target, got):
    want = f"target function must return a 1-D vector, got {got}"
    with pytest.raises(TypeError, match=re.escape(want)):
        jacobian(target, np.ones(3), ChunkConfig(2))


@pytest.mark.parametrize("driver", [gradient, hessian])
@pytest.mark.parametrize(
    "target, got",
    [
        (lambda v: np.ones(3), "shape (3,)"),
        (lambda v: [v[0], v[1]], "a list"),
        (lambda v: (v[0] * v[1],), "a tuple"),
        (lambda v: v * 2.0, "a vector"),
    ],
    ids=["array", "list", "tuple", "dual-vector"],
)
def test_scalar_drivers_reject_results_that_are_not_scalars(driver, target, got):
    want = f"target function must return a scalar, got {got}"
    with pytest.raises(TypeError, match=re.escape(want)):
        driver(target, [1.0, 2.0])


def test_scalar_drivers_accept_numpy_scalars_and_0d_arrays():
    for const in (np.float64(3.5), np.array(3.5), 3.5):
        assert gradient(lambda v: const, [1.0, 2.0]).f_value == 3.5
        assert hessian(lambda v: const, [1.0, 2.0]).entries.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_jacobian_rejects_inconsistent_output_length():
    calls = []

    def shifty(x):
        calls.append(1)
        return [x[0]] * (1 + len(calls))

    with pytest.raises(ValueError, match="output length"):
        jacobian(shifty, np.ones(4), ChunkConfig(1))


def test_impure_vector_target_is_caught():
    calls = []

    def drifting(x):
        calls.append(1)
        return x if len(calls) == 1 else 2.0 * x

    with pytest.raises(ImpureTargetError, match="pass 1 gave"):
        jacobian(drifting, np.ones(4), ChunkConfig(2))


def test_threaded_jacobian_equals_serial_and_runs_passes_on_a_worker():
    idents = []

    def vec(x):
        idents.append(threading.get_ident())
        return np.sin(x) * x[::-1] + np.sqrt(np.abs(x)) - x / (1.0 + x * x)

    x = np.random.default_rng(37).uniform(-1, 1, 40)
    threaded = jacobian(vec, x, ChunkConfig(4, threads=2))
    assert len(idents) == 10 and set(idents) - {threading.get_ident()}
    serial = jacobian(vec, x, ChunkConfig(4))
    assert threaded.entries.tobytes() == serial.entries.tobytes()
    assert threaded.f_value.tobytes() == serial.f_value.tobytes()


# ----------------------------------------------------------------------
# hessian
# ----------------------------------------------------------------------


def test_hessian_matches_closed_form_at_minimum():
    # d2/dx1^2 = 1200 x1^2 - 400 x2 + 2, cross = -400 x1, d2/dx2^2 = 200
    res = hessian(rosenbrock, [1.0, 1.0])
    assert res.entries == pytest.approx(np.array([[802.0, -400.0], [-400.0, 200.0]]), rel=1e-9)
    assert res.gradient == pytest.approx([0.0, 0.0], abs=1e-12)
    assert res.f_value == 0.0


def test_hessian_of_linear_function_is_zero():
    res = hessian(lambda x: np.sum(x * 3.0) + 1.0, np.arange(4.0))
    assert np.array_equal(res.entries, np.zeros((4, 4)))
    assert res.gradient == pytest.approx([3.0] * 4)


def test_hessian_of_sin_single_variable():
    res = hessian(lambda x: sin(x[0]), [1.0])
    assert res.entries[0, 0] == -0.8414709848078965


def test_hessian_chunking_does_not_change_entries():
    x = np.random.default_rng(11).uniform(-1.5, 1.5, 5)
    ref = hessian(rosenbrock, x, outer_chunk=5, inner_chunk=5).entries
    for m in (1, 2, 5):
        for n in (1, 3, 5):
            got = hessian(rosenbrock, x, outer_chunk=m, inner_chunk=n).entries
            assert np.array_equal(got, ref), f"hessian changed with chunks {m},{n}"


def test_hessian_pass_accounting():
    x = np.linspace(0.2, 1.0, 5)
    counted = EvalCounter(rosenbrock)
    hessian(counted, x, outer_chunk=2, inner_chunk=3)
    assert counted.count == math.ceil(5 / 2) * math.ceil(5 / 3)


def test_hessian_gradient_channel_matches_gradient_driver():
    x = np.random.default_rng(12).uniform(-2, 2, 6)
    res = hessian(ackley, x)
    direct = gradient(ackley, x)
    assert res.gradient == pytest.approx(direct.values, rel=1e-12, abs=1e-14)
    assert res.f_value == pytest.approx(direct.f_value, rel=1e-15)


def _rosenbrock_hessian_analytic(x):
    # tridiagonal closed form: the only couplings are neighbour pairs
    k = x.shape[0]
    h = np.zeros((k, k))
    for i in range(k - 1):
        h[i, i] += 1200.0 * x[i] ** 2 - 400.0 * x[i + 1] + 2.0
        h[i + 1, i + 1] += 200.0
        h[i, i + 1] += -400.0 * x[i]
        h[i + 1, i] += -400.0 * x[i]
    return h


def test_hessian_with_constant_couplings():
    # gradient entries constant in some variables leave zero lanes behind
    res = hessian(lambda x: x[0] * x[1] + x[1], [3.0, 4.0], outer_chunk=1, inner_chunk=1)
    assert res.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert res.gradient.tolist() == [4.0, 4.0]


def test_hessian_of_vector_minus_its_mean():
    # a vector combined with a reduction of itself: f = sum((x - mean x)^2)
    x = np.array([0.3, -1.2, 2.5, 0.9])
    res = hessian(lambda v: np.sum((v - v.mean()) ** 2), x, outer_chunk=3, inner_chunk=2)
    want = 2.0 * (np.eye(4) - np.ones((4, 4)) / 4)
    assert np.max(np.abs(res.entries - want)) <= 1e-14


def test_hessian_out_of_domain_entry_is_nonfinite():
    res = hessian(lambda v: np.sum(log(v)), [0.3, -0.7, 1.1])
    assert not math.isfinite(res.entries[1, 1])


def test_hessian_of_transcendental_product():
    x = [0.5, 1.2]
    e, s, c = math.exp(0.5), math.sin(1.2), math.cos(1.2)
    res = hessian(lambda v: exp(v[0]) * sin(v[1]), x)
    want = np.array([[e * s, e * c], [e * c, -e * s]])
    assert np.max(np.abs(res.entries - want)) <= 1e-14


def test_third_order_of_transcendental_product():
    x = [0.5, 1.2]
    e, s, c = math.exp(0.5), math.sin(1.2), math.cos(1.2)
    want = np.empty((2, 2, 2))
    want[0, 0, 0] = e * s
    want[0, 0, 1] = want[0, 1, 0] = want[1, 0, 0] = e * c
    want[0, 1, 1] = want[1, 0, 1] = want[1, 1, 0] = -e * s
    want[1, 1, 1] = -e * c
    got = third_order_tensor(lambda v: exp(v[0]) * sin(v[1]), x, chunks=(1, 2, 1))
    assert np.max(np.abs(got - want)) <= 1e-14


def test_hessian_matches_banded_closed_form_at_random_points():
    rng = np.random.default_rng(14)
    for _ in range(4):
        k = int(rng.integers(3, 8))
        x = rng.uniform(-2.0, 2.0, k)
        got = hessian(rosenbrock, x, outer_chunk=2, inner_chunk=3).entries
        want = _rosenbrock_hessian_analytic(x)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-9)


# ----------------------------------------------------------------------
# third-order tensor
# ----------------------------------------------------------------------


def test_third_order_of_cube():
    tensor = third_order_tensor(lambda x: x[0] ** 3, [2.7])
    assert tensor.shape == (1, 1, 1)
    assert tensor[0, 0, 0] == pytest.approx(6.0, rel=1e-12)


def test_third_order_of_sin():
    tensor = third_order_tensor(lambda x: sin(x[0]), [1.0])
    assert tensor[0, 0, 0] == pytest.approx(-0.5403023058681398, abs=1e-15)


def _poly_third_tensor(coeffs, exps, x):
    """Brute-force third partials of sum(c * prod(x_d ** e_d)) monomials."""
    k = len(x)
    tensor = np.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            for l in range(k):
                total = 0.0
                for c, e in zip(coeffs, exps):
                    e = list(e)
                    factor = 1.0
                    for axis in (i, j, l):
                        factor *= e[axis]
                        e[axis] -= 1
                    if factor == 0.0 or min(e) < 0:
                        continue
                    term = c * factor
                    for d in range(k):
                        term *= x[d] ** e[d]
                    total += term
                tensor[i, j, l] = total
    return tensor


def test_third_order_matches_symbolic_polynomial_oracle():
    rng = np.random.default_rng(21)
    coeffs = rng.uniform(-2, 2, 6)
    exps = [tuple(rng.integers(0, 4, 3)) for _ in range(6)]
    x = rng.uniform(0.5, 1.5, 3)

    def poly(v):
        total = 0.0
        for c, e in zip(coeffs, exps):
            term = c
            for d in range(3):
                term = term * v[d] ** int(e[d])
            total = total + term
        return total

    want = _poly_third_tensor(coeffs, exps, x)
    for chunks in (None, (1, 1, 1), (2, 1, 3), (3, 2, 1)):
        got = third_order_tensor(poly, x, chunks=chunks)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
    # symmetry under all index permutations
    got = third_order_tensor(poly, x)
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert got == pytest.approx(np.transpose(got, perm), rel=1e-10, abs=1e-10)


def test_third_order_dimension_cap():
    with pytest.raises(ValueError, match="batch"):
        third_order_tensor(lambda x: np.sum(x**3), np.ones(9))


# ----------------------------------------------------------------------
# IEEE error state: drivers evaluate out-of-domain points silently
# ----------------------------------------------------------------------


def _root_sum(v):
    return np.sum(np.sqrt(v))


_inf, _nan = math.inf, math.nan


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: derivative(log, 0.0), _inf),
        (lambda: second_derivative(sqrt, -1.0), _nan),
        (lambda: gradient(_root_sum, [0.0, 1.0, 4.0]).values, [_inf, _nan, _nan]),
        # pass 0 on the caller, then one block each for passes 1 and 2
        (lambda: gradient(_root_sum, [0.0, 1.0, 4.0], ChunkConfig(1, 2)).values, [_inf, _nan, _nan]),
        (
            lambda: jacobian(np.sqrt, [0.0, 1.0, 4.0], ChunkConfig(2)).entries,
            [[_inf, _nan, _nan], [0.0, 0.5, 0.0], [0.0, 0.0, 0.25]],
        ),
        (lambda: hessian(lambda v: np.sum(log(v)), [0.3, -0.7, 1.1]).entries, np.full((3, 3), _nan)),
        (lambda: hessian(lambda v: np.sum(1.0 / v), [0.0, 2.0]).entries, np.full((2, 2), _nan)),
        (lambda: third_order_tensor(_root_sum, [0.0, 1.0]), np.full((2, 2, 2), _nan)),
        (
            lambda: third_order_tensor(lambda v: np.sum(np.exp(v * v)), [30.0, 1.0], (1, 1, 1)),
            np.full((2, 2, 2), _nan),
        ),
    ],
    ids=[
        "derivative",
        "second_derivative",
        "gradient",
        "gradient_threads2",
        "jacobian",
        "hessian_log",
        "hessian_reciprocal",
        "third_order_sqrt",
        "third_order_overflow",
    ],
)
def test_drivers_never_warn_at_out_of_domain_points(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call()
    np.testing.assert_array_equal(got, want)


def test_worker_threads_never_warn_either():
    seen = []

    def sleepy_root_sum(v):
        time.sleep(0.002)  # releases the GIL, so the worker keeps its block
        seen.append((threading.get_ident(), np.geterr()))
        return _root_sum(v)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gradient(sleepy_root_sum, [0.0, 1.0, 4.0, 9.0], ChunkConfig(1, 2)).values
    np.testing.assert_array_equal(got, [_inf, _nan, _nan, _nan])
    assert {ident for ident, _ in seen} - {threading.get_ident()}
    assert all(set(err.values()) == {"ignore"} for _, err in seen)


def test_dual_arithmetic_outside_drivers_follows_numpy_error_state():
    zero = DualVector(np.zeros(2), np.eye(2))
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            1.0 / zero
    with np.errstate(all="ignore"):
        assert np.all(np.isinf((1.0 / zero).values))


# ----------------------------------------------------------------------
# object-array fallback: np.asarray on the input runs scalar Dual rules
# ----------------------------------------------------------------------


def _object_target(v):
    a = np.asarray(v)
    assert a.dtype == object
    return np.sum(np.sin(a) * a**2)


def _vector_target(v):
    return np.sum(np.sin(v) * v**2)


# k < 8, so numpy sums the float64 lanes in order, as the object loop does
_FALLBACK_X = np.array([0.3, -1.2, 2.5, 0.9, 1.7, -0.4])


@pytest.mark.parametrize("cfg", [ChunkConfig(), ChunkConfig(4), ChunkConfig(1, 2)])
def test_object_array_fallback_gradient_is_bitwise_equal(cfg):
    with pytest.warns(RuntimeWarning, match="object array of scalar duals"):
        slow = gradient(_object_target, _FALLBACK_X, cfg)
    fast = gradient(_vector_target, _FALLBACK_X, cfg)
    assert slow.values.tobytes() == fast.values.tobytes()
    assert slow.f_value == fast.f_value


def test_object_array_fallback_hessian_is_bitwise_equal():
    with pytest.warns(RuntimeWarning, match="object array of scalar duals"):
        slow = hessian(_object_target, _FALLBACK_X, 2, 3)
    fast = hessian(_vector_target, _FALLBACK_X, 2, 3)
    assert slow.entries.tobytes() == fast.entries.tobytes()
    assert slow.gradient.tobytes() == fast.gradient.tobytes()


# ----------------------------------------------------------------------
# threading
# ----------------------------------------------------------------------


def test_threaded_gradient_is_bitwise_equal():
    x = np.random.default_rng(31).uniform(-1, 1, 1000)
    serial = gradient(ackley, x, ChunkConfig(10)).values
    for threads in (2, 4):
        threaded = gradient_threaded(ackley, x, ChunkConfig(10, threads))
        assert np.array_equal(threaded.values, serial)
        assert threaded.f_value == gradient(ackley, x, ChunkConfig(10)).f_value


def test_threads_one_degenerates_to_serial():
    x = np.random.default_rng(32).uniform(-2, 2, 37)
    serial = gradient(rosenbrock, x, ChunkConfig(4))
    threaded = gradient_threaded(rosenbrock, x, ChunkConfig(4, 1))
    assert np.array_equal(threaded.values, serial.values)


def test_gradient_dispatches_on_thread_count():
    x = np.random.default_rng(33).uniform(-2, 2, 50)
    via_cfg = gradient(rosenbrock, x, ChunkConfig(5, threads=3))
    assert np.array_equal(via_cfg.values, gradient(rosenbrock, x, ChunkConfig(5)).values)


def test_threaded_pass_accounting():
    x = np.random.default_rng(34).uniform(-1, 1, 40)
    counted = EvalCounter(ackley)
    gradient_threaded(counted, x, ChunkConfig(4, 4))
    assert counted.count == 10


def test_threaded_worker_errors_propagate():
    def exploding(x):
        raise RuntimeError("boom in worker")

    with pytest.raises(RuntimeError, match="boom"):
        gradient_threaded(exploding, np.ones(8), ChunkConfig(2, 4))


def test_threaded_run_stops_at_the_first_failure():
    tickets = itertools.count(1)
    threads = 2

    def third_call_raises(x):
        time.sleep(0.002)
        if next(tickets) == 3:
            raise RuntimeError("third evaluation")
        return np.sum(x * x)

    counted = EvalCounter(third_call_raises)
    with pytest.raises(RuntimeError, match="third evaluation"):
        gradient(counted, np.ones(80), ChunkConfig(2, threads))
    # the raising pass, and at most one pass each thread had already begun
    assert counted.count <= 3 + threads


def _passes_per_thread(target, k, chunk, threads=2):
    """Run a threaded gradient; check it against serial; return the passes each thread ran."""
    idents = []

    def recorded(x):
        idents.append(threading.get_ident())
        return target(x)

    x = np.random.default_rng(36).uniform(-1, 1, k)
    counted = EvalCounter(recorded)
    threaded = gradient(counted, x, ChunkConfig(chunk, threads))
    assert counted.count == math.ceil(k / chunk)
    serial = gradient(target, x, ChunkConfig(chunk))
    assert threaded.values.tobytes() == serial.values.tobytes()
    assert threaded.f_value == serial.f_value
    caller = threading.get_ident()
    return idents.count(caller), len(idents) - idents.count(caller)


def test_passes_that_release_the_gil_fan_out():
    # 10 ms, not less: a stall of a few ms on a busy host (a wake-up delay,
    # a full garbage collection) must not push the worker's first passes
    # over their 2 x t(pass 0) budget
    def sleepy(x):
        time.sleep(0.01)
        return np.sum(x * x)

    on_caller, on_workers = _passes_per_thread(sleepy, 96, 4)
    assert on_workers >= (on_caller + on_workers) / 4


def test_passes_that_hold_the_gil_stay_on_the_caller():
    def spinning(x):
        end = time.perf_counter() + 0.001
        while time.perf_counter() < end:  # pure Python: the GIL is never released
            pass
        return np.sum(x * x)

    # a long switch interval keeps the worker off the GIL for far longer
    # than 2 x t(pass 0), even when a stall of a few ms lands in pass 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.05)
    try:
        _, on_workers = _passes_per_thread(spinning, 96, 1)
    finally:
        sys.setswitchinterval(interval)
    assert on_workers <= 2


def test_a_slow_pass_0_does_not_keep_a_worker_in_the_gil_convoy():
    calls = itertools.count()

    def slow_first_call(x):
        if next(calls) == 0:  # pass 0 only: the budget must not rest on it alone
            time.sleep(0.03)
        end = time.perf_counter() + 0.001
        while time.perf_counter() < end:  # pure Python: the GIL is never released
            pass
        return np.sum(x * x)

    # the worker waits a full switch interval for the GIL, far longer than
    # 2 x t(caller's pass 1) but less than 2 x t(pass 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.05)
    try:
        _, on_workers = _passes_per_thread(slow_first_call, 24, 1)
    finally:
        sys.setswitchinterval(interval)
    assert on_workers <= 2


def test_every_pass_runs_once_under_fast_thread_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k, chunk in ((200, 3), (97, 1)):
            _passes_per_thread(ackley, k, chunk, threads=8)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_passes, threads", [(1, 1), (1, 4), (2, 4), (7, 3), (10, 4), (9, 1)])
def test_workers_run_prefixes_of_array_split_blocks(n_passes, threads):
    by_thread = {}

    def run(p):
        time.sleep(0.002)  # releases the GIL, so workers start their blocks
        by_thread.setdefault(threading.get_ident(), []).append(p)

    dualgrad.drivers._run_passes(run, lambda: n_passes, threads)
    assert sorted(itertools.chain(*by_thread.values())) == list(range(n_passes))
    # passes 0 and 1 run on the caller, alone
    assert by_thread[threading.get_ident()][:2] == list(range(min(2, n_passes)))
    n_blocks = max(1, min(threads, n_passes - 2))
    blocks = [b.tolist() for b in np.array_split(range(2, n_passes), n_blocks)]
    workers = [ps for ident, ps in by_thread.items() if ident != threading.get_ident()]
    assert len(workers) <= len(blocks) - 1
    for ps in workers:  # a worker may hand its block's rest back to the caller
        assert any(ps == block[: len(ps)] for block in blocks[1:]), ps


def test_more_threads_than_passes():
    x = np.random.default_rng(35).uniform(-1, 1, 6)
    res = gradient_threaded(ackley, x, ChunkConfig(2, threads=16))
    assert np.array_equal(res.values, gradient(ackley, x, ChunkConfig(2)).values)


# ----------------------------------------------------------------------
# a scalar dual against a float array
# ----------------------------------------------------------------------

ARRAY = np.array([0.5, 1.5, -2.0, 4.0, 0.25])  # sums to 4.25 exactly
POINT = np.array([0.5, -1.25, 2.0, 3.0])
SUM = 4.25

# (target, closed-form gradient) at POINT; v.sum() has unit lanes
ARRAY_TARGETS = {
    "mul": (lambda v: np.sum(ARRAY * v.sum()), np.sum(ARRAY)),
    "rmul": (lambda v: np.sum(v.sum() * ARRAY), np.sum(ARRAY)),
    "mul-mean": (lambda v: np.sum(ARRAY * v.mean()), np.sum(ARRAY) / 4),
    "rmul-mean": (lambda v: np.sum(v.mean() * ARRAY), np.sum(ARRAY) / 4),
    "add": (lambda v: np.sum(ARRAY + v.sum()), 5.0),
    "radd": (lambda v: np.sum(v.sum() + ARRAY), 5.0),
    "sub": (lambda v: np.sum(ARRAY - v.sum()), -5.0),
    "rsub": (lambda v: np.sum(v.sum() - ARRAY), 5.0),
    "div": (lambda v: np.sum(ARRAY / v.sum()), -np.sum(ARRAY) / SUM**2),
    "rdiv": (lambda v: np.sum(v.sum() / ARRAY), np.sum(1.0 / ARRAY)),
}


@pytest.mark.parametrize("name", list(ARRAY_TARGETS))
def test_scalar_dual_against_a_float_array_matches_the_closed_form(name):
    f, want = ARRAY_TARGETS[name]
    np.testing.assert_allclose(gradient(f, POINT).values, np.full(4, want), rtol=1e-15)


def test_scalar_dual_against_a_float_array_is_chunk_invariant():
    c = np.linspace(-1.0, 2.0, 6)

    def f(v):
        grid = (c.reshape(2, 3) * v[3]).sum().sum()  # a 2-D array, lanes on both axes
        return np.sum(np.sin(c) * v.mean() + v[2] / c - (c - v[0] * v[1]) ** 2) + grid

    x = np.random.default_rng(7).uniform(-2.0, 2.0, 7)
    one = gradient(f, x, ChunkConfig(1)).values
    assert one.tobytes() == gradient(f, x, ChunkConfig(7)).values.tobytes()


# ----------------------------------------------------------------------
# boundary errors
# ----------------------------------------------------------------------


def test_gradient_rejects_a_2d_input():
    with pytest.raises(ValueError, match=r"input must be 1-D, got shape \(2, 2\)"):
        gradient(rosenbrock, np.ones((2, 2)))


def test_a_result_with_the_wrong_lane_count_is_an_error():
    with pytest.raises(ValueError, match=r"returned lanes of shape \(3,\), expected \(2,\)"):
        gradient(lambda v: Dual(1.0, (1.0, 2.0, 3.0)), np.ones(2))


def test_eval_counter_reset_starts_the_count_again():
    counted = EvalCounter(rosenbrock)
    gradient(counted, np.ones(6), ChunkConfig(2))
    assert counted.count == 3
    counted.reset()
    assert counted.count == 0
    gradient(counted, np.ones(6), ChunkConfig(4))
    assert counted.count == 2


# ----------------------------------------------------------------------
# randomized properties
# ----------------------------------------------------------------------


def test_property_chunk_invariance():
    checks.check_chunk_invariance(np.random.default_rng(201), k_max=20)


def test_property_pass_counts():
    checks.check_pass_counts(np.random.default_rng(202), k_max=20)


def test_property_gradient_oracles():
    checks.check_gradient_oracles(np.random.default_rng(203), points=10, k=30)


def test_property_hessian_symmetry():
    checks.check_hessian_symmetry(np.random.default_rng(204), points=5)


def test_property_hessian_vs_fd_gradient():
    checks.check_hessian_vs_fd_gradient(np.random.default_rng(205), points=3)


def test_property_thread_determinism():
    checks.check_thread_determinism(np.random.default_rng(206))


# ----------------------------------------------------------------------
# a scalar dual against a 0-d array: the array is its scalar
# ----------------------------------------------------------------------

TWO = np.array(2.0)


def test_scalar_duals_take_a_0d_array_as_a_scalar_in_both_orders():
    assert derivative(lambda x: x * TWO, 1.0) == 2.0
    assert derivative(lambda x: TWO * x, 1.0) == 2.0
    assert derivative(lambda x: TWO / x - x / np.array(4) + np.array(1) - x, 2.0) == -1.75
    assert second_derivative(lambda x: TWO * x * x, 1.0) == 4.0
    assert derivative(lambda x: x**TWO + np.power(x, TWO), 3.0) == 12.0
    for f in (lambda v: v.sum() * TWO, lambda v: TWO * v.sum(), lambda v: np.sum(v**TWO)):
        assert np.array_equal(gradient(f, np.ones(3)).values, [2.0, 2.0, 2.0])


def test_a_0d_array_against_a_scalar_dual_is_chunk_invariant():
    def f(v):
        s = v[0] * v[1] + np.sin(v[2])
        return (s * TWO - np.array(3.0) / s + s / np.array(0.5)) * (np.array(1.5) - v[3])

    x = np.random.default_rng(8).uniform(1.0, 2.0, 5)
    one = gradient(f, x, ChunkConfig(1)).values
    for chunk in (2, 3, 5):
        assert one.tobytes() == gradient(f, x, ChunkConfig(chunk)).values.tobytes()
