"""Dual-number core: construction, propagation rules, comparisons, rendering."""

import math

import numpy as np
import pytest

import checks
from dualgrad import (
    Dual,
    Partials,
    base_value,
    cos,
    derivative,
    exp,
    extract,
    gradient,
    hessian,
    log,
    second_derivative,
    seed_unit,
    sin,
    sqrt,
    square,
    tan,
    value_of,
)


def lanes(d):
    return tuple(float(p) for p in d.partials)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def test_make_dual_basic():
    d = Dual(3.0, [1.0, 0.0])
    assert d.value == 3.0
    assert lanes(d) == (1.0, 0.0)
    assert isinstance(d.partials, Partials)


def test_make_dual_accepts_any_lane_sequence():
    from_array = Dual(3.0, np.array([1.0, 0.0]))
    assert lanes(from_array) == (1.0, 0.0)
    from_tuple = Dual(3.0, (1.0, 0.0))
    assert lanes(from_tuple) == (1.0, 0.0)


def test_zero_dual_is_additive_identity():
    zero = Dual(0.0, [0.0, 0.0])
    d = Dual(3.5, [1.0, -2.0])
    s = d + zero
    assert s.value == d.value and lanes(s) == lanes(d)


def test_empty_partials_rejected():
    with pytest.raises(ValueError):
        Dual(1.0, [])


def test_mixed_width_arithmetic_rejected():
    a = Dual(1.0, [1.0, 0.0])
    b = Dual(1.0, [1.0, 0.0, 0.0])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()


def test_empty_array_partials_rejected_like_an_empty_list():
    with pytest.raises(ValueError, match="at least one lane"):
        Dual(1.0, np.empty(0))


def test_partials_keep_a_float64_row_and_tuple_anything_else():
    row = np.array([1.0, 2.0])
    assert Partials(row) is row
    assert Dual(3.0, row).partials is row
    for entries in ([1.0, 2.0], (1.0, 2.0), np.array([1, 2]), np.array([1.0, 2.0], np.float32)):
        assert type(Partials(entries)) is Partials


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([1.0]), np.array([1.0, 0.0, 0.0])),  # numpy alone would broadcast these
        (np.array([1.0, 0.0, 0.0]), np.array([1.0])),
        (np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        ((1.0, 0.0), np.array([1.0, 0.0, 0.0])),
        (np.array([1.0, 0.0, 0.0]), (1.0, 0.0)),
    ],
)
def test_mixed_width_arithmetic_rejected_for_array_lanes(a, b):
    x, y = Dual(1.5, a), Dual(2.0, b)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(ValueError, match="lane count mismatch"):
            op()


def test_tuple_and_array_lanes_of_one_width_combine():
    x, y = Dual(1.5, (1.0, 0.0)), Dual(2.0, np.array([0.0, 1.0]))
    for s in (x * y, y * x):
        assert s.value == 3.0 and lanes(s) == (2.0, 1.5)
    assert lanes(x - y) == (1.0, -1.0) and lanes(y - x) == (-1.0, 1.0)


def test_partials_are_value_semantic():
    p = Partials((1.0, 2.0))
    assert p + p == Partials((2.0, 4.0))
    assert 3.0 * p == Partials((3.0, 6.0))
    assert -p == Partials((-1.0, -2.0))
    with pytest.raises(ValueError):
        p + Partials((1.0,))


def test_nested_seed_renders_depth_and_lane_indices():
    d = Dual(Dual(1.0, (1.0,)), (Dual(1.0, (0.0,)),))
    assert repr(d) == "((1.0 + 1.0*ε[1,1]) + (1.0 + 0.0*ε[1,1])*ε[2,1])"


def test_seed_unit():
    assert lanes(seed_unit(5.0, 0, 2)) == (1.0, 0.0)
    assert lanes(seed_unit(5.0, 1, 2)) == (0.0, 1.0)
    assert seed_unit(5.0, 1, 2).value == 5.0
    with pytest.raises(IndexError):
        seed_unit(5.0, 2, 2)


def test_seeding_yields_partials_of_multivariate_function():
    # f(x) = x0*x1 + x2^2 + x3 evaluated on four orthogonally seeded inputs
    x = [1.5, -2.0, 3.0, 0.5]
    ds = [seed_unit(v, i, 4) for i, v in enumerate(x)]
    y = ds[0] * ds[1] + ds[2] ** 2 + ds[3]
    assert y.value == x[0] * x[1] + x[2] ** 2 + x[3]
    assert lanes(y) == (x[1], x[0], 2 * x[2], 1.0)


# ----------------------------------------------------------------------
# binary arithmetic
# ----------------------------------------------------------------------


def test_product_rule_on_independent_seeds():
    out = Dual(3.0, [1.0, 0.0]) * Dual(5.0, [0.0, 1.0])
    assert out.value == 15.0 and lanes(out) == (5.0, 3.0)


def test_addition_is_linear():
    out = Dual(2.0, [1.0]) + Dual(2.0, [1.0])
    assert out.value == 4.0 and lanes(out) == (2.0,)


def test_quotient_rule_against_central_differences():
    out = Dual(1.0, [1.0, 0.0]) / Dual(2.0, [0.0, 1.0])
    assert out.value == 0.5
    assert lanes(out) == (0.5, -0.25)
    # independent oracle: central differences of g(x, y) = x / y at (1, 2)
    h = 1e-6
    fd_x = ((1.0 + h) / 2.0 - (1.0 - h) / 2.0) / (2 * h)
    fd_y = (1.0 / (2.0 + h) - 1.0 / (2.0 - h)) / (2 * h)
    assert abs(out.partials[0] - fd_x) <= 1e-6
    assert abs(out.partials[1] - fd_y) <= 1e-6


def test_division_by_zero_value_follows_ieee():
    # outside a driver, dual arithmetic warns as numpy's error state says
    with pytest.warns(RuntimeWarning):
        inf = Dual(1.0, [1.0]) / Dual(0.0, [0.0])
    assert math.isinf(inf.value)
    with pytest.warns(RuntimeWarning):
        zero_over_zero = Dual(0.0, [1.0]) / Dual(0.0, [0.0])
    assert math.isnan(zero_over_zero.value)


def test_scalar_mixed_arithmetic():
    d = Dual(3.0, [1.0])
    assert (d * 2.0).value == 6.0 and lanes(d * 2.0) == (2.0,)
    assert (d + 1.0).value == 4.0 and lanes(d + 1.0) == (1.0,)
    r = 1.0 - Dual(0.25, [1.0])
    assert r.value == 0.75 and lanes(r) == (-1.0,)
    assert lanes(2.0 / Dual(2.0, [1.0])) == (-0.5,)
    npres = np.float64(2.0) * d
    assert isinstance(npres, Dual) and npres.value == 6.0


# ----------------------------------------------------------------------
# unary rules
# ----------------------------------------------------------------------


def test_sin_rule():
    out = sin(Dual(1.0, [1.0]))
    assert out.value == pytest.approx(0.8414709848078965, abs=0)
    assert out.partials[0] == pytest.approx(0.5403023058681398, abs=0)


def test_nested_sin_carries_exact_second_order_coefficients():
    d = Dual(Dual(1.0, (1.0,)), (Dual(1.0, (0.0,)),))
    out = sin(d)
    s1, c1 = math.sin(1.0), math.cos(1.0)
    assert out.value.value == s1
    assert float(out.value.partials[0]) == c1
    assert float(out.partials[0].value) == c1
    # the second-order coefficient is the exact float -sin(1.0)
    assert float(out.partials[0].partials[0]) == -0.8414709848078965


def test_negation():
    out = -Dual(2.0, [3.0])
    assert out.value == -2.0 and lanes(out) == (-3.0,)


def test_power_rule():
    out = Dual(3.0, [1.0]) ** 2
    assert out.value == 9.0 and lanes(out) == (6.0,)
    half = Dual(4.0, [1.0]) ** 0.5
    assert half.value == 2.0 and lanes(half) == (0.25,)
    assert lanes(Dual(2.0, [1.0]) ** 0) == (0.0,)
    assert (Dual(2.0, [1.0]) ** 0).value == 1.0
    ident = Dual(2.0, [1.0]) ** 1
    assert ident.value == 2.0 and lanes(ident) == (1.0,)


def test_power_edge_cases():
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert math.isinf((Dual(0.0, [1.0]) ** -1).value)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan((Dual(-2.0, [1.0]) ** 0.5).value)
    with pytest.raises(TypeError):
        Dual(2.0, [1.0]) ** Dual(2.0, [1.0])


def test_square_matches_pow_two():
    d = Dual(-1.7, [0.3, 2.0])
    assert square(d).value == (d**2).value
    assert lanes(square(d)) == lanes(d**2)


def test_power_composes_like_valley_term():
    # (x2 - x1^2)^2 built from the pow rule
    x1 = Dual(-1.2, [1.0, 0.0])
    x2 = Dual(1.0, [0.0, 1.0])
    term = (x2 - x1**2) ** 2
    inner = 1.0 - (-1.2) ** 2
    assert term.value == pytest.approx(inner**2, rel=1e-15)
    assert term.partials[0] == pytest.approx(2 * inner * (-2 * -1.2), rel=1e-15)
    assert term.partials[1] == pytest.approx(2 * inner, rel=1e-15)


@pytest.mark.parametrize(
    "fn,x,dval,dcoeff",
    [
        (sin, 1.0, math.sin(1.0), math.cos(1.0)),
        (cos, 1.0, math.cos(1.0), -math.sin(1.0)),
        (tan, 0.7, math.tan(0.7), 1.0 / math.cos(0.7) ** 2),
        (exp, 0.3, math.exp(0.3), math.exp(0.3)),
        (log, 2.0, math.log(2.0), 0.5),
        (sqrt, 4.0, 2.0, 0.25),
    ],
)
def test_unary_rule_values(fn, x, dval, dcoeff):
    out = fn(Dual(x, [1.0]))
    assert out.value == pytest.approx(dval, rel=1e-15)
    assert out.partials[0] == pytest.approx(dcoeff, rel=1e-12)


def test_domain_violations_propagate_nan():
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        bad_log = log(Dual(-1.0, [1.0]))
    assert math.isnan(bad_log.value) and math.isnan(bad_log.partials[0])
    with pytest.warns(RuntimeWarning, match="invalid value encountered in sqrt"):
        bad_sqrt = sqrt(Dual(-1.0, [1.0]))
    assert math.isnan(bad_sqrt.value) and math.isnan(bad_sqrt.partials[0])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        at_zero = sqrt(Dual(0.0, [1.0]))
    assert at_zero.value == 0.0 and math.isinf(at_zero.partials[0])


def test_abs_rule_and_zero_convention():
    pos = abs(Dual(2.0, [3.0]))
    assert pos.value == 2.0 and lanes(pos) == (3.0,)
    neg = abs(Dual(-2.0, [3.0]))
    assert neg.value == 2.0 and lanes(neg) == (-3.0,)
    kink = abs(Dual(0.0, [3.0]))
    assert kink.value == 0.0 and lanes(kink) == (0.0,)


# ----------------------------------------------------------------------
# scalar duals run the DualVector rule bodies, so their edge results are
# the vector path's, bit for bit
# ----------------------------------------------------------------------


def _bits(x):
    return np.float64(x).tobytes()


def test_sqrt_below_zero_gives_the_vector_paths_nan():
    at = [-2.0]
    grad = gradient(lambda x: np.sum(np.sqrt(x)), at).values[0]
    hess = hessian(lambda x: np.sum(np.sqrt(x)), at).entries[0, 0]
    assert math.isnan(derivative(sqrt, -2.0)) and math.isnan(grad)
    assert _bits(derivative(sqrt, -2.0)) == _bits(grad)
    assert _bits(second_derivative(sqrt, -2.0)) == _bits(hess)


def test_nested_abs_below_zero_has_a_positive_zero_second_derivative():
    got = second_derivative(abs, -2.0)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert _bits(got) == _bits(hessian(lambda x: np.sum(np.abs(x)), [-2.0]).entries[0, 0])


def test_abs_value_is_a_numpy_float():
    assert type(abs(Dual(-2.0, [3.0])).value) is np.float64


def test_integer_values_are_raised_as_floats():
    # np.power on Python ints would refuse negative exponents and wrap in int64
    assert (Dual(2, [1.0]) ** -1).value == 0.5
    big = Dual(10, [1.0]) ** 30
    assert big.value == 1e30 and lanes(big) == (3e30,)
    assert derivative(lambda x: x**-2, 2) == -0.25


# ----------------------------------------------------------------------
# comparisons and branching code
# ----------------------------------------------------------------------


def test_comparisons_use_value_only():
    assert Dual(1.0, [9.0]) < Dual(2.0, [0.0])
    assert Dual(1.0, [9.0]) == Dual(1.0, [0.0])
    assert Dual(1.0, [9.0]) <= 1.0
    assert Dual(3.0, [0.0]) > 2.5
    assert Dual(1.0, [1.0]) != 2.0


def test_newton_iteration_runs_on_duals():
    # user-style root finder with a convergence branch on abs()
    def newton_sqrt(x):
        z = x
        while abs(z * z - x) > 1e-13:
            z = z - (z * z - x) / (2 * z)
        return z

    for v in (2.0, 9.0, 0.25):
        out = newton_sqrt(Dual(v, [1.0]))
        assert out.value == pytest.approx(math.sqrt(v), rel=1e-13)
        assert out.partials[0] == pytest.approx(0.5 / math.sqrt(v), rel=1e-9)


# ----------------------------------------------------------------------
# extraction and rendering
# ----------------------------------------------------------------------


def test_extract_projects_components():
    d = Dual(7.0, [1.0, 2.0])
    value, partials = extract(d)
    assert value == 7.0 and tuple(partials) == (1.0, 2.0)
    assert d.partial(1) == 2.0
    with pytest.raises(IndexError):
        d.partial(2)
    assert value_of(d) == 7.0
    assert value_of(1.5) == 1.5
    assert base_value(Dual(Dual(3.0, (1.0,)), (1.0,))) == 3.0


def test_extract_rejects_what_is_not_a_dual():
    with pytest.raises(TypeError, match="expected a Dual, got float"):
        extract(1.5)


def test_bool_reads_the_base_value():
    assert Dual(2.0, [0.0]) and not Dual(0.0, [1.0])
    assert Dual(Dual(-1.0, (0.0,)), (0.0,)) and not Dual(Dual(0.0, (1.0,)), (1.0,))


def test_extract_inverts_seed_unit():
    d = seed_unit(4.0, 1, 3)
    value, partials = extract(d)
    assert value == 4.0 and tuple(partials) == (0.0, 1.0, 0.0)


def test_repr_folds_negative_coefficients():
    assert repr(Dual(0.5, [-0.25])) == "(0.5 - 0.25*ε[1,1])"
    assert repr(Dual(1.5, [2.0, -3.0])) == "(1.5 + 2.0*ε[1,1] - 3.0*ε[1,2])"


# ----------------------------------------------------------------------
# numpy interop
# ----------------------------------------------------------------------


def test_numpy_ufuncs_dispatch_to_rules():
    d = Dual(0.5, [1.0])
    assert np.sin(d).value == math.sin(0.5)
    assert np.add(d, 2.0).value == 2.5
    assert np.multiply(2.0, d).partials[0] == 2.0
    assert np.abs(Dual(-1.0, [1.0])).value == 1.0
    assert bool(np.less(d, 1.0))


def test_numpy_compares_a_dual_with_an_array_as_the_operators_do():
    d, arr = Dual(1.5, [1.0]), np.array([1.0, 2.0])
    assert (d < arr).tolist() == np.less(d, arr).tolist() == [False, True]
    assert (arr < d).tolist() == np.greater(d, arr).tolist() == [True, False]
    assert (d == arr).tolist() == (arr == d).tolist() == np.equal(d, arr).tolist() == [False, False]
    assert (d != arr).tolist() == (arr != d).tolist() == [True, True]
    assert np.equal(arr, Dual(2.0, [0.0])).tolist() == [False, True]
    both = arr + d  # a scalar dual joins every component of a float array
    assert both.values.tolist() == [2.5, 3.5] and both.partials.tolist() == [[1.0, 1.0]]


def test_object_array_of_duals_computes_elementwise():
    arr = np.array([Dual(1.0, [1.0]), Dual(2.0, [1.0])], dtype=object)
    out = np.cos(arr * 2.0)
    assert out[0].value == pytest.approx(math.cos(2.0), rel=1e-15)
    total = np.sum(arr**2)
    assert total.value == 5.0 and total.partials[0] == 6.0


# ----------------------------------------------------------------------
# randomized properties
# ----------------------------------------------------------------------


def test_property_constants_stay_constant():
    checks.check_constants_stay_constant(np.random.default_rng(101), 1000)


def test_property_linearity():
    checks.check_linearity(np.random.default_rng(102), 1000)


def test_property_chain_rule():
    checks.check_chain_rule(np.random.default_rng(103), 1000)


def test_property_product_quotient():
    checks.check_product_quotient(np.random.default_rng(104), 1000)


def test_property_second_derivative_exact():
    checks.check_second_derivative_exact(np.random.default_rng(105), 1000)


def test_property_fd_agreement():
    checks.check_fd_agreement_unary(np.random.default_rng(106), 100)


def test_property_lane_independence():
    checks.check_lane_independence(np.random.default_rng(107), 1000)
