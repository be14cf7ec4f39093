"""DualVector: batched duals must agree with scalar duals and plain numpy."""

import math

import numpy as np
import pytest

from checks import UNARY_RULES
import dualgrad
from dualgrad import Dual, DualVector, NestedDualVector, Partials, base_value, seed_unit, value_of
from dualgrad.dual import _RULES


def seeded(values, n=None):
    values = np.asarray(values, dtype=np.float64)
    k = values.shape[0]
    n = k if n is None else n
    lanes = np.zeros((n, k))
    for j in range(min(n, k)):
        lanes[j, j] = 1.0
    return DualVector(values, lanes)


def test_constructor_validates_shapes():
    with pytest.raises(ValueError):
        DualVector(np.zeros((2, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        DualVector(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        DualVector(np.zeros(3), np.zeros((2, 4)))


def test_sequence_protocol_yields_scalar_duals():
    dv = seeded([1.0, 2.0, 3.0])
    assert len(dv) == 3
    d1 = dv[1]
    assert isinstance(d1, Dual) and d1.value == 2.0
    assert tuple(d1.partials) == (0.0, 1.0, 0.0)
    assert [d.value for d in dv] == [1.0, 2.0, 3.0]
    tail = dv[1:]
    assert isinstance(tail, DualVector) and len(tail) == 2
    assert tail.partials.shape == (3, 2)


def test_lane_count_mismatch_rejected():
    a = seeded([1.0, 2.0], n=2)
    b = DualVector(np.array([1.0, 2.0]), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * Dual(1.0, (1.0, 1.0, 1.0))


def test_matches_scalar_duals_on_mixed_expression():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 2.0, size=6)
    dv = seeded(x)
    expr_vec = np.sum(100.0 * (dv[1:] - dv[:-1] ** 2) ** 2 + (1.0 - dv[:-1]) ** 2)

    ds = [seed_unit(float(v), i, 6) for i, v in enumerate(x)]
    expr_scalar = sum(
        100.0 * (ds[i + 1] - ds[i] ** 2) ** 2 + (1.0 - ds[i]) ** 2 for i in range(5)
    )
    assert expr_vec.value == pytest.approx(expr_scalar.value, rel=1e-14)
    for a, b in zip(expr_vec.partials, expr_scalar.partials):
        assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["sin", "cos", "tan", "exp", "sqrt", "square"])
def test_unary_rules_match_scalar(name):
    """The vector rules against the scalar closed forms of ``checks.UNARY_RULES``.

    Not against scalar ``Dual``: it runs the very same rule bodies.
    """
    _, rule, deriv, sample = next(r for r in UNARY_RULES if r[0] == name)
    rng = np.random.default_rng(1)
    x = np.array([sample(rng) for _ in range(5)])
    dv = rule(seeded(x))
    for i in range(5):
        assert dv.values[i] == rule(x[i])
        assert dv.partials[i, i] == deriv(x[i])
        assert np.count_nonzero(dv.partials[:, i]) == 1


def test_log_rule_matches_scalar_and_guards_domain():
    x = np.array([2.0, -1.0, 0.0])
    with pytest.warns(RuntimeWarning):  # outside a driver: numpy's error state
        out = np.log(seeded(x))
    assert out.values[0] == math.log(2.0) and out.partials[0, 0] == 0.5
    assert math.isnan(out.values[1]) and math.isnan(out.partials[1, 1])
    assert math.isinf(out.values[2]) and math.isinf(out.partials[2, 2])


def test_abs_sign_convention():
    out = abs(seeded([-2.0, 0.0, 3.0]))
    assert out.values.tolist() == [2.0, 0.0, 3.0]
    assert out.partials[0, 0] == -1.0
    assert out.partials[1, 1] == 0.0
    assert out.partials[2, 2] == 1.0


def test_division_by_zero_propagates():
    num = seeded([1.0, 0.0])
    den = DualVector(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.warns(RuntimeWarning):  # outside a driver: numpy's error state
        out = num / den
    assert math.isinf(out.values[0]) and math.isnan(out.values[1])


def test_constants_share_lane_storage():
    dv = seeded([1.0, 2.0])
    shifted = dv + 1.0
    assert shifted.partials is dv.partials  # constants cannot change lanes
    scaled = dv * 2.0
    assert scaled.partials is not dv.partials


def test_operations_never_mutate_operands():
    dv = seeded([1.0, 2.0, 3.0])
    before_v = dv.values.copy()
    before_p = dv.partials.copy()
    _ = ((dv * 2.0 + 1.0) ** 2 / (dv + 3.0)).sum()
    _ = np.cos(dv).sum()
    assert np.array_equal(dv.values, before_v)
    assert np.array_equal(dv.partials, before_p)


def test_reductions_return_scalar_duals():
    dv = seeded([1.0, 2.0, 3.0])
    total = dv.sum()
    assert isinstance(total, Dual) and total.value == 6.0
    assert tuple(total.partials) == (1.0, 1.0, 1.0)
    mean = np.mean(dv)
    assert mean.value == 2.0 and tuple(mean.partials) == pytest.approx((1 / 3,) * 3)
    assert np.sum(dv).value == 6.0
    with pytest.raises(ValueError):
        dv.sum(axis=0)


def _reduced(v, j):
    """v's full reductions and two indexes, and the lane rows a dense block
    gives them: the entries their lanes held as a tuple."""
    full = np.asarray(v.partials)
    rows = (full.sum(axis=-1), full.sum(axis=-1) / full.shape[-1], full[:, j], full[:, -1])
    return [v.sum(), v.mean(), v[j], v[-1]], rows


def _assert_float64_rows(duals, rows):
    for d, row in zip(duals, rows, strict=True):
        assert type(d) is Dual
        assert type(d.partials) is np.ndarray and d.partials.dtype == np.float64
        assert d.partials.tobytes() == row.tobytes()
        assert tuple(d.partials) == tuple(row)


def test_full_reductions_and_indexes_keep_float64_lane_rows():
    dv = DualVector(np.linspace(0.5, 2.0, 6), np.random.default_rng(4).normal(size=(4, 6)))
    _assert_float64_rows(*_reduced(dv, 2))
    _assert_float64_rows(*_reduced(seeded([1.0, 2.0, 3.0]), 1))


def test_band_window_reductions_and_indexes_keep_float64_lane_rows():
    from dualgrad import pool

    bands = []

    def f(v):
        lanes = v.partials
        if type(lanes) is pool._Window and lanes.skew:  # a pass after pass 0
            j = lanes.lo + 3
            bands.append((v, j, [v.sum(), v.mean(), v[j], v[-1]]))
        return np.sum(v * v)

    dualgrad.gradient(f, np.linspace(-1.0, 1.0, 3000))
    assert bands
    for v, j, got in bands:
        _assert_float64_rows(got, _reduced(v, j)[1])


def test_default_gradient_builds_no_partials_tuple(monkeypatch):
    built = []
    new = Partials.__new__

    def recorded(cls, entries):
        out = new(cls, entries)
        built.append(out)
        return out

    monkeypatch.setattr(Partials, "__new__", staticmethod(recorded))
    dualgrad.gradient(dualgrad.ackley, np.random.default_rng(1).uniform(-1.0, 1.0, 1000))
    assert built
    assert not [p for p in built if isinstance(p, tuple)]


def test_scalar_dual_broadcasts_against_vector():
    dv = seeded([1.0, 2.0])
    total = dv.sum()  # lanes (1, 1)
    out = dv * total
    # d(x_i * (x_0+x_1))/dx_j = delta_ij * s + x_i
    s = 3.0
    assert out.values.tolist() == [3.0, 6.0]
    assert out.partials[0, 0] == s + 1.0
    assert out.partials[1, 0] == 1.0
    assert out.partials[0, 1] == 2.0
    assert out.partials[1, 1] == s + 2.0


def test_numpy_ufunc_interop():
    dv = seeded([0.5, 1.0])
    assert isinstance(np.sin(dv), DualVector)
    arr = np.array([1.0, 2.0])
    left = arr + dv
    right = dv + arr
    assert np.array_equal(left.values, right.values)
    prod = np.multiply(arr, dv)
    assert prod.values.tolist() == [0.5, 2.0]
    ratio = arr / dv
    assert ratio.values.tolist() == [2.0, 2.0]
    assert (np.less(dv, 0.75)).tolist() == [True, False]
    with pytest.raises(TypeError):
        np.power(2.0, dv)


def test_object_mode_carries_nested_duals():
    inner = [Dual(1.0, (1.0, 0.0)), Dual(2.0, (0.0, 1.0))]
    values = np.array(inner, dtype=object)
    lanes = np.zeros((2, 2), dtype=object)
    lanes[0, 0] = 1.0
    lanes[1, 1] = 1.0
    dv = DualVector(values, lanes)
    out = (dv**2).sum()  # f = x0^2 + x1^2 over nested duals
    assert float(out.value.value) == 5.0
    # outer lanes hold the inner duals d f / d x_i = 2 x_i
    assert float(out.partials[0].value) == 2.0
    assert float(out.partials[1].value) == 4.0
    # and their inner lanes hold the diagonal second derivatives
    assert float(out.partials[0].partials[0]) == 2.0
    assert float(out.partials[1].partials[1]) == 2.0


def test_powers_and_edge_exponents():
    dv = seeded([2.0, 4.0])
    assert (dv**0).values.tolist() == [1.0, 1.0]
    assert (dv**1) is dv
    sq = dv**2
    assert sq.values.tolist() == [4.0, 16.0]
    assert sq.partials[0, 0] == 4.0
    half = dv**0.5
    assert half.partials[1, 1] == 0.25
    d = Dual(1.0, (1.0, 0.0))
    for base, exponent in ((dv, d), (d, dv), (dv, dv)):
        with pytest.raises(TypeError, match="dual exponents are not supported"):
            base**exponent


SHARED_RULES = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__neg__", "__pos__", "__pow__", "__rpow__", "__abs__", "sign",
    "sin", "cos", "tan", "exp", "log", "sqrt", "square",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__array_ufunc__",
]


def test_scalar_and_vector_duals_share_every_rule_function():
    assert sorted(_RULES) == sorted(SHARED_RULES)
    for name in SHARED_RULES:
        assert DualVector.__dict__[name] is Dual.__dict__[name], name


# ----------------------------------------------------------------------
# component shapes of any rank, and the nested vector
# ----------------------------------------------------------------------


def test_lane_blocks_of_different_rank_align_after_the_lane_axis():
    rng = np.random.default_rng(2)
    wide = DualVector(rng.uniform(1, 2, (3, 5)), rng.uniform(-1, 1, (2, 3, 5)))
    flat = DualVector(rng.uniform(1, 2, 5), rng.uniform(-1, 1, (2, 5)))
    for out in (wide * flat, flat * wide):
        assert out.shape == (3, 5) and out.partials.shape == (2, 3, 5)
        for r in range(3):
            row = DualVector(wide.values[r], wide.partials[:, r])
            want = row * flat
            assert np.array_equal(out.values[r], want.values)
            assert np.array_equal(out.partials[:, r], want.partials)


def test_reductions_collapse_the_last_component_axis():
    dv = DualVector(np.arange(6.0).reshape(2, 3), np.ones((4, 2, 3)))
    total = dv.sum()
    assert isinstance(total, DualVector) and total.shape == (2,)
    assert total.values.tolist() == [3.0, 12.0]
    assert total.partials.shape == (4, 2)
    assert isinstance(total.sum(), Dual)
    assert isinstance(dv[0], DualVector) and dv[0].shape == (3,)


def nested_seeded(x):
    """x with unit lanes at both levels: NestedDualVector and scalar-Dual forms."""
    k = len(x)
    eye = np.eye(k)
    nested = NestedDualVector(DualVector(x, eye), DualVector(eye, np.zeros((k, k, k))))
    scalars = [
        Dual(Dual(float(x[i]), eye[i]), [Dual(eye[j, i], np.zeros(k)) for j in range(k)])
        for i in range(k)
    ]
    return nested, scalars


def same_as_scalar(nested, scalar):
    """Every channel of a nested scalar equals that of a nested scalar Dual."""
    assert isinstance(nested, NestedDualVector) and nested.shape == ()
    assert nested.values.value == scalar.value.value
    assert tuple(nested.values.partials) == tuple(scalar.value.partials)
    assert nested.partials.values.tolist() == [p.value for p in scalar.partials]
    second = [[p.partials[m] for p in scalar.partials] for m in range(len(scalar.partials))]
    assert nested.partials.partials.tolist() == second


UNARY = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "square": np.square, "abs": abs, "neg": lambda a: -a,
    "cube": lambda a: a**3, "root": lambda a: a**0.5, "rdiv": lambda a: 2.0 / a,
    "affine": lambda a: 1.0 - 3.0 * a,
}
BINARY = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_nested_vector_unary_rules_match_nested_scalar_duals(name):
    rule = UNARY[name]
    nested, scalars = nested_seeded(np.array([0.4, 1.3, 0.7]))
    out = rule(nested)
    for i, d in enumerate(scalars):
        same_as_scalar(out[i], rule(d))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_nested_vector_binary_rules_match_nested_scalar_duals(name):
    rule = BINARY[name]
    nested, scalars = nested_seeded(np.array([0.4, 1.3, 0.7]))
    left, right = rule(nested, nested[1]), rule(nested[1], nested)
    both = rule(nested, nested[::-1])
    for i, d in enumerate(scalars):
        same_as_scalar(left[i], rule(d, scalars[1]))
        same_as_scalar(right[i], rule(scalars[1], d))
        same_as_scalar(both[i], rule(d, scalars[2 - i]))


def test_nested_reductions_and_indexing_give_nested_scalars():
    nested, scalars = nested_seeded(np.array([0.4, 1.3, 0.7]))
    same_as_scalar(nested[1], scalars[1])
    same_as_scalar(nested.sum(), sum(scalars[1:], scalars[0]))
    centred = np.sum((nested - nested.mean()) ** 2)
    want = 2.0 * (np.eye(3) - 1.0 / 3.0)
    assert np.max(np.abs(centred.partials.partials - want)) <= 1e-15


def test_value_readers_walk_every_dual_kind():
    dv = seeded([0.5, 1.5])
    assert value_of(dv) is dv.values and base_value(dv) is dv.values
    nested, _ = nested_seeded(np.array([0.5, 1.5, 0.25]))
    assert value_of(nested) is nested.values
    base = base_value(nested)
    assert base.dtype == np.float64 and base.tolist() == [0.5, 1.5, 0.25]
    assert base_value(nested[1]) == 1.5 and base_value(nested.sum()) == 2.25


def test_nested_comparisons_read_the_base_values():
    nested, scalars = nested_seeded(np.array([0.4, 1.3, 0.7]))
    assert (nested < 1.0).tolist() == [True, False, True]
    assert (nested == nested[::-1]).tolist() == [False, True, False]
    assert (nested[1] > nested[0]) and (nested[2] >= scalars[2]) and nested[0] != 0.5


def test_generic_functions_are_numpy_ufuncs():
    for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "square"):
        assert getattr(dualgrad, name) is getattr(np, name), name


def test_nested_vector_holds_the_dual_rule_functions():
    for name in _RULES:
        assert vars(DualVector)[name] is vars(Dual)[name], name
        assert vars(NestedDualVector)[name] is vars(Dual)[name], name


def test_operands_of_different_nesting_depth_raise_type_error():
    nested, scalars = nested_seeded(np.array([1.0, 2.0]))
    with pytest.raises(TypeError, match="different nesting depth"):
        seeded([1.0, 2.0]) + nested
    with pytest.raises(TypeError, match="different nesting depth"):
        nested * scalars[0]


def test_arrays_of_higher_rank_than_the_vector_raise_type_error():
    with pytest.raises(TypeError, match=r"with an array of shape \(2, 2\)"):
        seeded([1.0, 2.0]) * np.ones((2, 2))
    nested, _ = nested_seeded(np.array([1.0, 2.0]))
    with pytest.raises(TypeError, match=r"NestedDualVector\(shape=\(\), lanes=2\)"):
        np.arange(3.0) * nested.mean()  # a nested scalar is not lifted to the array's shape


def test_mean_reduces_only_the_last_component_axis():
    with pytest.raises(ValueError, match="axis/out unsupported"):
        seeded([1.0, 2.0]).mean(axis=0)
