"""An independent oracle for every differentiable rule: sympy derivatives at 50 digits.

Each rule of ``dual._RULES`` that has a derivative is written once as a
sympy expression and once as the numeric code it stands for.  Orders 1
and 2 come from four sources: ``derivative`` and ``second_derivative``;
``gradient`` at the default chunk (one band pass at ``K_BAND``) and at
chunk 3; and ``hessian`` at the default (band passes at ``K_HESS``) and
at (3, 2).  The reference is the sympy derivative evaluated by mpmath at
50 digits, and a result may differ from it by ``ULPS`` units in the last
place of its condition number: the expression evaluated with every term
of every sum taken by magnitude, so a derivative that cancels to zero
still allows the rounding of its terms.

Vector targets sum the rule over components: ``np.sum(rule(v))`` for a
rule of one operand, ``np.sum(rule(v[:-1], v[1:]))`` for a rule of two
duals, whose derivatives are assembled from the partials of rule(a, b).
A scalar target gets the second dual as ``2 * t``, which is exact.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from dualgrad import ChunkConfig, EvalCounter, default_chunk, derivative, gradient, hessian, second_derivative
from dualgrad.dual import _RULES

ULPS = 4
EPS = np.finfo(np.float64).eps
K_BAND, K_HESS, K_SMALL = 300, 40, 7  # a one-pass band gradient, band Hessian passes, chunks 3 and (3, 2)
C = 0.3  # not a dyadic rational, so a constant operand rounds
a, b = sp.symbols("a b", real=True)
_C = sp.Rational(C)  # the double nearest 0.3, exactly

# name: (numeric rule, sympy expression, domain); a rule of two duals uses b
CASES = {
    "add-const": (lambda u: u + C, a + _C, "real"),
    "radd-const": (lambda u: C + u, _C + a, "real"),
    "sub-const": (lambda u: u - C, a - _C, "real"),
    "rsub-const": (lambda u: C - u, _C - a, "real"),
    "mul-const": (lambda u: u * C, a * _C, "real"),
    "rmul-const": (lambda u: C * u, _C * a, "real"),
    "div-const": (lambda u: u / C, a / _C, "real"),
    "rdiv-const": (lambda u: C / u, _C / a, "real"),
    "add-dual": (lambda u, w: u + w, a + b, "real"),
    "sub-dual": (lambda u, w: u - w, a - b, "real"),
    "mul-dual": (lambda u, w: u * w, a * b, "real"),
    "div-dual": (lambda u, w: u / w, a / b, "real"),
    "neg": (lambda u: -u, -a, "real"),
    "pos": (lambda u: +u, a, "real"),
    "pow-0": (lambda u: u**0, a**0, "real"),
    "pow-1": (lambda u: u**1, a**1, "real"),
    "pow-2": (lambda u: u**2, a**2, "real"),
    "pow-0.5": (lambda u: u**0.5, a ** sp.Rational(1, 2), "positive"),
    "pow-3": (lambda u: u**3, a**3, "real"),
    "pow--1.5": (lambda u: u**-1.5, a ** sp.Rational(-3, 2), "positive"),
    "abs": (abs, sp.Abs(a), "real"),
    "sign": (np.sign, sp.sign(a), "real"),
    "sin": (np.sin, sp.sin(a), "real"),
    "cos": (np.cos, sp.cos(a), "real"),
    "tan": (np.tan, sp.tan(a), "real"),
    "exp": (np.exp, sp.exp(a), "real"),
    "log": (np.log, sp.log(a), "positive"),
    "sqrt": (np.sqrt, sp.sqrt(a), "positive"),
    "square": (np.square, a**2, "real"),
}
# every rule with a derivative, by the dual method that implements it
COVERS = {
    "__add__": "add-const",
    "__radd__": "radd-const",
    "__sub__": "sub-dual",
    "__rsub__": "rsub-const",
    "__mul__": "mul-dual",
    "__rmul__": "rmul-const",
    "__truediv__": "div-dual",
    "__rtruediv__": "rdiv-const",
    "__neg__": "neg",
    "__pos__": "pos",
    "__pow__": "pow--1.5",
    "__abs__": "abs",
    **{name: name for name in ("sign", "sin", "cos", "tan", "exp", "log", "sqrt", "square")},
}


def _point(domain, k, seed):
    """Seeded components: in (0.25, 2) for a positive domain, else +-(0.1, 1.4), clear of
    sign's and abs's kink at 0 and of tan's poles."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.25, 2.0, k) if domain == "positive" else rng.uniform(0.1, 1.4, k)
    return x if domain == "positive" else x * rng.choice([-1.0, 1.0], k)


def _magnitude(e):
    """e with every sum taken over the magnitudes of its terms: the scale of its rounding."""
    if e.is_Symbol or e.is_Number:
        return sp.Abs(e)
    if e.is_Add or e.is_Mul:
        return e.func(*[_magnitude(t) for t in e.args])
    if e.is_Pow and e.exp.is_Number and e.exp > 0:
        return _magnitude(e.base) ** e.exp
    return sp.Abs(e)


@functools.lru_cache(maxsize=None)
def _partials(name):
    """{derivative orders: (value, magnitude)} of a case's rule as mpmath functions of (a, b)."""
    expr = CASES[name][1]
    orders = {(): expr}
    for wrt in ((a,), (b,), (a, a), (a, b), (b, b)):
        orders[wrt] = sp.diff(orders[wrt[:-1]], wrt[-1])
    out = {}
    for wrt, e in orders.items():
        e = e.replace(sp.DiracDelta, lambda *args: sp.S.Zero)  # no point sits on a kink
        out[wrt] = tuple(sp.lambdify((a, b), f, modules="mpmath") for f in (e, _magnitude(e)))
    return out


def _reference(name, terms):
    """(value, magnitude) of a sum of terms (weight, derivative orders, a, b), at 50 digits."""
    parts = _partials(name)
    with mpmath.workdps(50):
        value = magnitude = mpmath.mpf(0)
        for weight, wrt, u, w in terms:
            f, m = parts[wrt]
            value += weight * f(mpmath.mpf(u), mpmath.mpf(w))
            magnitude += abs(weight) * m(mpmath.mpf(u), mpmath.mpf(w))
        return value, magnitude


def _check(got, want, label):
    """Every entry of got within ULPS * EPS of want's magnitudes; want is a (value, magnitude) array."""
    got = np.asarray(got, dtype=np.float64)
    for index in np.ndindex(got.shape):
        value, magnitude = want[index]
        error = abs(mpmath.mpf(float(got[index])) - value)
        assert error <= ULPS * EPS * magnitude, f"{label}{list(index)}: {got[index]!r} vs {value}"


def _binary(name):
    return b in CASES[name][1].free_symbols


def _vector_target(name):
    rule = CASES[name][0]
    return (lambda v: np.sum(rule(v[:-1], v[1:]))) if _binary(name) else (lambda v: np.sum(rule(v)))


def _terms(x, i, as_a, as_b):
    """Component i's terms in sum(rule(v[:-1], v[1:])): operand a of pair i, operand b of pair i - 1."""
    first = [(1, as_a, x[i], x[i + 1])] if i < len(x) - 1 else []
    return first + ([(1, as_b, x[i - 1], x[i])] if i else [])


def _gradient_reference(name, x):
    """Order 1 of the vector target at x, entry by entry."""
    if not _binary(name):
        return _as_array([_reference(name, [(1, (a,), xi, 0)]) for xi in x])
    return _as_array([_reference(name, _terms(x, i, (a,), (b,))) for i in range(len(x))])


def _hessian_reference(name, x):
    """Order 2 of the vector target at x: diagonal, and the band next to it for two duals."""
    k, zero = len(x), (mpmath.mpf(0), mpmath.mpf(0))
    want = np.empty((k, k), dtype=object)
    for i, j in np.ndindex(k, k):
        want[i, j] = zero
    for i in range(k):
        if not _binary(name):
            want[i, i] = _reference(name, [(1, (a, a), x[i], 0)])
            continue
        want[i, i] = _reference(name, _terms(x, i, (a, a), (b, b)))
        if i < k - 1:
            want[i, i + 1] = want[i + 1, i] = _reference(name, [(1, (a, b), x[i], x[i + 1])])
    return want


def _as_array(entries):
    """A 1-D object array of (value, magnitude) pairs, which ``_check`` indexes."""
    want = np.empty(len(entries), dtype=object)
    for i, entry in enumerate(entries):
        want[i] = entry
    return want


def test_every_differentiable_rule_has_a_case():
    comparisons = {f"__{op}__" for op in ("lt", "le", "gt", "ge", "eq", "ne")}
    # __rpow__ returns NotImplemented; __array_ufunc__ dispatches to the others
    differentiable = [r for r in _RULES if r not in comparisons | {"__rpow__", "__array_ufunc__"}]
    assert sorted(COVERS) == sorted(differentiable)
    assert set(COVERS.values()) <= set(CASES)


def test_the_default_calls_run_band_passes():
    counted = EvalCounter(lambda v: np.sum(np.sin(v)))
    gradient(counted, _point("real", K_BAND, 0))
    assert counted.count == 1  # a dense plan takes ceil(K_BAND / default_chunk(K_BAND)) = 3 passes
    counted.reset()
    hessian(counted, _point("real", K_HESS, 0))
    assert counted.count == math.ceil(K_HESS / default_chunk(K_HESS, 2))  # the dense plan, its square


@pytest.mark.parametrize("name", CASES)
def test_scalar_drivers_match_the_oracle(name):
    rule = CASES[name][0]
    f = (lambda t: rule(t, 2 * t)) if _binary(name) else rule
    for x in _point(CASES[name][2], 3, 1):
        w = 2 * x  # exact; only a rule of two duals reads it
        order1 = [(1, (a,), x, w)] + [(2, (b,), x, w)] * _binary(name)
        order2 = [(1, (a, a), x, w)] + [(4, (a, b), x, w), (4, (b, b), x, w)] * _binary(name)
        _check([derivative(f, x)], _as_array([_reference(name, order1)]), f"{name} derivative at {x!r}")
        _check([second_derivative(f, x)], _as_array([_reference(name, order2)]), f"{name} second at {x!r}")


@pytest.mark.parametrize("name", CASES)
def test_gradients_match_the_oracle(name):
    f, domain = _vector_target(name), CASES[name][2]
    x = _point(domain, K_BAND, 2)
    _check(gradient(f, x).values, _gradient_reference(name, x), f"{name} default gradient")
    x = _point(domain, K_SMALL, 3)
    _check(gradient(f, x, ChunkConfig(3)).values, _gradient_reference(name, x), f"{name} chunk 3")


@pytest.mark.parametrize("name", CASES)
def test_hessians_match_the_oracle(name):
    f, domain = _vector_target(name), CASES[name][2]
    for k, chunks, seed in ((K_HESS, (None, None), 4), (K_SMALL, (3, 2), 5)):
        x = _point(domain, k, seed)
        got = hessian(f, x, *chunks)
        _check(got.gradient, _gradient_reference(name, x), f"{name} hessian {chunks} gradient")
        _check(got.entries, _hessian_reference(name, x), f"{name} hessian {chunks}")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: an infinite or NaN coefficient turns the zero lanes of the other "
    "components into NaN (0 * inf), so finite derivatives come out NaN",
)
@pytest.mark.parametrize(
    "name, x, bad, driver",
    [("sqrt", [0.0, 1.0, 4.0], 0, "gradient"), ("log", [0.3, -0.7, 1.1], 1, "hessian")],
    ids=["sqrt-one-zero-gradient", "log-one-negative-hessian"],
)
def test_one_bad_component_leaves_the_others_exact(name, x, bad, driver):
    f, x = _vector_target(name), np.array(x)
    fine = [i for i in range(len(x)) if i != bad]
    if driver == "gradient":
        got, want = gradient(f, x).values[fine], _gradient_reference(name, x[fine])
    else:
        got, want = hessian(f, x).entries[np.ix_(fine, fine)], _hessian_reference(name, x[fine])
    _check(got, want, f"{name} {driver} at {x.tolist()}")
