"""Multidimensional dual numbers for forward-mode automatic differentiation.

A dual number carries a ``value`` plus a fixed-width vector of derivative
lanes (``partials``).  Arithmetic propagates every lane exactly through the
usual calculus rules, so evaluating ordinary numeric code on seeded duals
yields exact directional derivatives alongside the plain result.

The element scalar is generic: a lane entry or a value may itself be a
``Dual``, and nesting to depth d produces exact d-th order derivatives
(hyper-dual behaviour).  Float leaves follow IEEE semantics throughout:
division by zero, log of a negative number and similar domain violations
produce inf/nan instead of raising, so out-of-domain derivatives are
visibly non-finite rather than silently wrong.  Whether they also warn is
up to numpy's current error state, as for ``ndarray`` arithmetic: the
rules set none of their own.  The drivers set it to ignore around each
evaluation of the target, so they never warn.

The arithmetic, elementary and comparison rules of ``Dual`` and its
``__array_ufunc__`` are the only ones in the package: ``DualVector`` and
``NestedDualVector`` hold the same function objects.
Each rule reads ``values`` and ``partials``, computes its value channel
and coefficients with the operations ``pool.ops`` picks for ``values`` and
its lanes with those it picks for ``partials`` (reusing buffers for large
float64 arrays in a driver call, NaN-safe for masked lanes) and builds its
result with ``type(self)``.  On a ``Dual`` the lanes are a float64 row
where it was built from one (a first-order vector's index or reduction),
else a ``Partials`` tuple.  Python's operators serve both.

All three kinds subclass ``_DualKind``: one ``isinstance`` tells a dual
from a constant, and ``value_of``/``base_value`` read the value channel
of every kind.  No kind converts to ``float``: that would keep the value
and drop every lane, so ``math.exp`` and ``float()`` raise TypeError on a
dual.  ``sin`` … ``square`` are numpy's ufuncs, which numpy
hands to the rules on a dual of any kind through ``__array_ufunc__``.
"""

from __future__ import annotations

import math

import numpy as np

from .pool import _ELEMENTARY, _FLOAT64, _PLAIN_OPS, _Masked, _ieee_div, ops

__all__ = [
    "Dual",
    "Partials",
    "seed_unit",
    "extract",
    "base_value",
    "value_of",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "square",
]

# Plain scalars that get lifted to constants (zero lanes) in mixed arithmetic.
_PLAIN = (int, float, np.integer, np.floating)


def _ufunc_rule(self, ufunc, method, *inputs, **kwargs):
    """``__array_ufunc__`` of every dual kind: the rule ``ufunc(*inputs)`` maps to.

    NotImplemented for ufuncs without a rule, for other ufunc methods and
    for ``out=``, and wherever the rule itself returns it.
    """
    if method != "__call__" or kwargs.get("out") is not None:
        return NotImplemented
    name = _UNARY_UFUNCS.get(ufunc)
    if name is not None and len(inputs) == 1:
        return getattr(self, name)()
    pair = _BINARY_UFUNCS.get(ufunc)
    if pair is not None and len(inputs) == 2:
        a, b = inputs
        name, other = (pair[0], b) if a is self else (pair[1], a)
        if isinstance(other, np.ndarray) and not other.ndim:
            other = other[()]  # a 0-d array is its scalar, for __pow__ too
        elif type(self) is Dual and isinstance(other, np.ndarray):
            self = _lift(self, other)
        return getattr(self, name)(other)
    return NotImplemented


def _lift(d, array):
    """First-order ``d`` as a DualVector of a real ``array``'s shape; anything else as is."""
    if isinstance(d.value, _DualKind) or array.dtype.kind not in "biuf":
        return d
    from .vector import DualVector  # vector.py imports this module

    lanes = np.asanyarray(d.partials, dtype=np.float64).reshape((-1,) + (1,) * array.ndim)
    lanes = np.broadcast_to(lanes, lanes.shape[:1] + array.shape, subok=True)
    return DualVector(np.broadcast_to(d.value, array.shape), lanes)


class Partials(tuple):
    """Fixed-width derivative lanes (the epsilon coefficients): a 1-D float64
    ndarray stays that array, any other sequence becomes this tuple.

    The width is set at construction and never changes.  Combining two
    Partials of different width raises ValueError: silently broadcasting
    lanes would corrupt orthogonal seeding.  Unlike a plain tuple, ``+``
    is elementwise addition and ``*`` scales every lane.
    """

    __slots__ = ()

    def __new__(cls, entries):
        row = type(entries) in (np.ndarray, _Masked) and entries.ndim == 1 and entries.dtype == _FLOAT64
        self = entries if row else super().__new__(cls, entries)
        if len(self) == 0:
            raise ValueError("Partials needs at least one lane")
        return self

    def __add__(self, other):
        return Partials(a + b for a, b in zip(self, other, strict=True))

    def __sub__(self, other):
        return Partials(a - b for a, b in zip(self, other, strict=True))

    def __neg__(self):
        return Partials(-a for a in self)

    def __mul__(self, scalar):
        return Partials(scalar * a for a in self)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Partials(_ieee_div(a, scalar) for a in self)


class _DualKind:
    """Base class of ``Dual``, ``DualVector`` and ``NestedDualVector``."""

    __slots__ = ()


class Dual(_DualKind):
    """Dual number: ``value`` plus a fixed number of derivative lanes.

    Treat instances as immutable values; every operation returns a new
    Dual.  ``value`` may itself be a Dual (nesting), in which case lane
    entries are duals of the same inner shape or plain scalars that get
    lifted on contact.

    Comparisons look at the value component only (one nesting level at a
    time, down to the base scalar), which lets branch-heavy numeric code
    run unchanged on duals; derivatives of piecewise functions are
    therefore one-sided.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        if not isinstance(partials, Partials):
            partials = Partials(partials)
        self.value = value
        self.partials = partials

    def _operands(self, other):
        """(value ops, lane ops, own lanes, other's value, other's lanes or None) for a binary rule.

        None for anything but a Dual or a plain scalar, which a 0-d array
        counts as: the rule returns NotImplemented.  ValueError for a Dual
        of another width.
        """
        if isinstance(other, np.ndarray) and not other.ndim:
            other = other[()]
        if isinstance(other, Dual):
            sp, op = self.partials, other.partials
            if len(sp) != len(op):  # numpy would broadcast a one-lane array
                raise ValueError(f"lane count mismatch: {len(sp)} vs {len(op)}")
            return _PLAIN_OPS, _PLAIN_OPS, sp, other.value, op
        if isinstance(other, _PLAIN):
            return _PLAIN_OPS, _PLAIN_OPS, self.partials, other, None
        return None

    # ------------------------------------------------------------------
    # arithmetic: the rules of every dual kind (see the module docstring)
    # ------------------------------------------------------------------

    def __add__(self, other):
        if (operands := self._operands(other)) is None:
            return NotImplemented
        vo, lo, sp, ov, op = operands
        lanes = sp if op is None else lo.add(sp, op)
        return type(self)(vo.add(self.values, ov), lanes)

    __radd__ = __add__

    def __sub__(self, other):
        if (operands := self._operands(other)) is None:
            return NotImplemented
        vo, lo, sp, ov, op = operands
        lanes = sp if op is None else lo.sub(sp, op)
        return type(self)(vo.sub(self.values, ov), lanes)

    def __rsub__(self, other):
        if (operands := self._operands(other)) is None:
            return NotImplemented
        vo, lo, sp, ov, op = operands
        lanes = lo.neg(sp) if op is None else lo.sub(op, sp)
        return type(self)(vo.sub(ov, self.values), lanes)

    def __mul__(self, other):
        if (operands := self._operands(other)) is None:
            return NotImplemented
        vo, lo, sp, ov, op = operands
        lanes = lo.mul(sp, ov)
        if op is not None:
            lanes = lo.add(lanes, lo.mul(op, self.values))
        return type(self)(vo.mul(self.values, ov), lanes)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (operands := self._operands(other)) is None:
            return NotImplemented
        vo, lo, sp, ov, op = operands
        v = self.values
        if op is None:
            lanes = lo.div(sp, ov)
        else:
            num = lo.sub(lo.mul(sp, ov), lo.mul(op, v))
            lanes = lo.div(num, vo.mul(ov, ov))
        return type(self)(vo.div(v, ov), lanes)

    def __rtruediv__(self, other):
        if (operands := self._operands(other)) is None:
            return NotImplemented
        vo, lo, sp, ov, op = operands
        v = self.values
        if op is None:
            num = lo.mul(sp, -ov)
        else:
            num = lo.sub(lo.mul(op, v), lo.mul(sp, ov))
        lanes = lo.div(num, vo.mul(v, v))
        return type(self)(vo.div(ov, v), lanes)

    def __neg__(self):
        return type(self)(ops(self.values).neg(self.values), ops(self.partials).neg(self.partials))

    def __pos__(self):
        return self

    def __pow__(self, p):
        if not isinstance(p, _PLAIN):
            if isinstance(p, _DualKind):
                raise TypeError(
                    "dual exponents are not supported; the exponent must be a plain scalar"
                )
            return NotImplemented
        if p == 0:
            return type(self)(self.values**0, self.sign().partials)
        if p == 1:
            return self
        if p == 2:
            return self.square()
        p = float(p)  # so that an integer value is raised as a float, not in int64
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        coeff = vo.mul(p, vo.power(v, p - 1))
        return type(self)(vo.power(v, p), lo.mul(self.partials, coeff))

    def __rpow__(self, base):
        return NotImplemented

    def __abs__(self):
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        return type(self)(vo.absolute(v), lo.mul(self.partials, vo.sign(v)))

    def sign(self):
        return type(self)(ops(self.values).sign(self.values), ops(self.partials).mul(self.partials, 0.0))

    # elementary functions: value = f(x), lanes scaled by f'(x)

    def sin(self):
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        return type(self)(vo.sin(v), lo.mul(self.partials, vo.cos(v)))

    def cos(self):
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        coeff = vo.neg(vo.sin(v))
        return type(self)(vo.cos(v), lo.mul(self.partials, coeff))

    def tan(self):
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        c = vo.cos(v)
        coeff = vo.div(1.0, vo.mul(c, c))
        return type(self)(vo.tan(v), lo.mul(self.partials, coeff))

    def exp(self):
        e = ops(self.values).exp(self.values)
        return type(self)(e, ops(self.partials).mul(self.partials, e))

    def log(self):
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        # negative inputs: keep the lanes non-finite, not just the value.  The
        # NaN/1.0 factor leaves other entries bitwise unchanged and scales a
        # coefficient of any dual kind; [()] turns a scalar's 0-d mask into
        # a numpy scalar, which scalar duals accept.
        mask = np.where(v < 0, np.nan, 1.0)[()]
        coeff = vo.mul(vo.div(1.0, v), mask)
        return type(self)(vo.log(v), lo.mul(self.partials, coeff))

    def sqrt(self):
        vo, lo = ops(self.values), ops(self.partials)
        s = vo.sqrt(self.values)
        return type(self)(s, lo.mul(self.partials, vo.div(0.5, s)))

    def square(self):
        v, vo, lo = self.values, ops(self.values), ops(self.partials)
        return type(self)(vo.mul(v, v), lo.mul(self.partials, vo.mul(2.0, v)))

    # ------------------------------------------------------------------
    # comparisons: the value channel only; a nested value compares
    # through these same functions one level down
    # ------------------------------------------------------------------

    def __lt__(self, other):
        return self.values < value_of(other)

    def __le__(self, other):
        return self.values <= value_of(other)

    def __gt__(self, other):
        return self.values > value_of(other)

    def __ge__(self, other):
        return self.values >= value_of(other)

    def __eq__(self, other):
        return self.values == value_of(other)

    def __ne__(self, other):
        return self.values != value_of(other)

    __hash__ = None  # value-only equality makes hashing misleading

    def __bool__(self):
        return bool(base_value(self))

    # ------------------------------------------------------------------
    # lane access
    # ------------------------------------------------------------------

    def partial(self, lane):
        """Single lane coefficient; nested access composes so that
        ``d.partial(i).partial(j)`` reads second-order coefficients."""
        return self.partials[lane]

    # numpy interop: np.sin(d), np.add(d, x) and friends route through the
    # rules above; numpy scalars defer to the reflected operators.
    __array_ufunc__ = _ufunc_rule

    def __repr__(self):
        return _render(self)


# The rules read ``values``, which on a Dual is the ``value`` slot itself
# (its member descriptor): reading it costs no more than reading ``value``.
Dual.values = Dual.__dict__["value"]

# The rules every dual kind shares, by name
_RULES = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__")
_RULES += ("__rtruediv__", "__neg__", "__pos__", "__pow__", "__rpow__", "__abs__", "sign")
_RULES += ("sin", "cos", "tan", "exp", "log", "sqrt", "square")
_RULES += ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__array_ufunc__")


# ----------------------------------------------------------------------
# construction and extraction helpers
# ----------------------------------------------------------------------


def seed_unit(value, lane, width):
    """Dual with a unit coefficient at ``lane`` and zeros elsewhere.

    Seeding input component i with unit lane i makes the output lanes of a
    computation equal its partial derivatives with respect to each seeded
    component.
    """
    if not 0 <= lane < width:
        raise IndexError(f"lane {lane} out of range for width {width}")
    entries = [0.0] * width
    entries[lane] = 1.0
    return Dual(value, Partials(entries))


def extract(d):
    """Components of a dual, unmodified: ``(value, partials)``."""
    if not isinstance(d, Dual):
        raise TypeError(f"expected a Dual, got {type(d).__name__}")
    return d.value, d.partials


def value_of(x):
    """Value channel of a dual of any kind, one nesting level down; anything else passes through."""
    return x.values if isinstance(x, _DualKind) else x


def base_value(x):
    """Innermost plain value of a dual of any kind: a scalar, or a float64 array for a vector."""
    while isinstance(x, _DualKind):
        x = x.values
    return x


# numpy's own loop on plain input, the rules on duals: target code runs unchanged on both
sin, cos, tan, exp, log, sqrt, square = _ELEMENTARY.values()


_UNARY_UFUNCS = {
    **{ufunc: name for name, ufunc in _ELEMENTARY.items()},
    np.sign: "sign",
    np.negative: "__neg__",
    np.positive: "__pos__",
    np.absolute: "__abs__",
}

_BINARY_UFUNCS = {
    np.add: ("__add__", "__radd__"),
    np.subtract: ("__sub__", "__rsub__"),
    np.multiply: ("__mul__", "__rmul__"),
    np.true_divide: ("__truediv__", "__rtruediv__"),
    np.power: ("__pow__", "__rpow__"),
    np.less: ("__lt__", "__gt__"),
    np.less_equal: ("__le__", "__ge__"),
    np.greater: ("__gt__", "__lt__"),
    np.greater_equal: ("__ge__", "__le__"),
    np.equal: ("__eq__", "__eq__"),
    np.not_equal: ("__ne__", "__ne__"),
}


# ----------------------------------------------------------------------
# text rendering
#
# Nested lanes print as eps[d,k]: the k-th lane at nesting depth d, with
# depth 1 innermost.  Coefficients use the shortest round-trip float
# representation.
# ----------------------------------------------------------------------


def _depth(x):
    d = 0
    while isinstance(x, Dual):
        d += 1
        x = x.value
    return d


def _fmt_scalar(x):
    return repr(float(x))


def _render(d):
    level = _depth(d)
    if isinstance(d.value, Dual):
        out = [_render(d.value)]
    else:
        out = [_fmt_scalar(d.value)]
    for idx, entry in enumerate(d.partials, start=1):
        tag = f"ε[{level},{idx}]"
        if isinstance(entry, Dual):
            out.append(f" + {_render(entry)}*{tag}")
        else:
            coeff = float(entry)
            if coeff < 0.0 or (coeff == 0.0 and math.copysign(1.0, coeff) < 0.0):
                out.append(f" - {_fmt_scalar(-coeff)}*{tag}")
            else:
                out.append(f" + {_fmt_scalar(coeff)}*{tag}")
    return "(" + "".join(out) + ")"
