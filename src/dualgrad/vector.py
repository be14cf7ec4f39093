"""Batched dual numbers: one value array plus a shared block of lanes.

``DualVector`` holds dual numbers in struct-of-arrays form: ``values``
with a component shape ``S`` (rank 1 or more) and ``partials`` with shape
``(n_lanes,) + S``, lane axis first.  The drivers hand target functions
vectors with ``S = (k,)``; wider component shapes arise inside nested
vectors.  Keeping lanes contiguous per row means every lane is computed by
exactly the same arithmetic regardless of how many other lanes are
present, so chunked gradients agree bitwise across chunk sizes.

A DualVector behaves like a sequence of scalar ``Dual`` values (len,
index, iterate) and supports numpy-style elementwise math, so code written
the way one writes plain numpy (slicing, ufuncs, ``sum``/``mean``) runs on
it unchanged.

``NestedDualVector`` is the higher-order form: its ``values`` and
``partials`` are themselves DualVectors, or NestedDualVectors one level
further down, so forward-over-forward differentiation runs on float64
arrays at every nesting level.  It has no rules of its own: every
operation runs the DualVector rule of the same name, and each rule builds
its result with ``type(self)`` and combines its fields with the same
operators whatever dual kind they hold.

Instances are immutable by convention; operations never write to their
operands, so values and lane blocks may be freely shared across results
and across threads.  Inside a driver call, float64 rule results of at
least ``pool.POOL_MIN_BYTES`` go into reused buffers; a buffer is reused
only when nothing but the pool refers to it, so arrays a target keeps
are never overwritten.  Floating-point trouble (division by zero, domain
violations, overflow) propagates inf/nan, matching the scalar Dual
semantics; whether it also warns follows numpy's current error state,
which the drivers set to ignore around each pass.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dual import Dual, Partials
from .pool import POOL_MIN_BYTES, pooled

__all__ = ["DualVector", "NestedDualVector"]

_PLAIN = (int, float, np.integer, np.floating)

# The lanes of first-order vectors; a nested vector's lanes are duals.
_ndarray = np.ndarray


def _widen(lanes, gap):
    """Lane block with ``gap`` singleton component axes after the lane axis."""
    return lanes.reshape(lanes.shape[:1] + (1,) * gap + lanes.shape[1:])


class DualVector:
    __slots__ = ("values", "partials")

    def __init__(self, values, partials):
        if values.ndim < 1 or partials.shape[1:] != values.shape:
            raise ValueError(
                f"partials shape {partials.shape} does not match values shape "
                f"{values.shape}: expected (lanes,) + values shape, at least 1-D values"
            )
        self.values = values
        self.partials = partials

    @property
    def shape(self):
        """Component shape: the partials' shape without the lane axis."""
        return self.partials.shape[1:]

    @property
    def ndim(self):
        return self.partials.ndim - 1

    @property
    def n_lanes(self):
        return self.partials.shape[0]

    def _scalar(self, values, partials):
        """Result with no component axis left: a scalar dual."""
        return Dual(values, Partials(partials))

    def _part(self, values, partials):
        """Index or reduction result: a vector, or a scalar without component axes."""
        if partials.ndim == 1:
            return self._scalar(values, partials)
        return type(self)(values, partials)

    def reshape(self, shape):
        """The same duals with component shape ``shape``; lanes stay first."""
        shape = tuple(shape)
        return type(self)(
            self.values.reshape(shape),
            self.partials.reshape(self.partials.shape[:1] + shape),
        )

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, idx):
        lanes = (slice(None),) + (idx if isinstance(idx, tuple) else (idx,))
        return self._part(self.values[idx], self.partials[lanes])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape}, lanes={self.n_lanes})"

    # ------------------------------------------------------------------
    # operand handling: dual-like operands contribute lanes, anything
    # else (scalars, plain arrays) is a constant with zero lanes
    # ------------------------------------------------------------------

    def _operands(self, other):
        """(own lanes, other's values, other's lanes) for a binary rule.

        Other's lanes are None for a constant.  Lane blocks of different
        component rank get singleton axes after the lane axis, so that
        (M, N, k) lanes combine with (M, k) lanes as (M, 1, k).  Scalar
        ``Dual`` operands join first-order vectors only.
        """
        sp = self.partials
        if type(other) is type(self):
            ov, op = other.values, other.partials
        elif isinstance(other, Dual) and type(self) is DualVector:
            ov, op = other.value, np.asarray(other.partials, dtype=sp.dtype)
        elif isinstance(other, (Dual, DualVector, NestedDualVector)):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}: "
                "operands of different nesting depth"
            )
        else:
            return sp, other, None
        # nested lanes are duals, whose shape is a property: read it once
        sp_shape, op_shape = sp.shape, op.shape
        if op_shape[0] != sp_shape[0]:
            raise ValueError(f"lane count mismatch: {sp_shape[0]} vs {op_shape[0]}")
        gap = len(sp_shape) - len(op_shape)
        if gap > 0:
            op = _widen(op, gap)
        elif gap < 0:
            sp = _widen(sp, -gap)
        return sp, ov, op

    # ------------------------------------------------------------------
    # arithmetic.  Each rule has one branch for float64 lane blocks of at
    # least POOL_MIN_BYTES, which writes its results through pooled(), and
    # keeps plain operators for smaller and nested lanes, so those pay no
    # extra call.  Both branches do the same arithmetic in the same order.
    # ------------------------------------------------------------------

    def _chain(self, values, coeff):
        """Result of a unary rule on large lanes: the lanes scaled by f'(x)."""
        return type(self)(values, pooled(np.multiply, self.partials, coeff))

    def __add__(self, other):
        sp, ov, op = self._operands(other)
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            lanes = sp if op is None else pooled(np.add, sp, op)
            return type(self)(pooled(np.add, self.values, ov), lanes)
        if op is None:
            return type(self)(self.values + ov, sp)
        return type(self)(self.values + ov, sp + op)

    __radd__ = __add__

    def __sub__(self, other):
        sp, ov, op = self._operands(other)
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            lanes = sp if op is None else pooled(np.subtract, sp, op)
            return type(self)(pooled(np.subtract, self.values, ov), lanes)
        if op is None:
            return type(self)(self.values - ov, sp)
        return type(self)(self.values - ov, sp - op)

    def __rsub__(self, other):
        sp, ov, op = self._operands(other)
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            lanes = pooled(np.negative, sp) if op is None else pooled(np.subtract, op, sp)
            return type(self)(pooled(np.subtract, ov, self.values), lanes)
        if op is None:
            return type(self)(ov - self.values, -sp)
        return type(self)(ov - self.values, op - sp)

    def __mul__(self, other):
        sp, ov, op = self._operands(other)
        v = self.values
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            lanes = pooled(np.multiply, sp, ov)
            if op is not None:
                lanes = pooled(np.add, lanes, pooled(np.multiply, op, v))
            return type(self)(pooled(np.multiply, v, ov), lanes)
        if op is None:
            return type(self)(v * ov, sp * ov)
        return type(self)(v * ov, sp * ov + op * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        sp, ov, op = self._operands(other)
        v = self.values
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            if op is None:
                lanes = pooled(np.true_divide, sp, ov)
            else:
                prods = pooled(np.multiply, sp, ov), pooled(np.multiply, op, v)
                num = pooled(np.subtract, *prods)
                lanes = pooled(np.true_divide, num, pooled(np.multiply, ov, ov))
            return type(self)(pooled(np.true_divide, v, ov), lanes)
        if op is None:
            return type(self)(np.true_divide(v, ov), np.true_divide(sp, ov))
        num = sp * ov - op * v
        return type(self)(np.true_divide(v, ov), np.true_divide(num, ov * ov))

    def __rtruediv__(self, other):
        sp, ov, op = self._operands(other)
        v = self.values
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            if op is None:
                num = pooled(np.multiply, sp, -ov)
            else:
                prods = pooled(np.multiply, op, v), pooled(np.multiply, sp, ov)
                num = pooled(np.subtract, *prods)
            lanes = pooled(np.true_divide, num, pooled(np.multiply, v, v))
            return type(self)(pooled(np.true_divide, ov, v), lanes)
        vv = v * v
        if op is None:
            return type(self)(np.true_divide(ov, v), np.true_divide(sp * (-ov), vv))
        num = op * v - sp * ov
        return type(self)(np.true_divide(ov, v), np.true_divide(num, vv))

    def __neg__(self):
        sp = self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            return type(self)(pooled(np.negative, self.values), pooled(np.negative, sp))
        return type(self)(-self.values, -sp)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if isinstance(p, (Dual, DualVector, NestedDualVector)):
            raise TypeError(
                "dual exponents are not supported; the exponent must be a plain scalar"
            )
        if not isinstance(p, _PLAIN):
            return NotImplemented
        if p == 0:
            return type(self)(self.values**0, self.sign().partials)
        if p == 1:
            return self
        if p == 2:
            return self.square()
        v, sp = self.values, self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            coeff = pooled(np.multiply, p, pooled(np.power, v, p - 1))
            return self._chain(pooled(np.power, v, p), coeff)
        coeff = p * np.power(v, p - 1)
        return type(self)(np.power(v, p), sp * coeff)

    def __rpow__(self, base):
        return NotImplemented

    def __abs__(self):
        v, sp = self.values, self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            return self._chain(pooled(np.absolute, v), pooled(np.sign, v))
        return type(self)(np.abs(v), sp * np.sign(v))

    def sign(self):
        sp = self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            return type(self)(pooled(np.sign, self.values), pooled(np.multiply, 0.0, sp))
        return type(self)(np.sign(self.values), 0.0 * sp)

    # ------------------------------------------------------------------
    # elementary functions: value = f(x), lanes scaled by f'(x)
    # ------------------------------------------------------------------

    def sin(self):
        v, sp = self.values, self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            return self._chain(pooled(np.sin, v), pooled(np.cos, v))
        return type(self)(np.sin(v), sp * np.cos(v))

    def cos(self):
        v, sp = self.values, self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            coeff = pooled(np.negative, pooled(np.sin, v))
            return self._chain(pooled(np.cos, v), coeff)
        return type(self)(np.cos(v), sp * (-np.sin(v)))

    def tan(self):
        v, sp = self.values, self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            c = pooled(np.cos, v)
            coeff = pooled(np.true_divide, 1.0, pooled(np.multiply, c, c))
            return self._chain(pooled(np.tan, v), coeff)
        c = np.cos(v)
        coeff = np.true_divide(1.0, c * c)
        return type(self)(np.tan(v), sp * coeff)

    def exp(self):
        sp = self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            e = pooled(np.exp, self.values)
            return self._chain(e, e)
        e = np.exp(self.values)
        return type(self)(e, sp * e)

    def log(self):
        v = self.values
        # negative inputs: keep the lanes non-finite, not just the value.  The
        # NaN/1.0 factor leaves other entries bitwise unchanged and scales a
        # coefficient of any dual kind; [()] turns a scalar's 0-d mask into
        # a numpy scalar, which scalar duals accept.
        mask = np.where(v < 0, np.nan, 1.0)[()]
        sp = self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            coeff = pooled(np.multiply, pooled(np.true_divide, 1.0, v), mask)
            return self._chain(pooled(np.log, v), coeff)
        coeff = np.true_divide(1.0, v) * mask
        return type(self)(np.log(v), sp * coeff)

    def sqrt(self):
        sp = self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            s = pooled(np.sqrt, self.values)
            return self._chain(s, pooled(np.true_divide, 0.5, s))
        s = np.sqrt(self.values)
        coeff = np.true_divide(0.5, s)
        return type(self)(s, sp * coeff)

    def square(self):
        v, sp = self.values, self.partials
        if type(sp) is _ndarray and sp.nbytes >= POOL_MIN_BYTES:
            return self._chain(pooled(np.multiply, v, v), pooled(np.multiply, 2.0, v))
        return type(self)(v * v, sp * (2.0 * v))

    # ------------------------------------------------------------------
    # reductions: collapse the last component axis, keep the lanes; a
    # vector with one component axis reduces to a scalar
    # ------------------------------------------------------------------

    def sum(self, axis=None, dtype=None, out=None, **kwargs):
        if axis not in (None, -1) or out is not None:
            raise ValueError("DualVector.sum reduces the last component axis; axis/out unsupported")
        return self._part(self.values.sum(axis=-1), self.partials.sum(axis=-1))

    def mean(self, axis=None, dtype=None, out=None, **kwargs):
        if axis not in (None, -1) or out is not None:
            raise ValueError("DualVector.mean reduces the last component axis; axis/out unsupported")
        # what numpy's mean computes for float64, bit for bit, without its wrapper
        n = self.shape[-1]
        return self._part(self.values.sum(axis=-1) / n, self.partials.sum(axis=-1) / n)

    # ------------------------------------------------------------------
    # comparisons: value channel only, elementwise
    # ------------------------------------------------------------------

    def _cmp_values(self, other):
        if isinstance(other, (DualVector, NestedDualVector)):
            return other.values
        if isinstance(other, Dual):
            return other.value
        return other

    def __lt__(self, other):
        return self.values < self._cmp_values(other)

    def __le__(self, other):
        return self.values <= self._cmp_values(other)

    def __gt__(self, other):
        return self.values > self._cmp_values(other)

    def __ge__(self, other):
        return self.values >= self._cmp_values(other)

    def __eq__(self, other):
        if not isinstance(other, _COMPARABLE):
            return NotImplemented
        return self.values == self._cmp_values(other)

    def __ne__(self, other):
        if not isinstance(other, _COMPARABLE):
            return NotImplemented
        return self.values != self._cmp_values(other)

    __hash__ = None

    def __array__(self, dtype=None, copy=None):
        msg = "builds an object array of scalar duals: every op then runs per element, ~20x slower"
        warnings.warn(f"np.asarray on a {type(self).__name__} {msg}", RuntimeWarning, stacklevel=2)
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self[idx] if idx else self  # a nested scalar is its own element
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.get("out") is not None:
            return NotImplemented
        name = _UNARY_UFUNCS.get(ufunc)
        if name is not None and len(inputs) == 1:
            return getattr(self, name)()
        pair = _BINARY_UFUNCS.get(ufunc)
        if pair is not None and len(inputs) == 2:
            a, b = inputs
            fwd, rev = pair
            if a is self:
                return getattr(self, fwd)(b)
            return getattr(self, rev)(a)
        return NotImplemented


class NestedDualVector:
    """Higher-order DualVector whose ``values`` and ``partials`` are duals.

    ``values`` is a vector one nesting level down with component shape
    ``S``, and ``partials`` one with component shape ``(n_lanes,) + S``.
    A NestedDualVector without component axes (``S == ()``, from indexing
    or a full reduction) is the nested scalar: its ``values`` is a scalar
    of the level below.  The drivers build these inputs; target functions
    use them exactly like DualVectors.
    """

    __slots__ = ("values", "partials")

    def __init__(self, values, partials):
        self.values = values
        self.partials = partials

    def _scalar(self, values, partials):
        return NestedDualVector(values, partials)


def _shared(name):
    # Looked up on every call, so that a wrapper installed on a DualVector
    # method (a profiler or an op counter) also sees the nested calls.
    def rule(self, *args, **kwargs):
        return getattr(DualVector, name)(self, *args, **kwargs)

    rule.__name__ = rule.__qualname__ = name
    return rule


for _name, _attr in list(vars(DualVector).items()):
    if _name not in vars(NestedDualVector):
        setattr(NestedDualVector, _name, _shared(_name) if callable(_attr) else _attr)
del _name, _attr

_COMPARABLE = (DualVector, NestedDualVector, Dual, np.ndarray) + _PLAIN

_UNARY_UFUNCS = {
    np.sin: "sin",
    np.cos: "cos",
    np.tan: "tan",
    np.exp: "exp",
    np.log: "log",
    np.sqrt: "sqrt",
    np.square: "square",
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
