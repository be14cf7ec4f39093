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
arrays at every nesting level.  It defines only its constructor: every
other attribute is the very object DualVector has.  The arithmetic,
elementary and comparison rules of both and their ``__array_ufunc__``
are in turn the scalar ``Dual``'s own functions (``dual.py``); this
module adds the vector side of operand handling, indexing and
reductions.

The lanes of a first-order vector that ``gradient`` or ``jacobian``
seeds in a windowed pass may be a ``pool._Window``: only the entries
where they can be nonzero, a band of a few diagonals or the columns
``[lo, hi)`` of the last component axis, the rest being zero.  A band's
rows, its diagonals, span its columns in ``[0, k)``, which a coefficient
scales by broadcasting; a position without a lane is never read.  So may
the outer lanes of a default Hessian's vectors, at both levels: their
second-order lanes are a window with the inner lanes as an extra axis,
and ``_widen`` keeps a window a window.
Such a vector keeps its full ``values``.  Indexing passes the window an
integer or a slice with step 1 or -1, which it answers from its entries,
and ``sum``/``mean`` reduce it in the window where that gives the same
numbers.  Combined with full lanes (a dense vector's or a scalar
``Dual``'s) it gives full lanes; every other index, ``reshape`` and
``__array__`` read it as the full block.

Instances are immutable by convention; operations never write to their
operands, so values and lane blocks may be freely shared across results
and across threads.  Each rule asks ``pool.ops`` once for the operations
it computes with; inside a driver call, a rule on large float64 lanes
gets ones that write into reused buffers.  A buffer is reused only when
nothing but the pool refers to it, so arrays a target keeps are never
overwritten.  Floating-point trouble (division by zero, domain
violations, overflow) propagates inf/nan, matching the scalar Dual
semantics; whether it also warns follows numpy's current error state,
which the drivers set to ignore around each pass.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dual import _RULES, Dual, _DualKind
from .pool import _EVERY_LANE, _leave, _Window, ops

__all__ = ["DualVector", "NestedDualVector"]


def _widen(lanes, gap):
    """Lane block with ``gap`` singleton component axes after the lane axis; a window's stay a window."""
    if type(lanes) is _Window:
        block = lanes.block
        return lanes.like(block.reshape(block.shape[:1] + (1,) * gap + block.shape[1:]))
    return lanes.reshape(lanes.shape[:1] + (1,) * gap + lanes.shape[1:])


class DualVector(_DualKind):
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

    def _part(self, values, partials):
        """Index or reduction result: a ``Dual`` on the lane row if a DualVector has no axis left."""
        if type(self) is DualVector and partials.ndim == 1:
            return Dual(values, partials)
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
        lanes = (_EVERY_LANE,) + (idx if isinstance(idx, tuple) else (idx,))
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
        """(value ops, lane ops, own lanes, other's values, other's lanes) for a binary rule.

        The operations are the ones ``ops`` picks for the own values and for
        the own lanes, and other's lanes are None for a constant.  Lane blocks of different
        component rank get singleton axes after the lane axis, so that
        (M, N, k) lanes combine with (M, k) lanes as (M, 1, k), and so do
        own lanes met by a plain array of higher rank.  Scalar ``Dual``
        operands join first-order vectors only; on a lane window their
        lanes build the full block, so a guarded pass stops first.
        """
        sp = self.partials
        if type(other) is type(self):
            ov, op = other.values, other.partials
        elif isinstance(other, Dual) and type(self) is DualVector:
            if type(sp) is _Window:  # the rule would build the full block: stop before it
                _leave("full")
            ov, op = other.value, np.asanyarray(other.partials, dtype=sp.dtype)
        elif isinstance(other, _DualKind):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}: "
                "operands of different nesting depth"
            )
        else:
            if isinstance(other, np.ndarray) and other.ndim > self.ndim:
                sp = _widen(sp, other.ndim - self.ndim)
            return ops(self.values), ops(sp), sp, other, None
        # nested lanes are duals, whose shape is a property: read it once
        sp_shape, op_shape = sp.shape, op.shape
        if op_shape[0] != sp_shape[0]:
            raise ValueError(f"lane count mismatch: {sp_shape[0]} vs {op_shape[0]}")
        gap = len(sp_shape) - len(op_shape)
        if gap > 0:
            op = _widen(op, gap)
        elif gap < 0:
            sp = _widen(sp, -gap)
        if type(op) is _Window and type(sp) is not _Window:  # the full block, as a ufunc would read it
            op = op.full()
        return ops(self.values), ops(sp), sp, ov, op

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

    __hash__ = None  # the shared __eq__ compares values, elementwise

    def __array__(self, dtype=None, copy=None):
        msg = "builds an object array of scalar duals: every op then runs per element, ~20x slower"
        warnings.warn(f"np.asarray on a {type(self).__name__} {msg}", RuntimeWarning, stacklevel=2)
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self[idx] if idx else self  # a nested scalar is its own element
        return out


# The arithmetic, elementary and comparison rules are Dual's own functions
for _name in _RULES:
    setattr(DualVector, _name, vars(Dual)[_name])


class NestedDualVector(_DualKind):
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


# Every other attribute is DualVector's own object: its rules are Dual's
for _name, _attr in list(vars(DualVector).items()):
    if _name not in vars(NestedDualVector):
        setattr(NestedDualVector, _name, _attr)
del _name, _attr
