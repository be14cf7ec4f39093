"""Benchmark target functions and the independent gradient oracles.

Both targets are generic over the input kind: plain sequences and numpy
arrays evaluate numerically, batches of duals flow through the same code
and carry derivatives.  The closed-form gradients and the central
finite-difference oracle are deliberately separate code paths used to
cross-check the propagated derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vector import DualVector, NestedDualVector

__all__ = [
    "AckleyParams",
    "rosenbrock",
    "ackley",
    "rosenbrock_grad_analytic",
    "ackley_grad_analytic",
    "fd_gradient",
    "max_relative_error",
    "worst_relative_error",
]


@dataclass(frozen=True)
class AckleyParams:
    """Shape constants of the Ackley surface (standard literature values)."""

    a: float = 20.0
    b: float = 0.2
    c: float = 2.0 * math.pi

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("Ackley parameters must be finite")


DEFAULT_ACKLEY = AckleyParams()


def _as_vector(x):
    if isinstance(x, (DualVector, NestedDualVector)):
        return x
    return np.asarray(x)


def rosenbrock(x):
    """N-dimensional Rosenbrock valley.

    Minimum is at f(1,...,1) = 0.  Cheap per component: a handful of
    multiplies and adds, no transcendentals.
    """
    x = _as_vector(x)
    if len(x) < 2:
        raise ValueError("rosenbrock needs at least 2 components")
    head = x[:-1]
    tail = x[1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2)


def ackley(x, params=DEFAULT_ACKLEY):
    """N-dimensional Ackley function.

    Minimum is at f(0,...,0) = 0.  Transcendental-heavy: exp, sqrt and cos
    of every component on each evaluation.
    """
    x = _as_vector(x)
    if len(x) < 1:
        raise ValueError("ackley needs at least 1 component")
    a, b, c = params.a, params.b, params.c
    radial = -a * np.exp(-b * np.sqrt(np.mean(x**2)))
    wavy = -np.exp(np.mean(np.cos(c * x)))
    return radial + wavy + a + math.e


def rosenbrock_grad_analytic(x):
    """Closed-form Rosenbrock gradient, used as ground truth in tests."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError("rosenbrock needs at least 2 components")
    g = np.zeros_like(x)
    head = x[:-1]
    tail = x[1:]
    g[:-1] += -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    g[1:] += 200.0 * (tail - head**2)
    return g


def ackley_grad_analytic(x, params=DEFAULT_ACKLEY):
    """Closed-form Ackley gradient; undefined at the origin (sqrt kink)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 1:
        raise ValueError("ackley needs at least 1 component")
    a, b, c = params.a, params.b, params.c
    k = x.shape[0]
    root = math.sqrt(np.mean(x**2))
    if root == 0.0:
        raise ValueError("ackley gradient is undefined at the origin (non-differentiable point)")
    radial = (a * b * math.exp(-b * root) / (k * root)) * x
    wavy = (c / k) * math.exp(np.mean(np.cos(c * x))) * np.sin(c * x)
    return radial + wavy


def fd_gradient(f, x, step=1e-6, dtype=np.longdouble):
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h.

    Evaluations run in extended precision by default so that cancellation
    noise at the fixed step stays far below the comparison tolerances even
    for large, badly scaled sums; pass dtype=np.float64 for functions that
    cannot digest long doubles.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    x = np.asarray(x, dtype=dtype)
    g = np.empty(x.shape[0], dtype=np.float64)
    for i in range(x.shape[0]):
        forward = x.copy()
        forward[i] += step
        backward = x.copy()
        backward[i] -= step
        g[i] = float((f(forward) - f(backward)) / (2.0 * dtype(step)))
    return g


def worst_relative_error(approx, exact, floor=1e-12):
    """(error, flat index) of the largest per-component relative deviation of approx from exact.

    The denominator is floored to keep components that sit at a zero
    crossing from turning measurement noise into an infinite ratio.
    """
    exact = np.asarray(exact, dtype=np.float64)
    rel = np.abs(np.asarray(approx, dtype=np.float64) - exact) / np.maximum(np.abs(exact), floor)
    worst = int(np.argmax(rel))
    return float(rel.flat[worst]), worst


def max_relative_error(approx, exact, floor=1e-12):
    """Largest per-component relative deviation of approx from exact (see worst_relative_error)."""
    return worst_relative_error(approx, exact, floor)[0]
