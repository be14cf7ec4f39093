"""Forward-mode automatic differentiation on multidimensional dual numbers.

Chunked gradients with a runtime-tunable chunk size, exact higher-order
derivatives through nested duals, a threaded chunk scheduler, and a
benchmark/verification harness over standard optimization test functions.
"""

from .dual import (
    Dual,
    Partials,
    base_value,
    cos,
    exp,
    extract,
    log,
    seed_unit,
    sin,
    sqrt,
    square,
    tan,
    value_of,
)
from .drivers import (
    ChunkConfig,
    EvalCounter,
    GradientResult,
    HessianResult,
    ImpureTargetError,
    JacobianResult,
    default_chunk,
    derivative,
    gradient,
    gradient_threaded,
    hessian,
    jacobian,
    second_derivative,
    third_order_tensor,
)
from .testfns import (
    AckleyParams,
    ackley,
    ackley_grad_analytic,
    fd_gradient,
    max_relative_error,
    rosenbrock,
    rosenbrock_grad_analytic,
)
from .vector import DualVector, NestedDualVector

__version__ = "0.1.0"

__all__ = [
    "Dual",
    "Partials",
    "DualVector",
    "NestedDualVector",
    "seed_unit",
    "extract",
    "value_of",
    "base_value",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "square",
    "ChunkConfig",
    "GradientResult",
    "JacobianResult",
    "HessianResult",
    "EvalCounter",
    "ImpureTargetError",
    "default_chunk",
    "derivative",
    "second_derivative",
    "gradient",
    "gradient_threaded",
    "jacobian",
    "hessian",
    "third_order_tensor",
    "AckleyParams",
    "rosenbrock",
    "ackley",
    "rosenbrock_grad_analytic",
    "ackley_grad_analytic",
    "fd_gradient",
    "max_relative_error",
]
