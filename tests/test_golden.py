"""Golden digests: derivative results must stay bitwise identical across refactors.

Each case hashes the bytes of a driver's output with SHA-256.  The targets
use only + - * /, sqrt, abs and sign, which IEEE 754 rounds exactly, and
the inputs are exact rationals rather than draws from a generator, so the
digests depend on the arithmetic the rules do (and numpy's summation
order), not on libm or the random stream.  Pooled lane blocks (k=3000 at
chunk 8 is 192 KB per block), the default plan's lane windows, the
threaded scheduler and every nesting level are covered.  A digest that changes means a number changed: that
needs a declared fix, not a new digest.
"""

import hashlib

import numpy as np
import pytest

from dualgrad import ChunkConfig, gradient, hessian, jacobian, third_order_tensor
from dualgrad.testfns import rosenbrock


def _point(k):
    """k exact rationals in [-2, 2.04], in a scrambled order."""
    return ((np.arange(k) * 37) % 101) / 25.0 - 2.0


def _rational(v):
    return (v * v[::-1] - 1.0) / (2.0 + v * v) + np.sqrt(np.abs(v) + 1.0) * np.sign(v)


def _rational_scalar(v):
    return np.sum((v * v * v - v) / (3.0 + v * v) + 1.0 / (v[::-1] - 5.0))


def _branchy(v):
    """Branches on comparisons of every dual kind the drivers hand a target."""
    up = (v >= 0.5) * 1.0  # components against a float: a float mask
    w = up * (v * v) + (1.0 - up) * (v / 3.0)
    s, t = np.sum(w), np.sum(v * v[::-1])
    out = s - t if s < t else s + t  # scalar against scalar
    if out < -1.0:  # scalar against a float
        out = out / 7.0
    if v[0] <= v[-1]:
        out = out * v[1]
    return out


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _gradient(k, cfg):
    res = gradient(rosenbrock, _point(k), cfg)
    return _digest(res.values, res.f_value)


def _jacobian(k, cfg):
    res = jacobian(_rational, _point(k), cfg)
    return _digest(res.entries, res.f_value)


def _hessian(k, chunks):
    res = hessian(rosenbrock, _point(k), *chunks)
    return _digest(res.entries, res.gradient, res.f_value)


def _tensor(k):
    return _digest(third_order_tensor(_rational_scalar, _point(k)))


def _comparisons(k_grad, k_hess):
    g = gradient(_branchy, _point(k_grad))
    h = hessian(_branchy, _point(k_hess), 8, 8)
    return _digest(g.values, g.f_value, h.entries, h.gradient, h.f_value)


CASES = {
    "gradient-k3000-n8": (
        lambda: _gradient(3000, ChunkConfig(8)),
        "04f3a9aac70267f4ca7e4bcec6d56b3b4b852fa8d880baff1b29929ef6c5c956",
    ),
    # the default plan: one guarded band pass on every component
    "gradient-k3000-default": (
        lambda: _gradient(3000, None),
        "04f3a9aac70267f4ca7e4bcec6d56b3b4b852fa8d880baff1b29929ef6c5c956",
    ),
    # the default plan on two threads: still one band pass, which starts no thread
    "gradient-k3000-default-2threads": (
        lambda: _gradient(3000, ChunkConfig(None, 2)),
        "04f3a9aac70267f4ca7e4bcec6d56b3b4b852fa8d880baff1b29929ef6c5c956",
    ),
    "gradient-k3000-n24-2threads": (
        lambda: _gradient(3000, ChunkConfig(24, 2)),
        "04f3a9aac70267f4ca7e4bcec6d56b3b4b852fa8d880baff1b29929ef6c5c956",
    ),
    "jacobian-k3000-n8": (
        lambda: _jacobian(3000, ChunkConfig(8)),
        "afd41e068970765e1451f2c273875438b5cac011c0112a473b0510724c7642d5",
    ),
    "jacobian-k3000-default": (
        lambda: _jacobian(3000, None),
        "afd41e068970765e1451f2c273875438b5cac011c0112a473b0510724c7642d5",
    ),
    "hessian-k30-8x8": (
        lambda: _hessian(30, (8, 8)),
        "3c82556f3aef143491e1183cc571f9a854925c55fab936541682b8a414add8e7",
    ),
    "hessian-k300-30x30": (
        lambda: _hessian(300, (30, 30)),
        "14928af48c48d5b82bc6070453e3cb2892dd5686f9f3c016f7ca47fe0a9d1733",
    ),
    # the default plan: chunks of default_chunk(k, 2), one pass at k=30
    "hessian-k30-default": (
        lambda: _hessian(30, (None, None)),
        "3c82556f3aef143491e1183cc571f9a854925c55fab936541682b8a414add8e7",
    ),
    "hessian-k300-default": (
        lambda: _hessian(300, (None, None)),
        "14928af48c48d5b82bc6070453e3cb2892dd5686f9f3c016f7ca47fe0a9d1733",
    ),
    "tensor-k6": (
        lambda: _tensor(6),
        "0a179b77d97e5d21ea9e8020e408a0f0bedcfcfaaa4c82ce97245d0f07c54bb6",
    ),
    "comparisons-gradient-k300-hessian-k30": (
        lambda: _comparisons(300, 30),
        "ef7270c951a6cf30121c91c1b67fd3b3b1c89b7bb503fc895143d51869db7d62",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_match_the_golden_digest(name):
    run, want = CASES[name]
    assert run() == want
