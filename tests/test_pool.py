"""Buffer pool of the drivers: large lane blocks reused across a thread's calls.

Reuse must never overwrite an array that anything still refers to, and a
pooled result must equal the unpooled one bit for bit.  The unpooled
reference runs with reuse switched off (``_SOLE = None``), which is
what an interpreter whose reference counts cannot be trusted gets.
"""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import dualgrad
from dualgrad import ChunkConfig, DualVector, gradient, hessian, jacobian
from dualgrad import pool
from dualgrad.testfns import ackley, rosenbrock
from dualgrad.pool import POOL_MIN_BYTES, lane_pool

K = 3000  # 8 lanes x 3000 float64 = 192 KB per lane block, above POOL_MIN_BYTES


def _point(k, seed=3):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, k)


def _mixed(x):
    """Every DualVector rule, at out-of-domain points too."""
    a = np.sin(x) * np.cos(x) + np.tan(x) / (1.5 + x * x) - np.exp(-x)
    b = np.sqrt(np.abs(x)) + np.log(x) + x**3 + x**0 * np.sign(x) + x**0.5
    c = 2.0 / (x - 0.3) - x / 2.0 + (1.0 - x) * 3.0 - (-x) ** 2
    return np.sum(a + b) + np.mean(c * x[::-1]) + np.sum(x / x[::-1])


def _unpooled(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(pool, "_SOLE", None)
        return call()


def _calls(func, call):
    """(type of the first argument, id of the result) of each call of func during call().

    Ids, not results: a kept result would stop the pool from reusing it.
    """
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is func.__code__:
            seen.append((type(frame.f_locals[frame.f_code.co_varnames[0]]), id(arg)))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stashed_lanes_views_and_intermediates_are_never_overwritten():
    stash = []

    def stashing(x):
        head = x[:-1]
        inner = x[1:] - head * head
        for arr in (x.partials, head.partials, inner.partials):
            stash.append((arr, arr.copy()))
        return rosenbrock(x) + np.sum(inner * 0.0)

    x = _point(K)
    cfg = ChunkConfig(8)
    got = gradient(stashing, x, cfg)
    want = gradient(lambda v: rosenbrock(v) + np.sum((v[1:] - v[:-1] * v[:-1]) * 0.0), x, cfg)
    assert len(stash) == 3 * (K // 8)
    assert all(np.array_equal(arr, copy) for arr, copy in stash)
    assert _same(got.values, want.values) and got.f_value == want.f_value


@pytest.mark.parametrize("f", [rosenbrock, ackley, _mixed], ids=["rosenbrock", "ackley", "mixed"])
def test_pooled_gradients_equal_unpooled_serial_and_threaded(monkeypatch, f):
    x = _point(K)
    want = _unpooled(monkeypatch, lambda: gradient(f, x, ChunkConfig(8)))
    for cfg in (ChunkConfig(8), ChunkConfig(8, 2), ChunkConfig(24, 2)):
        got = gradient(f, x, cfg)
        assert _same(got.values, want.values), cfg
        assert _same(got.f_value, want.f_value)


def test_narrow_window_blocks_stay_out_of_the_pool(monkeypatch):
    # band widths, unions and fallback spans change from pass to pass, so a pool
    # that kept them would keep every one; only blocks on all k columns are pooled
    def f(v):
        return np.sum(v * v[::-1]) + np.sum(np.cos(v[::-1][5:]) * v[:-5])

    narrow = set()
    init = pool._Window.__init__

    def recorded(self, block, lo, k, skew=0, lanes=None):
        init(self, block, lo, k, skew, lanes)
        if (skew or block.shape[0] < k) and block.nbytes >= POOL_MIN_BYTES:
            narrow.add(block.shape)

    x = _point(K)
    with monkeypatch.context() as m:
        m.setattr(pool._Window, "__init__", recorded)
        got = gradient(f, x)
    assert narrow and not narrow & set(pool._active.kept.buffers)
    want = _unpooled(monkeypatch, lambda: gradient(f, x))
    assert _same(got.values, want.values) and _same(got.f_value, want.f_value)


def test_rules_outside_a_driver_call_never_enter_the_pool():
    x = _point(K)
    v = DualVector(x, np.ones((8, K)))  # 192 KB of lanes
    with np.errstate(all="ignore"):
        assert _calls(pool.pooled, lambda: _mixed(v)) == []
    # inside a driver call the same rules on the same lanes do
    assert _calls(pool.pooled, lambda: gradient(_mixed, x, ChunkConfig(8)))


def test_nested_rules_get_the_plain_operations_inside_a_driver():
    # 90 x 100 first-order lanes (72 KB) and 50 x 90 x 100 nested lanes
    picks = _calls(pool.ops, lambda: hessian(rosenbrock, _point(100), 90, 50))
    nested = [ns for lanes, ns in picks if lanes is DualVector]
    first = [ns for lanes, ns in picks if lanes is np.ndarray]
    assert nested and all(ns == id(pool._PLAIN_OPS) for ns in nested)
    assert id(pool._POOLED_OPS) in first


def test_threaded_pools_under_frequent_thread_switches():
    # more workers than this host has cores, switching threads every few
    # bytecodes: each worker's pool must only ever see its own buffers
    x = _point(K)
    want = gradient(_mixed, x, ChunkConfig(8))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = gradient(_mixed, x, ChunkConfig(8, 4))
    finally:
        sys.setswitchinterval(old)
    assert _same(got.values, want.values) and _same(got.f_value, want.f_value)


def test_pooled_jacobian_equals_unpooled_and_the_gradient(monkeypatch):
    x = _point(K)

    def vec(v):
        return np.sin(v) * v[::-1] + np.exp(v) / (2.0 + v) - 1.0 / v

    got = jacobian(vec, x, ChunkConfig(8))
    want = _unpooled(monkeypatch, lambda: jacobian(vec, x, ChunkConfig(8)))
    assert _same(got.entries, want.entries) and _same(got.f_value, want.f_value)
    row = jacobian(lambda v: [rosenbrock(v)], x, ChunkConfig(8)).entries[0]
    assert _same(row, gradient(rosenbrock, x, ChunkConfig(8)).values)


@pytest.mark.parametrize("f", [rosenbrock, ackley], ids=["rosenbrock", "ackley"])
def test_pooled_hessian_equals_unpooled_and_the_gradient(monkeypatch, f):
    # 30 x 300 float64 inner lanes (72 KB) and 30 x 30 x 300 nested lanes
    x = _point(300)
    got = hessian(f, x, 30, 30)
    want = _unpooled(monkeypatch, lambda: hessian(f, x, 30, 30))
    assert _same(got.entries, want.entries)
    assert _same(got.gradient, gradient(f, x, ChunkConfig(30)).values)


def test_a_large_jacobian_value_survives_the_call():
    # the m = 9000 value array comes from a pooled buffer; the result keeps a copy
    x = _point(9000)
    res = jacobian(lambda v: v * 2.0 + v[::-1], x, ChunkConfig(8))
    assert np.array_equal(res.f_value, x * 2.0 + x[::-1])


def _rational(v):
    return (v * v[::-1] - 1.0) / (2.0 + v * v)


# name -> (k, driver call): every plan a call may take, one band pass or many dense ones
OWNED = {
    "gradient-k1000-default": (1000, lambda x: gradient(ackley, x)),
    "gradient-k1000-n8": (1000, lambda x: gradient(ackley, x, ChunkConfig(8))),
    # one dense pass whose result's lanes are a view of the pooled unit lanes
    "gradient-k100-n100-index": (100, lambda x: gradient(lambda v: v[3], x, ChunkConfig(100))),
    "jacobian-k300-default": (300, lambda x: jacobian(_rational, x)),
    "jacobian-k300-identity": (300, lambda x: jacobian(lambda v: v, x)),  # its value is x
    "jacobian-k300-n64": (300, lambda x: jacobian(_rational, x, ChunkConfig(64))),
    "hessian-k30-default": (30, lambda x: hessian(rosenbrock, x)),
    "hessian-k30-8x8": (30, lambda x: hessian(rosenbrock, x, 8, 8)),
}


@pytest.mark.parametrize("name", OWNED)
def test_results_own_their_memory(name):
    # no array of a result is x, a pooled buffer or another call's array, so that a
    # later call can neither overwrite nor be overwritten by a result the caller keeps
    k, call = OWNED[name]
    x = _point(k)
    arrays = [a for res in (call(x), call(x)) for a in vars(res).values() if isinstance(a, np.ndarray)]
    kept = pool._active.kept
    buffers = [] if kept is None else [b for same in kept.buffers.values() for b in same]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :] + [x] + buffers:
            assert not np.shares_memory(a, b), (name, a.shape, b.shape)


def test_a_target_keeping_many_intermediates_leaves_the_pool_bounded(monkeypatch):
    # 128 passes keeping 16 results each: 2048 lane blocks of 8 x 1024
    # float64, just at POOL_MIN_BYTES, alive until the call returns
    x = _point(1024)
    kept, most = [], []

    def hoarding(v):
        kept.extend(v * float(i) for i in range(16))
        if pool._active.pool is not None:
            most.append(max(len(same) for same in pool._active.pool.buffers.values()))
        return rosenbrock(v) + np.sum(kept[-1])

    got = gradient(hoarding, x, ChunkConfig(8))
    assert len(kept) == 2048 and max(most) == pool._MAX_PER_SHAPE
    kept.clear()
    want = _unpooled(monkeypatch, lambda: gradient(hoarding, x, ChunkConfig(8)))
    kept.clear()
    assert _same(got.values, want.values) and _same(got.f_value, want.f_value)


def test_sole_refcount_is_probed_through_take():
    assert pool._sole_refcount() == pool._SOLE is not None
    buffers = pool._Pool(pool._SOLE)
    held = buffers.take((POOL_MIN_BYTES,))
    assert buffers.take((POOL_MIN_BYTES,)) is not held
    del held
    assert buffers.take((POOL_MIN_BYTES,)) is buffers.buffers[(POOL_MIN_BYTES,)][0]


def test_untrustworthy_refcounts_disable_reuse(monkeypatch):
    # a refcount that no longer counts the caller's reference must not
    # let a held buffer look free
    monkeypatch.setattr(pool.sys, "getrefcount", lambda obj: 2)
    sole = pool._sole_refcount()
    monkeypatch.undo()
    assert sole is None
    monkeypatch.setattr(pool, "_SOLE", sole)
    with lane_pool():
        assert pool._active.pool is None


def test_nested_driver_calls_restore_the_outer_pool():
    x = _point(K)
    seen = []

    def f(v):
        seen.append(pool._active.pool)
        if len(seen) == 1:
            gradient(rosenbrock, x[:10])
            seen.append(pool._active.pool)
        return rosenbrock(v)

    gradient(f, x, ChunkConfig(8))
    assert seen[0] is not None and seen[1] is seen[0]
    assert pool._active.pool is None


def test_nested_driver_calls_neither_rotate_nor_drop_the_pool():
    x = _point(K)
    gradient(rosenbrock, x, ChunkConfig(8))

    def f(v):
        if not nested:  # in pass 0 only
            active = pool._active.pool
            before = {shape: list(same) for shape, same in active.buffers.items()}
            nested.append(gradient(rosenbrock, x, ChunkConfig(24)))  # one more shape
            assert pool._active.pool is active
            for shape, same in before.items():
                assert all(a is b for a, b in zip(active.buffers[shape], same, strict=True))
        return rosenbrock(v)

    nested = []
    gradient(f, x, ChunkConfig(12))
    kept = pool._active.kept
    assert {shape[0] for shape in kept.buffers} == {12, 24}
    assert kept.last == {} and pool._active.pool is None


def test_a_thread_keeps_only_the_shapes_of_its_last_call():
    x = _point(K)
    gradient(rosenbrock, x, ChunkConfig(24))
    shapes_b = set(pool._active.kept.buffers)
    gradient(rosenbrock, x, ChunkConfig(8))
    kept = pool._active.kept
    assert {shape[0] for shape in kept.buffers} == {8} and kept.last == {}
    gradient(rosenbrock, x, ChunkConfig(24))
    assert pool._active.kept is kept and set(kept.buffers) == shapes_b and kept.last == {}
    assert all(len(same) <= pool._MAX_PER_SHAPE for same in kept.buffers.values())


def test_a_threaded_call_keeps_the_callers_pool_and_its_numbers():
    x = _point(K)
    want = gradient(_mixed, x, ChunkConfig(8))
    kept = pool._active.kept
    caller, on_workers = threading.get_ident(), []

    def f(v):
        if threading.get_ident() != caller:
            on_workers.append(pool._active.pool is not kept)
        return _mixed(v)

    got = gradient(f, x, ChunkConfig(8, 2))
    assert on_workers and all(on_workers)
    assert pool._active.kept is kept and pool._active.pool is None
    assert _same(got.values, want.values) and _same(got.f_value, want.f_value)


def _minor_faults_per_call(setup, call, calls):
    """Minor page faults per ``call`` after one warm-up call, in a fresh interpreter.

    Fresh, because frees of large blocks earlier in this process raise
    glibc's trim threshold and would hide the faults.
    """
    script = textwrap.dedent(
        f"""
        import resource
        import numpy as np
        from dualgrad import ChunkConfig, gradient, hessian
        from dualgrad.testfns import ackley, rosenbrock

        {setup}
        {call}
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range({calls}):
            {call}
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    src = os.path.dirname(os.path.dirname(dualgrad.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return int(done.stdout) / calls


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc page faults")


@linux_only
def test_rosenbrock_gradient_does_not_page_fault_every_pass():
    setup = f"x = np.random.default_rng(3).uniform(-2.0, 2.0, {K})"
    faults, passes = _minor_faults_per_call(setup, "gradient(rosenbrock, x, ChunkConfig(8))", 1), -(-K // 8)
    assert faults / passes < 10, f"{faults} minor faults in {passes} passes"


@linux_only
@pytest.mark.parametrize(
    "k, call",
    [(30, "hessian(rosenbrock, x)"), (1000, "gradient(ackley, x)")],
    ids=["one-pass-hessian-k30", "ackley-gradient-k1000"],
)
def test_later_calls_do_not_page_fault_their_lane_blocks_in_again(k, call):
    # a pool per call took 275 and 124 faults a call here
    setup = f"x = np.random.default_rng(3).uniform(-2.0, 2.0, {k})"
    faults = _minor_faults_per_call(setup, call, 20)
    assert faults < 5, f"{faults} minor faults per call"
