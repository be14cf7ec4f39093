"""Lane windows: later first-order passes carry only the lane columns their
seeds can reach, and give the same bytes as one dense pass."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from dualgrad import ChunkConfig, EvalCounter, ackley, default_chunk, gradient, hessian, jacobian
from dualgrad import drivers, pool, rosenbrock, third_order_tensor, vector
from dualgrad.vector import DualVector, NestedDualVector
from dualgrad.drivers import LANE_BLOCK_BYTES, WIDE_CHUNK, _plan

K = 3000  # chunk 8 and 10 lane blocks are 192 and 240 KB, above POOL_MIN_BYTES
CONST = np.linspace(-1.5, 2.5, K)


def _point(k, seed=11):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, k)


def _windowed_passes(f, x, cfg):
    """(gradient, how many passes got a lane window narrower than the block) of f at x."""
    seen = []

    def recorded(v):
        lanes = v.partials
        seen.append(type(lanes) is pool._Window and lanes.block.shape[0] < lanes.k)
        return f(v)

    return gradient(recorded, x, cfg), sum(seen)


TARGETS = {
    "rosenbrock": rosenbrock,
    "ackley": ackley,
    "shifted": lambda v: np.sum((v[1:] - v[:-1]) ** 2) + np.sum(np.sin(v[2:]) * v[:-2]),
    "reversed": lambda v: np.sum(v * v[::-1]) + np.sum(np.cos(v[::-1][5:]) * v[:-5]),
    "step-2": lambda v: np.sum(v[::2] * v[1::2]) + np.sum(v[::-3] ** 2),
    "integer": lambda v: v[5] * v[2000] + v[-1] * v[np.int64(1)] + np.sum(v * v),
    "iteration": lambda v: sum(e * e for e in v[1000:1040]) + np.sum(v**3),
    "fancy": lambda v: np.sum(v[[3, 7, 2999, 100]] * 2.0) + np.sum(v[v > 0.5] ** 2),
    "reshape": lambda v: (v.reshape((30, 100)) ** 2).sum().sum() + np.sum(v[::-1].reshape((K,))),
    "centred": lambda v: np.sum((v - v.mean()) ** 2),
    "scalar-dual": lambda v: np.sum(v * v[0] + v / np.sum(v * v)),
    "constant-array": lambda v: np.sum(np.sin(v) * CONST + np.cos(v) / (CONST + 3.0) - CONST / v),
    "dense-operand": lambda v: np.sum(v[1:] * v.reshape((K,))[:-1]) - np.sum(v.reshape((K,)) / v),
    "three-nonzeros": lambda v: np.sum(v[:-2] * v[1:-1] * v[2:]),
    "empty-slices": lambda v: np.sum(v[3:3]) + np.sum(v[2990:] * 3.0) + v[0] + np.sum(v[5:2:-1]),
    "powers": lambda v: np.sum(abs(v) ** 1.5 + np.log(v * v + 1.0) + np.exp(-v) * np.tan(v / 3)),
}


@pytest.mark.parametrize("chunk", [8, 10])
@pytest.mark.parametrize("name", list(TARGETS))
def test_windowed_passes_equal_one_dense_pass_and_threads(name, chunk):
    f, x = TARGETS[name], _point(K)
    got, windowed = _windowed_passes(f, x, ChunkConfig(chunk))
    assert windowed == -(-K // chunk) - 1  # every pass but pass 0
    dense = gradient(f, x, ChunkConfig(K))  # one pass, and pass 0 is dense
    threaded = gradient(f, x, ChunkConfig(chunk, 2))
    assert np.array_equal(got.values, dense.values)
    assert np.array_equal(got.values, threaded.values)
    assert got.f_value == dense.f_value == threaded.f_value


def _program(seed):
    """A random target of slices, elementwise rules, sums and mixed operands."""
    steps = np.random.default_rng(seed).integers(0, 40, size=(6, 3))

    def f(v):
        stack = [v]
        for op, i, j in steps:
            a, b = stack[-1], stack[i % len(stack)]
            m = min(len(a), len(b))
            out = [
                lambda: a[i : len(a) - j],
                lambda: a[::-1] if j % 2 else a[len(a) - i - 1 : j : -1],
                lambda: np.sin(a) * a - np.cos(a / 8.0),
                lambda: a[:m] * b[len(b) - m :] - b[:m] / (a[:m] ** 2 + 1.0),
                lambda: a * np.sum(b[i::j + 1]) if j % 3 else a - a.mean(),
                lambda: (a * a[i % len(a)])[:: 1 + j % 2],
                lambda: a * CONST[: len(a)] + (np.sum(a[j:]) if j % 2 else 1.0),
                lambda: np.sqrt(a * a + 1.0) / (a[::-1] ** 2 + 2.0),
            ][op % 8]()
            stack.append(out)
        return sum(np.sum(s) for s in stack[1:])

    return f


@pytest.mark.parametrize("seed", range(20))
def test_random_programs_equal_one_dense_pass(seed):
    f, x = _program(seed), _point(K, seed)
    got, windowed = _windowed_passes(f, x, ChunkConfig(10))
    assert windowed == K // 10 - 1
    assert np.array_equal(got.values, gradient(f, x, ChunkConfig(K)).values)


def test_jacobian_of_shifted_outputs_equals_one_dense_pass_and_threads():
    # k=1000 keeps the 999 x 1000 result at 8 MB; chunk 10 is an 80 KB lane block
    x = _point(1000)

    def f(v):
        return v[1:] * v[:-1] - np.sin(v[::-1][1:])

    got = jacobian(f, x, ChunkConfig(10))
    assert np.array_equal(got.entries, jacobian(f, x, ChunkConfig(1000)).entries)
    assert np.array_equal(got.entries, jacobian(f, x, ChunkConfig(10, 2)).entries)
    assert np.array_equal(got.f_value, f(x))


def test_a_poisoned_component_leaves_the_other_results_exact():
    # declared fix (NaN-safe lanes), pinned before as test_non_finite_results_stay_as_they_were:
    # 2999 NaNs and no windowed pass, since pass 0's lanes were NaN.  Now pass 0 is finite,
    # the later passes keep their windows, and only the pass holding component 1500 runs again
    x = np.ones(K)
    x[1500] = 0.0
    results = {
        chunk: _windowed_passes(lambda v: np.sum(np.sqrt(v)), x, ChunkConfig(chunk))
        for chunk in (10, 64, K)
    }
    first = results[K][0].values
    assert np.isinf(first[1500]) and np.all(np.delete(first, 1500) == 0.5)
    for chunk, (got, windowed) in results.items():
        assert got.values.tobytes() == first.tobytes()
        assert windowed == (0 if chunk == K else math.ceil(K / chunk))  # its masked run too
    entries = jacobian(lambda v: np.sqrt(v) * 2.0, x, ChunkConfig(10)).entries
    want = np.diag(np.where(x == 0.0, np.inf, 1.0))
    assert entries.tobytes() == want.tobytes()  # no NaN, and every zero +0.0


def test_integer_indexing_and_iteration_never_build_the_full_block(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a lane window was widened to its full block")

    f, x = TARGETS["iteration"], _point(K)
    want = gradient(f, x, ChunkConfig(K))
    monkeypatch.setattr(pool._Window, "__array__", refuse)
    for name in ("integer", "iteration"):
        got, windowed = _windowed_passes(TARGETS[name], x, ChunkConfig(10))
        assert windowed == K // 10 - 1
    assert np.array_equal(got.values, want.values)


def test_windows_only_on_large_first_order_lane_blocks():
    # below POOL_MIN_BYTES: 8 lanes x 1000 components is a 64 000 byte block
    assert _windowed_passes(rosenbrock, _point(1000), ChunkConfig(8))[1] == 0
    assert _windowed_passes(rosenbrock, _point(1100), ChunkConfig(8))[1] == 137
    # the gate counts the columns a window skips: 64 x (140 - 128) x 8 bytes is
    # under POOL_MIN_BYTES, 64 x (256 - 128) x 8 is just at it
    assert _windowed_passes(rosenbrock, _point(140), ChunkConfig(64))[1] == 0
    assert _windowed_passes(rosenbrock, _point(256), ChunkConfig(64))[1] == 3
    seen = []

    def recorded(v):
        seen.append(_holds_a_window(v))
        return rosenbrock(v)

    hessian(recorded, _point(120), 30, 30)  # 30 x 120 and 30 x 30 x 120 lanes
    assert len(seen) == 16 and not any(seen)
    # explicit chunks keep the dense plan, and so does every third-order tensor
    seen.clear()
    hessian(recorded, _point(120), 120, 8)
    third_order_tensor(recorded, _point(8))
    third_order_tensor(recorded, _point(8), (8, 1, 8))
    assert len(seen) == 15 + 1 + 8 and not any(seen)
    # a default Hessian keeps its outer lanes in band from k=27, where that is faster
    seen.clear()
    hessian(recorded, _point(26))
    hessian(recorded, _point(27))
    hessian(recorded, _point(100))
    assert seen == [False, True] + [True] * 6


def _holds_a_window(v):
    """Whether a lane block of v, at any nesting level, is a lane window."""
    if type(v) is pool._Window:
        return True
    nested = isinstance(v, (DualVector, NestedDualVector))
    return nested and (_holds_a_window(v.values) or _holds_a_window(v.partials))


def test_window_slices_match_the_dense_block():
    # pinned before with the lanes themselves as the block, one lane a row
    lanes = np.arange(1.0, 13.0).reshape(3, 4)
    win = pool._Window(np.ascontiguousarray(lanes.T), 5, 12)
    full = np.asarray(win)
    assert full.shape == (3, 12) and np.array_equal(full[:, 5:9], lanes)
    assert not full[:, :5].any() and not full[:, 9:].any()
    for i in (slice(None), slice(6, None), slice(None, 7), slice(9, 11), slice(2, 4),
              slice(None, None, -1), slice(7, 2, -1), slice(10, None, -1), slice(4, 1, -1),
              slice(8, 3), slice(5, 5), slice(9, 9), slice(5, 5, -1), slice(3, 8, -1),
              slice(None, 5), slice(9, None), slice(None, 4, -1), slice(5, None, -1),
              slice(None, None, 2), 4, 5, 8, -4, -12, np.int32(6)):
        got = win[(pool._EVERY_LANE, i)]
        assert np.array_equal(np.asarray(got), full[:, i]), i
        if isinstance(i, slice) and i.step in (None, -1):
            assert type(got) is pool._Window, i
    for idx in ((1, 6), (slice(None), 7), (np.array([2, 0]), 5), 2, (slice(None), [5, 9, 0])):
        assert np.array_equal(np.asarray(win[idx]), full[idx]), idx


def test_window_products_and_quotients_match_the_dense_block():
    win = pool._Window(np.arange(1.0, 13.0).reshape(4, 3), 5, 12)  # was (3, 4): one lane a row
    full, coeff = np.asarray(win), np.linspace(-1.0, 1.0, 12)
    with np.errstate(all="ignore"):
        for op, ufunc in ((pool._WINDOW_OPS.mul, np.multiply), (pool._WINDOW_OPS.div, np.divide)):
            for a, b, dense in ((win, coeff, (full, coeff)), (coeff, win, (coeff, full))):
                got = np.asarray(op(a, b))
                assert np.array_equal(got, ufunc(*dense), equal_nan=True), (op, type(a))


def test_scalar_dual_against_a_float_array_equals_one_dense_pass():
    def f(v):
        return np.sum(CONST * v.mean() - v[7] / CONST + (CONST + v.sum()) * v)

    x = _point(K)
    got, windowed = _windowed_passes(f, x, ChunkConfig(10))
    assert windowed == K // 10 - 1
    assert np.array_equal(got.values, gradient(f, x, ChunkConfig(K)).values)


# ----------------------------------------------------------------------
# the default plan: one band pass on up to 32768 components, which f runs
# in band; a pass that stops runs pass 0 again dense at default_chunk(k)
# ----------------------------------------------------------------------

N0 = default_chunk(K)
BIG_K = 40000  # two blocks of up to 32768 lanes
BAND_PASSES = 1  # one guarded band pass on all K components
# the targets whose guarded pass would build a full block: pass 0 runs again
# dense at N0 lanes, and every later pass takes N0 lanes too
WIDENING = {"step-2", "fancy", "reshape", "centred", "scalar-dual", "dense-operand"}
# the targets whose guarded pass would fall back to a column window (the
# reversed operand): after pass 0 at N0 the rest takes WIDE_CHUNK lanes a pass
CUTTING = {"reversed"}


def _default_passes(name, driver=gradient):
    """Evaluations of TARGETS[name] in a default gradient or one-output Jacobian at K,
    a stopped pass counted."""
    if name in WIDENING:
        return 1 + math.ceil(K / N0)
    if name in CUTTING:
        return 2 + math.ceil((K - N0) / WIDE_CHUNK)
    # a Jacobian's pass 0 takes N0 lanes, since it reads the outputs that size the rest
    return BAND_PASSES if driver is gradient else 2


def test_wide_chunk_is_512_and_a_default_gradient_plans_blocks_of_32768_lanes():
    # pinned before (as test_wide_chunk_is_512_and_the_end_passes_take_n0_lanes): the plan
    # [0, N0), the middle, then an end pass [K - N0, K) as narrow as pass 0, so that a
    # slice cutting a band fell back on N0 lanes.  A cut band now overhangs and stays one.
    assert WIDE_CHUNK == 512 and drivers._wide() == LANE_BLOCK_BYTES // 8 == 32768
    assert _plan(K, None) == [slice(0, K)]
    assert _plan(BIG_K, None) == [slice(0, 32768), slice(32768, BIG_K)]
    # a Jacobian's N x outputs result block stays in the budget: 64 outputs keep 512 lanes
    assert drivers._wide(2) == 16384 and drivers._wide(64) == drivers._wide(999) == WIDE_CHUNK
    assert _plan(K, N0) == [slice(p, p + N0) for p in range(0, K, N0)]
    # below the window gate the default chunk takes its N0 lanes a pass
    assert _plan(250, None) == [slice(0, 131), slice(131, 250)] and default_chunk(250) == 131


@pytest.mark.parametrize("name", list(TARGETS))
def test_default_plan_equals_every_chunk_size_and_threads(name):
    f, x = TARGETS[name], _point(K)
    counted = EvalCounter(f)
    got = gradient(counted, x)
    assert counted.count == _default_passes(name)
    for cfg in (ChunkConfig(8), ChunkConfig(K), ChunkConfig(threads=2)):
        other = gradient(f, x, cfg)
        assert np.array_equal(got.values, other.values), cfg
        assert got.f_value == other.f_value


@pytest.mark.parametrize("name", list(TARGETS))
def test_default_jacobian_plan_equals_every_chunk_size_and_threads(name):
    f, x = TARGETS[name], _point(K)
    counted = EvalCounter(lambda v: [f(v)])
    got = jacobian(counted, x)
    assert counted.count == _default_passes(name, jacobian)
    for cfg in (ChunkConfig(8), ChunkConfig(K), ChunkConfig(threads=2)):
        other = jacobian(lambda v: [f(v)], x, cfg)
        assert np.array_equal(got.entries, other.entries), cfg
        assert np.array_equal(got.f_value, other.f_value)


def test_a_default_gradient_plans_its_passes_once_after_pass_0(monkeypatch):
    # pass 0 seeds its own block alone, so the ceil(K / N0) blocks of the
    # default chunk, which the band plan replaces, are never built; where
    # pass 0 covers every component, no block list is built at all
    longest = len(_plan(K, None))
    built, blocks = [], drivers._blocks

    def recorded(*args):
        out = blocks(*args)
        built.append(len(out))
        return out

    monkeypatch.setattr(drivers, "_blocks", recorded)
    counted = EvalCounter(rosenbrock)
    gradient(counted, _point(K))
    assert counted.count == longest == BAND_PASSES and built == []
    gradient(counted, _point(40000))  # two band passes: pass 0 plans the second one's block
    assert counted.count == BAND_PASSES + 2 and built == [1]


def test_reading_a_windowed_vector_result_does_not_count_as_widening():
    # _vector_output reads the lanes of v[1:] * v[:-1] as the full block.  Pass 0
    # takes N0 = 32 lanes, no more than WIDE_CHUNK, so the reversed operand's column
    # window does not stop it, and 999 outputs keep the rest at 512-lane blocks.
    # Pinned before: 5, the trial stopped by the column window and re-planned into
    # the same 512-lane blocks.
    x = _point(1000)
    counted = EvalCounter(lambda v: v[1:] * v[:-1] - np.sin(v[::-1][1:]))
    got = jacobian(counted, x)
    assert counted.count == 1 + math.ceil((1000 - default_chunk(1000)) / WIDE_CHUNK) == 3
    assert np.array_equal(got.entries, jacobian(counted.f, x, ChunkConfig(8)).entries)


def test_a_target_that_widens_only_after_pass_0_keeps_wide_passes_and_its_bits():
    # zero over the products that the first N0 seeds reach, with three nonzeros a
    # row elsewhere, which sum() adds over full rows in tiles of the lane block
    # budget: they do not leave the band.  Pinned before: 3 passes, a dense pass 0
    # on [0, N0) whose lane rows had no nonzeros, the trial and the end pass.
    mask = (np.arange(K - 2) >= N0 + 2).astype(float)

    def f(v):
        return np.sum(v[:-2] * v[1:-1] * v[2:] * mask)

    x = _point(K)
    counted = EvalCounter(f)
    got = gradient(counted, x)
    assert counted.count == BAND_PASSES
    for cfg in (ChunkConfig(8), ChunkConfig(K), ChunkConfig(threads=2)):
        assert np.array_equal(got.values, gradient(f, x, cfg).values), cfg


def test_a_default_gradient_seeds_one_band_pass_on_every_component():
    # pinned before (as test_a_default_gradient_seeds_pass_0_dense_then_the_trial_and_the_end_band):
    # a dense N0 x K pass 0, the trial band on [N0, K - N0), the end band on [K - N0, K)
    lanes = []

    def recorded(v):
        lanes.append(v.partials)
        return rosenbrock(v)

    gradient(recorded, _point(K))
    (band,) = lanes
    assert type(band) is pool._Window and band.block.shape == (1, K)  # was (K, 1): one lane a row
    assert (band.lo, band.skew, band.k) == (0, 1, K)


def test_the_stencil_takes_wide_passes_and_tiles_within_the_lane_block_budget(monkeypatch):
    f, x = TARGETS["three-nonzeros"], _point(K)
    want = [gradient(f, x, cfg) for cfg in (ChunkConfig(8), ChunkConfig(K), ChunkConfig(threads=2))]
    built = []
    empty, zeros = pool._pooled_empty, np.zeros
    monkeypatch.setattr(pool, "_pooled_empty", lambda shape: built.append(shape) or empty(shape))
    monkeypatch.setattr(np, "zeros", lambda shape, *a, **kw: built.append(shape) or zeros(shape, *a, **kw))
    counted = EvalCounter(f)
    got = gradient(counted, x)
    monkeypatch.undo()
    assert counted.count == BAND_PASSES
    assert built and max(math.prod(np.atleast_1d(s)) * 8 for s in built) <= max(LANE_BLOCK_BYTES, 8 * K)
    for other in want:
        assert got.values.tobytes() == other.values.tobytes() and got.f_value == other.f_value


def test_a_target_that_builds_a_full_block_in_the_trial_keeps_n0_lanes_a_pass():
    # pinned before: a dense pass 0, the stopped trial on the middle, then the end pass
    seen = []

    def recorded(v):
        lanes = v.partials
        seen.append((type(lanes), lanes.shape[0], getattr(lanes, "lo", None)))
        return TARGETS["fancy"](v)

    gradient(recorded, _point(K))
    assert len(seen) == 1 + math.ceil(K / N0)
    assert seen[0] == (pool._Window, K, 0)  # the band pass, stopped at the fancy index
    assert seen[1] == (np.ndarray, N0, None)  # pass 0 again, dense
    assert [lo for _, _, lo in seen[2:]] == list(range(N0, K, N0))
    assert all(kind is pool._Window and n == N0 for kind, n, _ in seen[2:])


# ----------------------------------------------------------------------
# the guard: f runs a wide pass in band, and a step out of it stops the
# pass before it builds anything; a non-finite pass runs again, masked
# ----------------------------------------------------------------------


def test_reading_a_vector_result_does_not_stop_the_trial():
    # _vector_output reads the lanes of the result as the full block, after f
    # returned: 999 outputs keep 512 lanes, so the rest takes two passes after
    # pass 0 on N0 lanes.  Pinned before: 4, with the end pass.
    x = _point(1000)
    counted = EvalCounter(lambda v: v[1:] * v[:-1] - np.sin(v[1:]))
    got = jacobian(counted, x)
    assert counted.count == 1 + math.ceil((1000 - default_chunk(1000)) / WIDE_CHUNK) == 3
    assert np.array_equal(got.entries, jacobian(counted.f, x, ChunkConfig(8)).entries)


def test_a_target_that_catches_the_stop_is_run_again_in_narrow_blocks():
    # pinned before with a slice that cut the band, which now overhangs instead
    def f(v):
        try:
            return np.sum(v * v[::-1]) + np.sum(v * v)  # opposite skews leave the band
        except BaseException:
            return 0.0

    x = _point(K)
    counted = EvalCounter(f)
    got = gradient(counted, x)
    assert counted.count == 2 + math.ceil((K - N0) / WIDE_CHUNK)
    want = gradient(f, x, ChunkConfig(8))
    assert got.values.tobytes() == want.values.tobytes() and got.f_value == want.f_value


@pytest.mark.parametrize("f", [rosenbrock, ackley])
def test_a_band_target_runs_its_trial_without_leaving_the_band(monkeypatch, f):
    # pinned before: pass 0, the trial and the end pass, and no step out in the trial
    lanes, seen = [], []

    def recorded(v):
        lanes.append(v.partials.shape[0])
        return f(v)

    def watch(name, method):
        def watched(self, *args):
            seen.append((len(lanes), name, self.block.shape))
            return method(self, *args)

        monkeypatch.setattr(pool._Window, name, watched)

    watch("columns", pool._Window.columns)
    watch("full", pool._Window.full)
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape, *a, **kw: seen.append(
        (len(lanes), "zeros", shape)) or zeros(shape, *a, **kw))
    x = _point(K)
    got = gradient(recorded, x)
    monkeypatch.undo()
    assert lanes == [K]  # one pass, in band
    in_pass = [(name, shape) for p, name, shape in seen if p == 1]
    assert not [name for name, _ in in_pass if name != "zeros"], in_pass
    assert all(math.prod(np.atleast_1d(s)) * 8 <= LANE_BLOCK_BYTES for _, s in in_pass)
    assert got.values.tobytes() == gradient(f, x, ChunkConfig(8)).values.tobytes()


def test_a_middle_wider_than_one_block_takes_two_passes():
    # pinned before: [8, 32768, 8, the rest], with the dense pass 0 and the end pass
    x = _point(BIG_K)
    lanes = []

    def recorded(v):
        lanes.append(v.partials.shape[0])
        return rosenbrock(v)

    got = gradient(recorded, x)
    assert lanes == [32768, BIG_K - 32768]
    assert got.values.tobytes() == gradient(rosenbrock, x, ChunkConfig(8)).values.tobytes()


def test_a_later_wide_block_that_leaves_its_band_runs_again_in_narrow_blocks():
    # the reversed slice meets the band only in the second block; pinned before with
    # a plain slice v[36000:], which now overhangs and stays in band
    def f(v):
        return np.sum(v[36000:] * v[36000:][::-1]) + np.sum(np.sin(v) * v)

    x = _point(BIG_K)
    lanes = []

    def recorded(v):
        lanes.append(v.partials.shape[0])
        return f(v)

    got = gradient(recorded, x, ChunkConfig(threads=2))
    rest = BIG_K - 32768
    tail = [WIDE_CHUNK] * (rest // WIDE_CHUNK) + [rest % WIDE_CHUNK]
    assert lanes == [32768, rest] + tail  # the stopped block, then its narrow blocks
    assert got.values.tobytes() == gradient(f, x, ChunkConfig(8)).values.tobytes()


def _threads_started(monkeypatch):
    started = []
    thread = threading.Thread

    def counted(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", counted)
    return started


def test_a_band_target_leaves_no_pass_for_a_worker(monkeypatch):
    x = _point(1000)
    serial = gradient(ackley, x)
    started = _threads_started(monkeypatch)
    got = gradient(ackley, x, ChunkConfig(threads=2))
    assert not started  # one pass, on the caller
    assert got.values.tobytes() == serial.values.tobytes() and got.f_value == serial.f_value


def test_a_target_that_stops_the_trial_still_fans_out(monkeypatch):
    f, x = TARGETS["fancy"], _point(K)
    serial = gradient(f, x)
    started = _threads_started(monkeypatch)
    got = gradient(f, x, ChunkConfig(threads=2))
    assert started == [1]
    assert got.values.tobytes() == serial.values.tobytes() and got.f_value == serial.f_value


# one bad component each (v / (v - v): all of them), and the passes of a default gradient
# and a one-output Jacobian whose lanes are not finite, so that they run again masked;
# |v| ** 1.5 at 0 and tan at pi / 2 keep finite coefficients (0 and 2.7e32)
POISONED = {
    "sqrt": (np.sqrt, 0.0, (1, 1)),
    "log": (np.log, 0.0, (1, 1)),
    "reciprocal": (lambda v: 1.0 / v, 0.0, (1, 1)),
    "abs-power-0.5": (lambda v: abs(v) ** 0.5, 0.0, (1, 1)),
    "exp": (np.exp, 710.0, (1, 1)),
    "v-over-zero": (lambda v: v / (v - v), None, (1, 2)),
    "abs-power-1.5": (lambda v: abs(v) ** 1.5, 0.0, (0, 0)),
    "tan": (np.tan, np.pi / 2, (0, 0)),
}


@pytest.mark.parametrize("driver", [gradient, jacobian])
@pytest.mark.parametrize("name", list(POISONED))
def test_a_non_finite_coefficient_keeps_the_band_pass(name, driver):
    # declared fix (NaN-safe lanes), pinned before as test_a_non_finite_coefficient_stops_the_band_pass:
    # the band pass stopped as "unsafe" and the call took 1 + ceil(K / N0) = 301 evaluations
    rule, bad, again = POISONED[name]
    x = np.linspace(0.5, 1.5, K)
    if bad is not None:
        x[1234] = bad
    f = (lambda v: np.sum(rule(v))) if driver is gradient else (lambda v: [np.sum(rule(v))])
    counted = EvalCounter(f)
    got, want = driver(counted, x), driver(f, x, ChunkConfig(K))
    if driver is gradient:
        assert got.values.tobytes() == want.values.tobytes() and got.f_value == want.f_value
        assert not np.isnan(np.delete(got.values, 1234)).any()
    else:
        assert got.entries.tobytes() == want.entries.tobytes()
    in_band = BAND_PASSES if driver is gradient else 2
    assert counted.count == in_band + again[driver is jacobian]


def test_a_driver_called_inside_f_keeps_the_outer_guard():
    # declared fix (NaN-safe lanes): the poisoned target took 1 + ceil(K / N0) evaluations
    # with 2999 NaNs; now its band pass and that pass's masked run, with none
    w = _point(K, 5)
    x = np.ones(K)
    x[1500] = 0.0  # sqrt's coefficient is inf there
    counted = EvalCounter(lambda v: float(gradient(rosenbrock, w).values[0]) * np.sum(np.sqrt(v)))
    got = gradient(counted, x)
    assert counted.count == BAND_PASSES + 1
    assert got.values.tobytes() == gradient(counted.f, x, ChunkConfig(K)).values.tobytes()
    assert not np.isnan(got.values).any() and np.isinf(got.values[1500])
    # a finite target keeps its one band pass: an inner call's dense seeding does not
    # stop it (before, it did, and the call took ceil(K / N0) + 1 passes)
    inners = (lambda: gradient(rosenbrock, w).values[0], lambda: hessian(ackley, w[:30]).f_value)
    for inner in inners:
        counted = EvalCounter(lambda v: np.sum(v * v) * float(inner()))
        got = gradient(counted, _point(K))
        assert counted.count == BAND_PASSES
        want = gradient(counted.f, _point(K), ChunkConfig(8))
        assert got.values.tobytes() == want.values.tobytes()


# the window paths a poisoned component meets: a band, column windows, the full block, a
# window joined to dense lanes, a tiled sum, a scalar operand, integer indexes
POISON_PATHS = ["rosenbrock", "ackley", "reversed", "fancy", "dense-operand", "three-nonzeros",
                "scalar-dual", "iteration"]


@pytest.mark.parametrize("name", POISON_PATHS)
def test_one_poisoned_component_gives_the_same_bytes_at_every_chunk(name):
    # sqrt(|v|) at 0: abs leaves exact-zero lanes there and sqrt an infinite coefficient, so
    # every dense pass is NaN until it runs again masked; a band pass only at the component
    f, x = TARGETS[name], _point(K)
    x[1234] = 0.0

    def poisoned(v):
        return f(v) + np.sum(np.sqrt(abs(v)))

    want = gradient(poisoned, x, ChunkConfig(K))
    assert np.isfinite(want.values).all()
    for cfg in (None, ChunkConfig(7), ChunkConfig(threads=2)):
        got = gradient(poisoned, x, cfg)
        assert got.values.tobytes() == want.values.tobytes(), cfg
        assert np.float64(got.f_value).tobytes() == np.float64(want.f_value).tobytes()  # 0 / 0 too


def _spy_value_channel(monkeypatch):
    """The value-channel ops a driver sends through ``pool.pooled`` or the window operations:
    those, of the window operations, that get no lane window."""
    seen, pooled = [], pool.pooled
    monkeypatch.setattr(pool, "pooled", lambda ufunc, *args: seen.append(ufunc.__name__) or pooled(ufunc, *args))
    for name in pool._UFUNCS:
        op = getattr(pool._WINDOW_OPS, name)

        def spied(*args, op=op, name=name):
            if not any(type(a) is pool._Window for a in args):
                seen.append(name)
            return op(*args)

        monkeypatch.setattr(pool._WINDOW_OPS, name, spied)
    return seen


def test_a_band_pass_sends_no_value_channel_op_through_the_pool_or_the_window_ops(monkeypatch):
    x = _point(K)
    want = (gradient(rosenbrock, x), hessian(rosenbrock, x[:30]))
    seen = _spy_value_channel(monkeypatch)
    lanes = []

    def recorded(v):
        lanes.append(_holds_a_window(v))
        return rosenbrock(v)

    got = gradient(recorded, x), hessian(recorded, x[:30])
    monkeypatch.undo()
    assert lanes == [True, True] and seen == []  # one band pass each
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert got[1].entries.tobytes() == want[1].entries.tobytes()


def test_a_large_value_channel_still_draws_from_the_pool(monkeypatch):
    # from k = 8192 a (k,) float64 value is POOL_MIN_BYTES: pooling there was measured to
    # matter (a dense target read 2.29x without the pool at k=12000)
    k, taken = 8192, []
    take = pool._Pool.take
    monkeypatch.setattr(pool._Pool, "take", lambda self, shape: taken.append(shape) or take(self, shape))
    got = gradient(ackley, _point(k))
    assert (pool._SOLE is None) == ((k,) not in taken)  # no pool where reuse is off
    monkeypatch.undo()
    assert got.values.tobytes() == gradient(ackley, _point(k), ChunkConfig(8)).values.tobytes()


def _peak(target, k):
    """(result bytes equal to chunk 8's, evaluations, growth of ru_maxrss in MiB) of a
    default gradient of ``target``, the source of a function of v, at _point(k), in a
    fresh process."""
    code = f"""if True:
        import resource, numpy as np
        from dualgrad import ChunkConfig, EvalCounter, gradient
        x = np.random.default_rng(11).uniform(-2.0, 2.0, {k})
        f = EvalCounter({target})
        want = gradient(f.f, x, ChunkConfig(8))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        got = gradient(f, x)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(got.values.tobytes() == want.values.tobytes(), f.count, (after - before) / 1024)
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    same, count, grew = done.stdout.split()
    return same == "True", int(count), float(grew)


def test_a_far_apart_union_stops_the_band_pass_and_keeps_its_peak():
    # v[:k//2] and v[k//2:] overhang as bands 6000 columns apart: their union in one
    # band pass would be a 12000 x 6001 block, so it stops as a column window does
    same, count, grew = _peak("lambda v: np.sum(v[: len(v) // 2] * v[len(v) // 2 :])", 12000)
    assert same and count == 2 + math.ceil((12000 - 8) / WIDE_CHUNK)
    # one 512 x 6001 union (23.4 MiB) in the pass that straddles k/2, as before this
    # plan: the peak rose by 26.7 MiB over chunk 8's before, and by 25.4 after
    assert grew <= WIDE_CHUNK * 6001 * 8 / 2**20 + 4


def test_a_scalar_dual_operand_stops_the_band_pass_before_its_full_block():
    # the scalar's K lanes joined to the band make the full K x K block (68.7 MiB), so
    # the band pass stops, and pass 0 runs again dense at N0.  Before, the rule built
    # the scalar's plain K x K product first and stopped only at the join: the peak
    # rose by 68.8 MiB over chunk 8's, in the same 301 evaluations
    same, count, grew = _peak("lambda v: np.sum(v * v[0])", K)
    assert same and count == 1 + math.ceil(K / N0) == 301
    assert grew <= K * K * 8 / 2**20 / 8


# ----------------------------------------------------------------------
# bands: a window of skew 1 or -1 holds diagonals, lane n's entry t at
# column lo + skew * n + t; its block holds the columns it spans in [0, k)
# ----------------------------------------------------------------------

BAND_K = 20


def _from_lanes(lanes, lo, k, skew):
    """The window whose entry (t, *e, n) of ``lanes``, a (w, *extra, N) block, is lane n's
    column lo + skew * n + t; entries outside [0, k) are dropped.  A band's block holds the
    columns it spans in [0, k), and NaN where a diagonal has no lane, which no read may see."""
    if not skew:
        return pool._Window(lanes, lo, k)
    w, n = lanes.shape[0], lanes.shape[-1]
    reach = skew * (n - 1)
    c0, stop = max(lo + min(reach, 0), 0), min(lo + w + max(reach, 0), k)
    block = np.full((*lanes.shape[:-1], max(stop - c0, 0)), np.nan)
    for t in range(w):
        for m in range(n):
            col = lo + skew * m + t
            if 0 <= col < k:
                block[t, ..., col - c0] = lanes[t, ..., m]
    return pool._Window(block, lo, k, skew, n)


def _band_window(skew, lo, rows=5, w=3, seed=3):
    """A band of w x rows random nonzero entries and its full block."""
    signs = np.where(np.arange(w) % 2, -1.0, 1.0)
    lanes = np.random.default_rng(seed).uniform(0.5, 2.0, (rows, w)) * signs
    win = _from_lanes(np.ascontiguousarray(lanes.T), lo, BAND_K, skew)
    full = np.zeros((rows, BAND_K))
    for n in range(rows):
        full[n, lo + skew * n : lo + skew * n + w] = lanes[n]
    assert np.array_equal(np.asarray(win), full)
    return win, full


BANDS = [(1, 4), (1, 0), (1, 13), (-1, 9), (-1, 4), (-1, 17)]  # edges of [0, BAND_K) included


def _overhanging(skew, lo, k=4, rows=5, w=3):
    """A band of w x rows entries at lo that overhangs [0, k), zero there, and its full block."""
    block = np.random.default_rng(7).uniform(0.5, 2.0, (rows, w)).T.copy()
    full = np.zeros((rows, k))
    for n in range(rows):
        for t in range(w):
            col = lo + skew * n + t
            if 0 <= col < k:
                full[n, col] = block[t, n]
    return _from_lanes(block, lo, k, skew), full


def _checked_band_views(monkeypatch):
    """A list that records, for each strided band view made from now on, whether it stays
    inside its array."""
    views, band = [], pool._band

    def checked(a, start, dt, dn, shape, *de):
        # the first and the last entry the view reaches, along each axis by its step
        reach = [step * (size - 1) for step, size in zip((dt, *de, dn), shape)]
        first, last = start + sum(min(r, 0) for r in reach), start + sum(max(r, 0) for r in reach)
        views.append(not math.prod(shape) or 0 <= first and last < a.size)
        return band(a, start, dt, dn, shape, *de)

    monkeypatch.setattr(pool, "_band", checked)
    return views


@pytest.mark.parametrize("skew, lo", [(1, -2), (-1, 3)])
def test_a_band_may_overhang_both_ends_of_its_columns(monkeypatch, skew, lo):
    # pinned before (as test_a_band_must_lie_inside_its_columns): a band whose
    # entries left [0, k) raised ValueError.  It now overhangs, and no strided
    # view of its block reads outside its array.  Pinned before: a coefficient
    # was cut to the lane-aligned block, ones where the band overhangs; the
    # block now holds the columns [0, k) only, and takes the coefficient whole.
    win, full = _overhanging(skew, lo)
    first, stop = win.span()
    assert first < 0 and stop > win.k  # both ends
    assert (win.c0, win.block.shape) == (0, (3, win.k))
    views = _checked_band_views(monkeypatch)
    assert np.array_equal(np.asarray(win), full)
    cols = win.columns()
    assert cols.skew == 0 and (cols.lo, cols.hi) == (0, win.k)
    assert np.array_equal(np.asarray(cols), full)
    coeff = np.array([0.5, -2.0, 4.0, 0.25])
    for op, ufunc in ((pool._WINDOW_OPS.mul, np.multiply), (pool._WINDOW_OPS.div, np.divide)):
        got = op(win, coeff)
        assert type(got) is pool._Window and np.array_equal(np.asarray(got), ufunc(full, coeff))
        assert np.array_equal(got.block, ufunc(win.block, coeff), equal_nan=True)
    assert np.array_equal(win.sum(axis=-1), full.sum(axis=-1))
    for i in range(-win.k, win.k):
        assert np.array_equal(win[(pool._EVERY_LANE, i)], full[:, i])
    for i in (slice(1, None), slice(None, 3), slice(1, 3), slice(None, None, -1), slice(2, 0, -1)):
        got = win[(pool._EVERY_LANE, i)]
        assert got.skew == skew * (i.step or 1) and np.array_equal(np.asarray(got), full[:, i])
    assert views and all(views)
    # pinned before with a 3-D block: blocks with component axes before the lanes' are windows
    # now (a Hessian's second-order lanes), so the rejected block is 1-D
    with pytest.raises(ValueError, match="w x N block"):
        pool._Window(np.ones(5), 4, BAND_K, 1)


def test_no_band_view_reads_outside_its_array(monkeypatch):
    views = _checked_band_views(monkeypatch)
    for f in list(TARGETS.values()) + [_program(seed) for seed in (0, 2, 5)]:
        gradient(f, _point(K))
    for f in HESSIAN_BAND.values():  # second-order lanes: views with a step along extra axes
        hessian(f, _point(30))
    assert views and all(views)


def test_in_band_stops_at_the_first_step_out_and_drops_what_follows():
    win, full = _band_window(1, 4)
    reversed_ = (pool._EVERY_LANE, slice(None, None, -1))

    def caught_then_full(w):
        try:
            w.columns()  # a band that becomes a column window: stopped
        except BaseException:
            pass
        return np.asarray(w)  # stopped again; "full" wins

    def caught_then_failed(w):
        try:
            pool._WINDOW_OPS.add(w, w[reversed_])  # opposite skews: a column window
        except BaseException:
            raise ValueError("what f raises after the stop is dropped")

    assert pool.in_band(caught_then_full, win) == (None, "full")
    assert pool.in_band(caught_then_failed, win) == (None, "columns")
    assert pool.in_band(lambda w: w.sum(axis=-1).tobytes(), win) == (full.sum(-1).tobytes(), None)
    # a slice that cuts the band overhangs it and stays in band
    assert pool.in_band(lambda w: w[(pool._EVERY_LANE, slice(5, None))].skew, win) == (1, None)
    with pytest.raises(ZeroDivisionError):  # an error of f's own, with no step out
        pool.in_band(lambda w: 1 / 0, win)
    assert np.array_equal(np.asarray(win), full)  # outside in_band nothing stops


def _coefficient_kinds(value, k, extra=3):
    """``value`` as each kind of coefficient a band op meets, by name: on a first-order
    band a scalar or a (k,) row, on a Hessian's second-order lanes an (E, k) block.  In an
    array it sits on one entry, the others 1.5."""
    row, rows = np.full(k, 1.5), np.full((extra, k), 1.5)
    row[k // 2] = rows[1, 3] = value
    return {
        "float": float(value),
        "float64": np.float64(value),
        "0-d": np.array(value),
        "(k,)": row,
        "(E, k)": rows,
    }


@pytest.mark.parametrize("kind", ["float", "float64", "0-d", "(k,)", "(E, k)"])
@pytest.mark.parametrize(
    "name, value, op",
    [("inf", np.inf, "mul"), ("nan", np.nan, "mul"), ("inf", np.inf, "div"), ("zero", 0.0, "div")],
)
def test_a_guarded_band_pass_keeps_every_kind_of_non_finite_coefficient(kind, name, value, op):
    # declared fix (NaN-safe lanes), pinned before as
    # test_a_guarded_band_pass_stops_unsafe_on_every_kind_of_coefficient: each bad coefficient
    # stopped the pass as "unsafe".  Now it stays in band, and on masked lanes (the run again
    # of a pass whose lanes are not finite) the window's full block is the dense block's
    k, extra = 40, 3
    if kind == "(E, k)":  # the second-order lanes of a Hessian's band pass: a w x E x N window
        win, full = _extra_window(1, 2, k, extra)
        v, masked = (DualVector(np.ones((extra, k)), w) for w in (win, win.like(win.block.view(pool._Masked))))
    else:
        v, masked = (drivers._seeded(_point(k), (slice(0, k),), True, kind) for kind in (np.ndarray, pool._Masked))
        full = np.eye(k)
    rule = (lambda a, b: a * b) if op == "mul" else (lambda a, b: a / b)
    bad, good = _coefficient_kinds(value, k, extra)[kind], _coefficient_kinds(0.75, k, extra)[kind]
    ufunc = np.multiply if op == "mul" else np.divide
    huge = np.full(np.shape(good), 1e307)  # finite entries whose sum overflows
    mixed = huge.copy()
    mixed.flat[0], mixed.flat[-1] = np.inf, -np.inf
    for coeff in [bad, good] + ([huge, mixed] if np.ndim(good) else []):
        with np.errstate(all="ignore"):  # as a driver runs its passes
            got, left = pool.in_band(lambda w: rule(w, coeff), v)
            assert left is None and type(got.partials) is pool._Window
            got, left = pool.in_band(lambda w: rule(w, coeff), masked)
            dense = ufunc(full.view(pool._Masked), coeff)
        assert left is None and type(got.partials.block) is pool._Masked
        if coeff is mixed:  # 0 / -inf is -0.0 in the dense block, +0.0 where a window has no entry
            assert np.array_equal(np.asarray(got.partials), dense, equal_nan=True)
        else:
            assert np.asarray(got.partials).tobytes() == dense.tobytes()
        assert not np.isnan(np.asarray(dense)[full == 0]).any()
    good_full = pool.in_band(lambda w: rule(w, good), v)[0].partials
    assert np.asarray(good_full).tobytes() == ufunc(full, good).tobytes()  # plain lanes, finite
    assert pool._active.guard == () and pool._active.left is None


def test_in_band_takes_the_stops_it_is_given_and_restores_the_guard():
    win, full = _band_window(1, 4)
    coeff = np.linspace(-1.0, 1.0, BAND_K)
    # non-finite coefficients, which stopped the pass as "unsafe" before NaN-safe lanes
    bad = [coeff.copy() for _ in range(3)]
    bad[0][2], bad[1][19] = np.inf, np.nan  # outside the entries too
    zero = coeff.copy()
    zero[7] = 0.0
    with np.errstate(all="ignore"):  # as a driver runs its passes
        for c in bad[:2] + [np.float64(np.inf)]:
            assert pool.in_band(lambda w: pool._WINDOW_OPS.mul(w, c), win)[1] is None
        assert pool.in_band(lambda w: pool._WINDOW_OPS.div(w, zero), win)[1] is None
    got, left = pool.in_band(lambda w: pool._WINDOW_OPS.mul(w, coeff), win)
    assert left is None and np.array_equal(np.asarray(got), full * coeff)
    # a narrow pass keeps its column windows, and stops on a full block only
    narrow = ("full",)
    got, left = pool.in_band(lambda w: w.columns(), win, narrow)
    assert left is None and got.skew == 0 and np.array_equal(np.asarray(got), full)
    assert pool.in_band(np.asarray, win, narrow) == (None, "full")

    def nested(w):  # an inner guard, then a step out under the outer one
        assert pool.in_band(lambda v: v.sum(axis=-1), w, narrow)[1] is None
        return w.columns()

    assert pool.in_band(nested, win) == (None, "columns")
    with pool.lane_pool():  # a driver call inside a guarded f runs unguarded
        assert np.array_equal(np.asarray(win), full)
    assert pool._active.guard == () and pool._active.left is None


@pytest.mark.parametrize("skew, lo", BANDS)
def test_band_integer_indexes_match_the_full_block(skew, lo):
    win, full = _band_window(skew, lo)
    indexes = list(range(-BAND_K, BAND_K)) + [np.int64(7), np.int32(-3)]
    rows, left = pool.in_band(lambda w: [w[(pool._EVERY_LANE, i)] for i in indexes], win)
    assert left is None  # no index leaves the band
    for i, got in zip(indexes, rows):
        assert type(got) is np.ndarray and np.array_equal(got, full[:, i]), i


@pytest.mark.parametrize("skew, lo", BANDS)
def test_band_slices_match_the_full_block(skew, lo):
    win, full = _band_window(skew, lo)
    first, stop = win.span()
    kept = cut = 0
    for a in (None, 0, 1, 3, 4, 5, 9, 12, 17, 19, -2):
        for b in (None, 0, 2, 4, 8, 11, 12, 16, 19, -1):
            for step in (None, 1, -1):
                i = slice(a, b, step)
                got = win[(pool._EVERY_LANE, i)]
                assert type(got) is pool._Window and np.array_equal(np.asarray(got), full[:, i]), i
                taken = range(BAND_K)[i]
                inside = all(c in taken for c in range(first, stop))
                if got.block.size:  # the band stays one, mirrored by a reversal
                    # pinned before: the block kept its shape, zero outside the slice; it
                    # keeps its diagonals and the columns of the slice that the band spans
                    spanned = sum(max(first, 0) <= c < min(stop, BAND_K) for c in taken)
                    assert got.skew == skew * taken.step and got.block.shape == (3, spanned), i
                    kept += inside
                    cut += not inside  # it cuts the band's edge, and overhangs the slice
    assert kept and cut


@pytest.mark.parametrize("skew, lo", BANDS)
def test_band_products_quotients_and_coefficients_match_the_full_block(skew, lo):
    win, full = _band_window(skew, lo)
    coeff = np.linspace(-1.0, 1.0, BAND_K) ** 3 + 0.25
    # pinned before: the coefficient was cut to a (w, N) view, entry (t, n) at lane n's
    # column; the block's columns now take the coefficient's own by broadcasting
    cols = coeff[win.c0 : win.c0 + win.block.shape[1]]
    assert np.array_equal(pool._WINDOW_OPS.mul(win, coeff).block, win.block * cols, equal_nan=True)
    for c in (coeff[::-1], coeff.repeat(2)[::2]):  # strided coefficients
        assert np.array_equal(np.asarray(pool._WINDOW_OPS.mul(win, c)), full * c)
    for op, ufunc in ((pool._WINDOW_OPS.mul, np.multiply), (pool._WINDOW_OPS.div, np.divide)):
        for c in (coeff, 3.0, np.float64(-2.0), np.array([0.5])):
            got = op(win, c)
            assert type(got) is pool._Window and got.skew == skew
            assert np.array_equal(np.asarray(got), ufunc(full, c)), (op, c)
    neg = pool._WINDOW_OPS.neg(win)
    assert neg.skew == skew and np.array_equal(np.asarray(neg), -full)
    # pinned before as pool._cut(...) is None: any other shape reads the full block
    assert pool.in_band(lambda w: pool._WINDOW_OPS.mul(w, np.ones((2, BAND_K))), win) == (None, "full")


@pytest.mark.parametrize("skew, lo", BANDS)
def test_band_unions_match_the_full_block(skew, lo):
    win, full = _band_window(skew, lo)
    dense = np.linspace(-3.0, 3.0, 5 * BAND_K).reshape(5, BAND_K)
    partners = [(skew, lo, 3), (skew, lo + 1, 1), (skew, lo - 1, 2), (-skew, 9, 2), (0, 6, 4)]
    for other_skew, other_lo, w in partners:
        reach = other_skew * 4
        if not 0 <= other_lo + min(reach, 0) <= other_lo + w + max(reach, 0) <= BAND_K:
            continue  # that band would leave the columns
        other, other_full = _band_window(other_skew, other_lo, w=w, seed=5)
        for op, ufunc in ((pool._WINDOW_OPS.add, np.add), (pool._WINDOW_OPS.sub, np.subtract)):
            got = op(win, other)
            assert type(got) is pool._Window
            assert np.array_equal(np.asarray(got), ufunc(full, other_full))
            assert got.skew == (skew if other_skew == skew else 0)
    for op, ufunc in ((pool._WINDOW_OPS.add, np.add), (pool._WINDOW_OPS.sub, np.subtract)):
        assert np.array_equal(op(win, dense), ufunc(full, dense))
        assert np.array_equal(op(dense, win), ufunc(dense, full))
        assert np.array_equal(op(win, dense[:, :1]), ufunc(full, dense[:, :1]))


@pytest.mark.parametrize("skew, lo", BANDS + [(0, 6)])
def test_a_window_without_entries_joins_as_the_dense_block_would(skew, lo):
    win, _ = _band_window(skew, lo)
    block = win.block.copy()
    block[1] = -0.0  # signed zeros that a dense zero operand turns to +0.0
    win = win.like(block)
    full = np.asarray(win)
    empty = pool._Window(np.empty((0, 5)), 0, BAND_K)  # what a slice that misses the entries gives
    zeros = np.zeros_like(full)
    for op, ufunc in ((pool._WINDOW_OPS.add, np.add), (pool._WINDOW_OPS.sub, np.subtract)):
        for a, b, dense in ((win, empty, (full, zeros)), (empty, win, (zeros, full))):
            got = op(a, b)
            assert type(got) is pool._Window and (got.lo, got.skew) == (win.lo, skew)
            assert got.block.shape == block.shape  # no union with the empty one's columns
            assert np.asarray(got).tobytes() == ufunc(*dense).tobytes(), (op, a is win)


@pytest.mark.parametrize("skew, lo", BANDS)
def test_band_copies_and_sums_match_the_full_block(skew, lo):
    win, full = _band_window(skew, lo)
    copy = win.copy()
    assert copy.skew == skew and copy.block is not win.block
    assert np.array_equal(copy.block, win.block, equal_nan=True)
    for w in (1, 2, 3):  # at most 2 nonzeros a row, or 3 summed over the full rows
        band, band_full = _band_window(skew, lo, w=w)
        assert band.sum(axis=-1).tobytes() == band_full.sum(axis=-1).tobytes(), w
    sparse = win.like(win.block * (np.arange(3) != 1)[:, None])  # a zero in each lane: two nonzeros
    assert np.array_equal(sparse.sum(axis=-1), np.asarray(sparse).sum(axis=-1))


@pytest.mark.parametrize("k", [7, 1000, 12000])
@pytest.mark.parametrize("skew", [0, 1, -1])
def test_sums_over_full_rows_take_tiles_of_the_lane_block_budget(monkeypatch, k, skew):
    w = min(k, 5)
    rows = 127 if skew == 0 else min(127, k - w + 1)  # 127 leaves a short last tile at k=12000
    lanes = np.random.default_rng(k).uniform(-1.0, 1.0, (rows, w)) * 1e3 ** np.arange(w)
    win = _from_lanes(np.ascontiguousarray(lanes.T), 0 if skew == 1 else k - w, k, skew)
    want = np.asarray(win).sum(axis=-1)
    built = []
    empty = pool._pooled_empty
    monkeypatch.setattr(pool, "_pooled_empty", lambda shape: built.append(shape) or empty(shape))
    got, left = pool.in_band(lambda w: w.sum(axis=-1), win)
    assert got.tobytes() == want.tobytes()
    assert left is None  # tiles do not leave the band
    assert built and max(math.prod(s) * 8 for s in built) <= max(LANE_BLOCK_BYTES, 8 * k)


def test_rosenbrock_wide_passes_sum_bands_of_at_most_three_entries_a_lane(monkeypatch):
    # pinned before: two sums, the trial's and the end pass's, whose N0 lanes x[:-1]
    # cut into a column window of up to N0 x (N0 + 1) entries
    summed = []
    plain = pool._Window.sum

    def recorded(self, axis):
        summed.append((self.shape[0], self.block.shape, self.span()))
        return plain(self, axis)

    monkeypatch.setattr(pool._Window, "sum", recorded)
    x = _point(K)
    got = gradient(rosenbrock, x)
    (rows, shape, span), = summed  # one band pass; x[1:] and x[:-1] overhang [0, K - 1)
    # pinned before as a lane-aligned block of 2 x K entries; it now holds the K - 1
    # columns of x[1:] - x[:-1] ** 2 on its two diagonals
    assert rows == K and shape == (2, K - 1) and span == (-1, K)
    assert np.array_equal(got.values, gradient(rosenbrock, x, ChunkConfig(K)).values)


# ----------------------------------------------------------------------
# the layout: a band's block is w x C over the C columns it spans in
# [0, k), one diagonal a row, so that every rule runs its ufunc over rows
# of columns and takes a coefficient's own columns; a rule's result is
# C-contiguous, and a slice is a view whose rows are contiguous
# ----------------------------------------------------------------------


def _contiguous_rows(block):
    """A rule's result is C-contiguous; a slice of a band is a view of its columns, row by row."""
    return block.flags.c_contiguous or block.strides[-1] == block.itemsize


# (skew, lo, k) of 5 lanes on 3 diagonals: inside [0, k), overhanging its left
# end, its right end, and both; and column windows, which never overhang
LAYOUTS = [(1, 4, 20), (1, -2, 20), (1, 16, 20), (-1, 9, 20), (-1, 2, 20), (-1, 19, 20)]
LAYOUTS += [(1, -2, 4), (-1, 3, 4), (0, 6, 20), (0, 0, 20), (0, 16, 20)]


def _signed_window(skew, lo, k, negative=(1,), seed=3):
    """A window of w x N nonzero entries but -0.0 on the diagonals ``negative``, none
    outside [0, k), and its full block."""
    block = np.random.default_rng(seed).uniform(0.5, 2.0, (3, 5)) * [[1.0], [-1.0], [1.0]]
    block[list(negative)] = -0.0
    full = np.zeros((5, k))
    for t in range(3):
        for n in range(5):
            col = lo + skew * n + t
            if 0 <= col < k:
                full[n, col] = block[t, n]
    return _from_lanes(block, lo, k, skew), full


@pytest.mark.parametrize("skew, lo, k", LAYOUTS)
def test_every_read_of_a_window_gives_the_bytes_of_its_full_block(skew, lo, k):
    win, full = _signed_window(skew, lo, k)
    assert win.full().tobytes() == np.asarray(win).tobytes() == full.tobytes()
    cols = win.columns()
    assert cols.skew == 0 and np.asarray(cols).tobytes() == full.tobytes()
    assert cols.block.flags.c_contiguous and cols.block.shape == (cols.hi - cols.lo, 5)
    assert win.sum(axis=-1).tobytes() == full.sum(axis=-1).tobytes()
    for i in range(-k, k):
        assert win[(pool._EVERY_LANE, i)].tobytes() == full[:, i].tobytes(), i
    for a in (None, 0, 1, 3, k - 2, -1):
        for b in (None, 0, 2, k - 1, -3):
            for step in (None, -1):
                got = win[(pool._EVERY_LANE, slice(a, b, step))]
                assert _contiguous_rows(got.block), (a, b, step)  # was a C-contiguous block
                assert np.asarray(got).tobytes() == full[:, a:b:step].tobytes(), (a, b, step)
                assert got.sum(axis=-1).tobytes() == full[:, a:b:step].sum(axis=-1).tobytes(), (a, b, step)
    # one diagonal on: its -0.0 diagonals 0 and 1 meet our diagonals 1 (-0.0) and 2
    other, other_full = _signed_window(skew, lo + 1, k, (0, 1), seed=5)
    for op, ufunc in ((pool._WINDOW_OPS.add, np.add), (pool._WINDOW_OPS.sub, np.subtract)):
        got = op(win, other)
        first, stop = got.span()  # was a (4, 5) block for every skew
        cols = min(stop, k) - max(first, 0) if skew else 5
        assert (got.skew, got.lo, got.block.shape) == (skew, lo, (4, cols))
        assert np.asarray(got).tobytes() == ufunc(full, other_full).tobytes()


def test_every_window_of_a_band_pass_holds_a_c_contiguous_block(monkeypatch):
    built, init, like = [], pool._Window.__init__, pool._Window.like

    # pinned before: every block C-contiguous.  A slice, and a tile of a sum
    # over full rows, is now a view of its window's columns, whose rows are
    # contiguous; a rule's result still is C-contiguous
    def recorded(self, block, lo, k, skew=0, lanes=None):
        init(self, block, lo, k, skew, lanes)
        built.append(_contiguous_rows(block))

    def recorded_like(self, block):  # a rule's result, built without the constructor
        built.append(block.flags.c_contiguous)
        return like(self, block)

    monkeypatch.setattr(pool._Window, "__init__", recorded)
    monkeypatch.setattr(pool._Window, "like", recorded_like)
    for f in TARGETS.values():
        gradient(f, _point(K))
    assert built and all(built)


# ----------------------------------------------------------------------
# extra axes: the second-order lanes of a Hessian's band pass, full shape
# (N, E, k), are a w x E x C window, lane n's entry (t, e) at its (e, lo + skew * n + t)
# ----------------------------------------------------------------------


def _extra_window(skew, lo, k, extra, negative=(1,), seed=3):
    """A window of w x extra x N (w = 3, N = 5) nonzero entries but -0.0 on the diagonals
    ``negative``, none outside [0, k), and its full N x extra x k block."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.5, 2.0, (3, extra, 5)) * np.array([1.0, -1.0, 1.0])[:, None, None]
    block[list(negative)] = -0.0
    full = np.zeros((5, extra, k))
    for t in range(3):
        for n in range(5):
            col = lo + skew * n + t
            if 0 <= col < k:
                full[n, :, col] = block[t, :, n]
    return _from_lanes(block, lo, k, skew), full


def _coefficients(k, extra):
    """Positive coefficients of every shape a rule on (N, extra, k) lanes may scale them by
    (a positive one leaves the full block's zeros +0.0, as the window reads them)."""
    rng = np.random.default_rng(k + extra)
    row, rows = rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 2.0, (extra, k))
    yield from (2.5, np.array(3.0), np.array([0.75]), row, rows, row[None], rows[:, :1])
    yield np.broadcast_to(row, (extra, k))  # a stride of 0 along the extra axis
    yield rng.uniform(0.5, 2.0, (4, k))  # wider than a (w, 1, N) block: it broadcasts


@pytest.mark.parametrize("extra", [4, 1])
@pytest.mark.parametrize("skew, lo, k", LAYOUTS)
def test_every_read_of_a_window_with_extra_axes_gives_the_bytes_of_its_full_block(skew, lo, k, extra):
    win, full = _extra_window(skew, lo, k, extra)
    assert win.shape == full.shape
    assert win.full().tobytes() == np.asarray(win).tobytes() == full.tobytes()
    cols = win.columns()
    assert cols.skew == 0 and np.asarray(cols).tobytes() == full.tobytes()
    assert cols.block.flags.c_contiguous and cols.block.shape == (cols.hi - cols.lo, extra, 5)
    every = (pool._EVERY_LANE, pool._EVERY_LANE)
    for i in range(-k, k):
        assert win[every + (i,)].tobytes() == full[:, :, i].tobytes(), i
    for a in (None, 0, 1, 3, k - 2, -1):
        for b in (None, 0, 2, k - 1, -3):
            for step in (None, -1):
                got = win[every + (slice(a, b, step),)]
                assert _contiguous_rows(got.block), (a, b, step)  # was a C-contiguous block
                assert np.asarray(got).tobytes() == full[..., a:b:step].tobytes(), (a, b, step)
    for c in _coefficients(k, extra):
        if np.shape(c)[:1] == (4,) and extra == 4:
            continue  # the same shape as rows
        for op, ufunc in ((pool._WINDOW_OPS.mul, np.multiply), (pool._WINDOW_OPS.div, np.divide)):
            got, want = op(win, c), ufunc(full, c)
            assert type(got) is pool._Window and got.block.flags.c_contiguous, np.shape(c)
            assert got.shape == want.shape, np.shape(c)  # a coefficient may broadcast the block
            assert np.asarray(got).tobytes() == want.tobytes(), np.shape(c)
    # one diagonal on: its -0.0 diagonals 0 and 1 meet our diagonals 1 (-0.0) and 2
    other, other_full = _extra_window(skew, lo + 1, k, extra, (0, 1), seed=5)
    empty = pool._Window(np.empty((0, extra, 5)), 0, k)  # a Hessian band pass's seeded lanes
    zeros = np.zeros_like(full)
    for op, ufunc in ((pool._WINDOW_OPS.add, np.add), (pool._WINDOW_OPS.sub, np.subtract)):
        got = op(win, other)
        first, stop = got.span()  # was a (4, extra, 5) block for every skew
        cols = min(stop, k) - max(first, 0) if skew else 5
        assert (got.skew, got.lo, got.block.shape) == (skew, lo, (4, extra, cols))
        assert np.asarray(got).tobytes() == ufunc(full, other_full).tobytes()
        for a, b, dense in ((win, empty, (full, zeros)), (empty, win, (zeros, full))):
            got = op(a, b)
            assert type(got) is pool._Window and got.block.shape == win.block.shape
            assert np.asarray(got).tobytes() == ufunc(*dense).tobytes(), (op, a is win)
        # full lanes as the other operand give the full block, outside a guarded pass
        lanes = np.random.default_rng(9).uniform(-1.0, 1.0, full.shape)
        for a, b, dense in ((win, lanes, (full, lanes)), (lanes, empty, (lanes, zeros))):
            assert op(a, b).tobytes() == ufunc(*dense).tobytes(), (op, a is win)


@pytest.mark.parametrize("extra", [4, 1])
@pytest.mark.parametrize("skew, lo, k", LAYOUTS)
def test_window_sums_and_widening_with_extra_axes_give_the_bytes_of_the_full_block(skew, lo, k, extra):
    two, two_full = _extra_window(skew, lo, k, extra)  # diagonal 1 is -0.0: two nonzeros a lane
    three, three_full = _extra_window(skew, lo, k, extra, negative=())
    # pinned before on the lane-aligned blocks; the full blocks hold the same entries
    assert (two_full != 0).sum(-1).max() <= 2 < (three_full != 0).sum(-1).max()
    for win, full in ((two, two_full), (three, three_full)):
        got = win.sum(axis=-1)
        assert got.shape == (5, extra) and got.tobytes() == full.sum(axis=-1).tobytes()
    # a first-order window widened to meet second-order lanes, as DualVector._operands does
    flat, flat_full = _signed_window(skew, lo, k)
    wide = vector._widen(flat, 1)
    assert type(wide) is pool._Window and wide.block.shape == (3, 1, flat.block.shape[-1])  # was (3, 1, 5)
    assert np.asarray(wide).tobytes() == flat_full[:, None].tobytes()
    for c in _coefficients(k, extra):
        got = pool._WINDOW_OPS.mul(wide, c)
        assert np.asarray(got).tobytes() == (flat_full[:, None] * c).tobytes(), np.shape(c)
    wider = vector._widen(three, 2)
    assert np.asarray(wider).tobytes() == three_full[:, None, None].tobytes()


def test_a_sum_with_extra_axes_takes_tiles_of_the_lane_block_budget(monkeypatch):
    k, extra, rows = 1000, 4, 127  # a tile is 8 lanes of 4 x 1000 entries, the last 7
    scales = 1e3 ** np.arange(3)[:, None, None]  # three nonzeros a lane, of different sizes
    block = np.random.default_rng(1).uniform(-1.0, 1.0, (3, extra, rows)) * scales
    win = _from_lanes(block, 0, k, 1)
    want = np.asarray(win).sum(axis=-1)
    built = []
    empty = pool._pooled_empty
    monkeypatch.setattr(pool, "_pooled_empty", lambda shape: built.append(shape) or empty(shape))
    got, left = pool.in_band(lambda w: w.sum(axis=-1), win)
    assert left is None and got.tobytes() == want.tobytes()
    assert built == [(8, extra, k)] * 15 + [(7, extra, k)]
    assert 8 * extra * k * 8 <= LANE_BLOCK_BYTES


# ----------------------------------------------------------------------
# a default Hessian: every pass seeds all k components on its outer lanes
# as one band, its inner lanes dense in default_chunk(k, 2) blocks
# ----------------------------------------------------------------------

HESSIAN_BAND = {
    "rosenbrock": rosenbrock,
    "ackley": ackley,
    "stencil": TARGETS["three-nonzeros"],
    "quotient": lambda v: np.sum((v[1:] - 1.0) / (v[:-1] * v[:-1] + 2.0)) + np.sum(np.sin(v) / 3.0),
    "integer": lambda v: v[5] * v[-1] + v[np.int64(2)] ** 3 + np.sum(v * v),
}
# each leaves the band in its pass 0, which runs again dense at N0 x N0: the
# dense plan's passes and one more.  (point, component set to a bad value)
HESSIAN_STOPPING = {
    "reversed": (lambda v: np.sum(v * v[::-1]), None),
    "centred": (lambda v: np.sum((v - v.mean()) ** 2), None),
    "scalar-dual": (lambda v: np.sum(v * v[0]), None),
    "integer-array": (lambda v: np.sum(v[[3, 7, 2]] ** 2) + np.sum(v * v), None),
}
# a non-finite coefficient at component 4, which stopped the band pass before NaN-safe
# lanes; the last one still stops it, at its scalar operand v[4]
HESSIAN_POISONED = {
    "sqrt-zero": (lambda v: np.sum(np.sqrt(abs(v))), 0.0, False),
    "log-negative": (lambda v: np.sum(np.log(abs(v) + v)), -0.5, False),
    "sqrt-one-zero": (lambda v: np.sum(np.sqrt(v * v + v[4] * v[4]) + v), 0.0, True),
}


@pytest.mark.parametrize("k", [27, 30, 33, 100, 300])
@pytest.mark.parametrize("name", list(HESSIAN_BAND))
def test_a_default_hessian_runs_in_band_and_equals_explicit_chunks(name, k):
    f, x = HESSIAN_BAND[name], _point(k)
    counted = EvalCounter(f)
    got = hessian(counted, x)
    assert counted.count == math.ceil(k / default_chunk(k, 2))  # was its square
    for chunks in ((8, 8), (7, 5)):
        want = hessian(f, x, *chunks)
        assert got.entries.tobytes() == want.entries.tobytes(), chunks
        assert got.gradient.tobytes() == want.gradient.tobytes() and got.f_value == want.f_value


@pytest.mark.parametrize("k", [30, 100])
@pytest.mark.parametrize("name", list(HESSIAN_STOPPING))
def test_a_default_hessian_that_leaves_the_band_keeps_the_dense_plan(name, k):
    f, bad = HESSIAN_STOPPING[name]
    x = _point(k)
    if bad is not None:
        x[4] = bad
    n0 = default_chunk(k, 2)
    counted = EvalCounter(f)
    got, want = hessian(counted, x), hessian(f, x, n0, n0)
    assert counted.count == 1 + math.ceil(k / n0) ** 2
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got.gradient.tobytes() == want.gradient.tobytes()
    assert np.float64(got.f_value).tobytes() == np.float64(want.f_value).tobytes()


@pytest.mark.parametrize("k", [30, 100])
@pytest.mark.parametrize("name", list(HESSIAN_POISONED))
def test_a_poisoned_default_hessian_stays_in_band(name, k):
    # declared fix (NaN-safe lanes): sqrt-zero and log-negative were HESSIAN_STOPPING cases,
    # 1 + ceil(k / N0) ** 2 evaluations (2 and 37).  Now every pass whose lanes are not finite
    # (all of them here) runs once more, masked: the band passes, or the dense plan's
    f, bad, stops = HESSIAN_POISONED[name]
    x = _point(k)
    x[4] = bad
    n0 = default_chunk(k, 2)
    counted = EvalCounter(f)
    got = hessian(counted, x)
    assert counted.count == (1 + 2 * math.ceil(k / n0) ** 2 if stops else 2 * math.ceil(k / n0))
    for chunks in ((n0, n0), (8, 8), (7, 5)):
        want = hessian(f, x, *chunks)
        assert got.entries.tobytes() == want.entries.tobytes(), chunks
        assert got.gradient.tobytes() == want.gradient.tobytes()
        assert np.float64(got.f_value).tobytes() == np.float64(want.f_value).tobytes()
    assert not np.isnan(np.delete(np.delete(got.entries, 4, 0), 4, 1)).any()


def test_a_later_hessian_pass_that_leaves_the_band_runs_its_block_again_dense():
    # reshape builds the full block, so passes 2 on stop; each runs its inner block
    # again at N0 x N, dense, and the bytes stay the dense plan's
    k, calls = 100, []
    n = default_chunk(k, 2)

    def late(v):
        calls.append(_holds_a_window(v))
        return rosenbrock(v.reshape((k,)) if len(calls) > 2 else v)

    x = _point(k)
    got = hessian(late, x)
    passes = math.ceil(k / n)
    assert calls == [True] * 3 + ([False] * passes + [True]) * (passes - 3) + [False] * passes
    want = hessian(rosenbrock, x, 8, 8)
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got.gradient.tobytes() == want.gradient.tobytes() and got.f_value == want.f_value


def test_every_window_of_a_hessian_band_pass_holds_a_c_contiguous_block(monkeypatch):
    built, init, like = [], pool._Window.__init__, pool._Window.like

    def recorded(self, block, lo, k, skew=0, lanes=None):  # a slice's: see above
        init(self, block, lo, k, skew, lanes)
        built.append((block.ndim, _contiguous_rows(block)))

    def recorded_like(self, block):  # a rule's result, built without the constructor
        built.append((block.ndim, block.flags.c_contiguous))
        return like(self, block)

    monkeypatch.setattr(pool._Window, "__init__", recorded)
    monkeypatch.setattr(pool._Window, "like", recorded_like)
    for f in HESSIAN_BAND.values():
        hessian(f, _point(30))
    assert {ndim for ndim, _ in built} == {2, 3} and all(c for _, c in built)
