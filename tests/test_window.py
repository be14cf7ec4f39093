"""Lane windows: later first-order passes carry only the lane columns their
seeds can reach, and give the same bytes as one dense pass."""

import math
import threading

import numpy as np
import pytest

from dualgrad import ChunkConfig, EvalCounter, ackley, default_chunk, gradient, hessian, jacobian
from dualgrad import drivers, pool, rosenbrock
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
        seen.append(type(lanes) is pool._Window and lanes.block.shape[-1] < lanes.k)
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


def test_non_finite_results_stay_as_they_were():
    # pass 0 sees the poisoned component as NaN lanes, so no pass is windowed
    x = np.ones(K)
    x[1500] = 0.0
    results = {
        chunk: _windowed_passes(lambda v: np.sum(np.sqrt(v)), x, ChunkConfig(chunk))
        for chunk in (10, 64, K)
    }
    first = results[10][0].values
    assert np.isnan(first).sum() == K - 1 and np.isinf(first[1500])
    for got, windowed in results.values():
        assert got.values.tobytes() == first.tobytes() and windowed == 0
    entries = jacobian(lambda v: np.sqrt(v) * 2.0, x, ChunkConfig(10)).entries
    assert np.isnan(entries).sum() == K - 1 and np.isnan(entries[1500]).sum() == K - 1


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
        seen.append(pool._Window in (type(v.values.partials), type(v.partials.partials)))
        return rosenbrock(v)

    hessian(recorded, _point(120), 30, 30)  # 30 x 120 and 30 x 30 x 120 lanes
    assert len(seen) == 16 and not any(seen)


def test_window_slices_match_the_dense_block():
    block = np.arange(1.0, 13.0).reshape(3, 4)
    win = pool._Window(block, 5, 12)
    full = np.asarray(win)
    assert full.shape == (3, 12) and np.array_equal(full[:, 5:9], block)
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
    win = pool._Window(np.arange(1.0, 13.0).reshape(3, 4), 5, 12)
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
# the default plan: pass 0 at default_chunk(k), the middle in one trial
# pass, the last default_chunk(k) components in a pass of their own
# ----------------------------------------------------------------------

N0 = default_chunk(K)
BAND_PASSES = 3  # pass 0, the trial on the whole middle, the end pass
# the targets whose trial would build a full block: the middle then takes N0 lanes a pass
WIDENING = {"step-2", "fancy", "reshape", "centred", "scalar-dual", "dense-operand"}
# the targets whose trial would fall back to a column window: the middle takes WIDE_CHUNK
CUTTING = {"reversed", "iteration"}


def _default_passes(name):
    """Evaluations of TARGETS[name] in a default gradient at K: a stopped trial counts."""
    if name in WIDENING:
        return 1 + math.ceil(K / N0)
    if name in CUTTING:
        return BAND_PASSES + math.ceil((K - 2 * N0) / WIDE_CHUNK)
    return BAND_PASSES


def test_wide_chunk_is_512_and_the_end_passes_take_n0_lanes():
    # a slice that cuts a band at either end of [0, K) falls back to a window of
    # N0 lanes by up to 2 * N0 columns, inside the lane block budget
    assert WIDE_CHUNK == 512 and N0 * 2 * N0 * 8 <= LANE_BLOCK_BYTES
    assert _plan(K, None) == [slice(0, N0), slice(N0, K - N0), slice(K - N0, K)]
    # a Jacobian's N x outputs result block stays in the budget: 64 outputs keep 512 lanes
    middle = [slice(lo, min(lo + 512, K - N0)) for lo in range(N0, K - N0, 512)]
    assert _plan(K, None, 64) == [slice(0, N0), middle[0], slice(K - N0, K)] + middle[1:]
    assert _plan(K, None, 2) == _plan(K, None) and (N0, middle[-1]) == (10, slice(2570, 2990))
    every_n0 = [slice(p, p + N0) for p in range(0, K, N0)]
    assert _plan(K, N0) == every_n0


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
    assert counted.count == _default_passes(name)
    for cfg in (ChunkConfig(8), ChunkConfig(K), ChunkConfig(threads=2)):
        other = jacobian(lambda v: [f(v)], x, cfg)
        assert np.array_equal(got.entries, other.entries), cfg
        assert np.array_equal(got.f_value, other.f_value)


def test_a_default_gradient_plans_its_passes_once_after_pass_0(monkeypatch):
    # pass 0 seeds its own block alone, so the ceil(K / N0) blocks of the
    # default chunk, which the wide plan replaces, are never built
    longest = len(_plan(K, None))
    built, blocks = [], drivers._blocks

    def recorded(*args):
        out = blocks(*args)
        built.append(len(out))
        return out

    monkeypatch.setattr(drivers, "_blocks", recorded)
    counted = EvalCounter(rosenbrock)
    gradient(counted, _point(K))
    assert counted.count == longest == BAND_PASSES
    assert built and max(built) <= longest


def test_reading_a_windowed_vector_result_does_not_count_as_widening():
    # _vector_output reads the lanes of v[1:] * v[:-1] as the full block; the
    # reversed operand stops the trial, and the middle takes 512-lane blocks
    x = _point(1000)
    counted = EvalCounter(lambda v: v[1:] * v[:-1] - np.sin(v[::-1][1:]))
    got = jacobian(counted, x)
    assert counted.count == 3 + math.ceil((1000 - 2 * default_chunk(1000)) / WIDE_CHUNK) == 5
    assert np.array_equal(got.entries, jacobian(counted.f, x, ChunkConfig(8)).entries)


def test_a_target_that_widens_only_after_pass_0_keeps_wide_passes_and_its_bits():
    # zero over the products that pass 0's seeds reach: pass 0's lane rows have
    # no nonzeros, every later pass has rows with three, which sum() adds over
    # full rows in tiles of the lane block budget: they do not leave the band
    mask = (np.arange(K - 2) >= N0 + 2).astype(float)

    def f(v):
        return np.sum(v[:-2] * v[1:-1] * v[2:] * mask)

    x = _point(K)
    counted = EvalCounter(f)
    got = gradient(counted, x)
    assert counted.count == BAND_PASSES  # the trial ran to the end
    for cfg in (ChunkConfig(8), ChunkConfig(K), ChunkConfig(threads=2)):
        assert np.array_equal(got.values, gradient(f, x, cfg).values), cfg


def test_a_default_gradient_seeds_pass_0_dense_then_the_trial_and_the_end_band():
    lanes = []

    def recorded(v):
        lanes.append(v.partials)
        return rosenbrock(v)

    gradient(recorded, _point(K))
    assert type(lanes[0]) is np.ndarray and lanes[0].shape == (N0, K)
    trial, end = lanes[1:]
    assert type(trial) is pool._Window and trial.block.shape == (K - 2 * N0, 1)
    assert (trial.lo, trial.skew, trial.k) == (N0, 1, K)
    assert type(end) is pool._Window and end.block.shape == (N0, 1)
    assert (end.lo, end.skew, end.k) == (K - N0, 1, K)


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
    seen = []

    def recorded(v):
        lanes = v.partials
        seen.append((type(lanes), lanes.shape[0], getattr(lanes, "lo", None)))
        return TARGETS["fancy"](v)

    gradient(recorded, _point(K))
    assert len(seen) == 1 + math.ceil(K / N0)
    assert seen[0] == (np.ndarray, N0, None)  # pass 0, dense
    assert seen[1][1:] == (K - 2 * N0, N0)  # the trial, stopped at the fancy index
    assert seen[2][1:] == (N0, K - N0)  # the end pass, run again alone
    assert all(kind is pool._Window and n == N0 for kind, n, _ in seen[2:])


# ----------------------------------------------------------------------
# the trial: f runs the wide middle in band, and a step out of it stops
# the pass before it builds anything
# ----------------------------------------------------------------------


def test_reading_a_vector_result_does_not_stop_the_trial():
    # _vector_output reads the lanes of the result as the full block, after f
    # returned: 999 outputs keep 512 lanes, so the middle takes two passes
    x = _point(1000)
    counted = EvalCounter(lambda v: v[1:] * v[:-1] - np.sin(v[1:]))
    got = jacobian(counted, x)
    assert counted.count == 2 + math.ceil((1000 - 2 * default_chunk(1000)) / WIDE_CHUNK) == 4
    assert np.array_equal(got.entries, jacobian(counted.f, x, ChunkConfig(8)).entries)


def test_a_target_that_catches_the_stop_is_run_again_in_narrow_blocks():
    def f(v):
        try:
            return np.sum(v[K // 3 :] ** 2) + np.sum(v * v)  # the slice cuts the trial's band
        except BaseException:
            return 0.0

    x = _point(K)
    counted = EvalCounter(f)
    got = gradient(counted, x)
    assert counted.count == BAND_PASSES + math.ceil((K - 2 * N0) / WIDE_CHUNK)
    want = gradient(f, x, ChunkConfig(8))
    assert got.values.tobytes() == want.values.tobytes() and got.f_value == want.f_value


@pytest.mark.parametrize("f", [rosenbrock, ackley])
def test_a_band_target_runs_its_trial_without_leaving_the_band(monkeypatch, f):
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
    assert lanes == [N0, K - 2 * N0, N0]  # pass 0, the trial, the end pass
    in_trial = [(name, shape) for p, name, shape in seen if p == 2]
    assert not [name for name, _ in in_trial if name != "zeros"], in_trial
    assert all(math.prod(np.atleast_1d(s)) * 8 <= LANE_BLOCK_BYTES for _, s in in_trial)
    assert got.values.tobytes() == gradient(f, x, ChunkConfig(8)).values.tobytes()


BIG_K = 40000  # N0 = 8: a middle of 39984 components, two blocks of up to 32768


def test_a_middle_wider_than_one_block_takes_two_passes():
    x = _point(BIG_K)
    lanes = []

    def recorded(v):
        lanes.append(v.partials.shape[0])
        return rosenbrock(v)

    got = gradient(recorded, x)
    assert lanes == [8, 32768, 8, BIG_K - 16 - 32768]
    assert got.values.tobytes() == gradient(rosenbrock, x, ChunkConfig(8)).values.tobytes()


def test_a_later_wide_block_that_leaves_its_band_runs_again_in_narrow_blocks():
    # the slice cuts only the second middle block, which the trial does not reach
    def f(v):
        return np.sum(v[36000:] ** 2) + np.sum(np.sin(v) * v)

    x = _point(BIG_K)
    lanes = []

    def recorded(v):
        lanes.append(v.partials.shape[0])
        return f(v)

    got = gradient(recorded, x, ChunkConfig(threads=2))
    rest = BIG_K - 16 - 32768
    tail = [WIDE_CHUNK] * (rest // WIDE_CHUNK) + [rest % WIDE_CHUNK]
    assert lanes == [8, 32768, 8, rest] + tail  # the stopped block, then its narrow blocks
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
    assert not started  # pass 0, the trial, then one pass: the end pass
    assert got.values.tobytes() == serial.values.tobytes() and got.f_value == serial.f_value


def test_a_target_that_stops_the_trial_still_fans_out(monkeypatch):
    f, x = TARGETS["fancy"], _point(K)
    serial = gradient(f, x)
    started = _threads_started(monkeypatch)
    got = gradient(f, x, ChunkConfig(threads=2))
    assert started == [1]
    assert got.values.tobytes() == serial.values.tobytes() and got.f_value == serial.f_value



# ----------------------------------------------------------------------
# bands: a window of skew 1 or -1 holds diagonals, entry (n, t) at
# column lo + skew * n + t
# ----------------------------------------------------------------------

BAND_K = 20


def _band_window(skew, lo, rows=5, w=3, seed=3):
    """A band of rows x w random nonzero entries and its full block."""
    signs = np.where(np.arange(w) % 2, -1.0, 1.0)
    block = np.random.default_rng(seed).uniform(0.5, 2.0, (rows, w)) * signs
    win = pool._Window(block, lo, BAND_K, skew)
    full = np.zeros((rows, BAND_K))
    for n in range(rows):
        full[n, lo + skew * n : lo + skew * n + w] = block[n]
    assert np.array_equal(np.asarray(win), full)
    return win, full


BANDS = [(1, 4), (1, 0), (1, 13), (-1, 9), (-1, 4), (-1, 17)]  # edges of [0, BAND_K) included


def test_a_band_must_lie_inside_its_columns():
    pool._Window(np.ones((5, 1)), 15, BAND_K, 1)  # columns 15..19
    pool._Window(np.ones((5, 1)), 4, BAND_K, -1)  # columns 0..4
    for lo, skew, w in ((16, 1, 1), (14, 1, 3), (3, -1, 1), (-1, 1, 1), (19, -1, 2)):
        with pytest.raises(ValueError, match="leaves columns"):
            pool._Window(np.ones((5, w)), lo, BAND_K, skew)
    with pytest.raises(ValueError, match="leaves columns"):
        pool._Window(np.ones((2, 5, 1)), 4, BAND_K, 1)


def test_in_band_stops_at_the_first_step_out_and_drops_what_follows():
    win, full = _band_window(1, 4)

    def caught_then_full(w):
        try:
            w.columns()  # a band that becomes a column window: stopped
        except BaseException:
            pass
        return np.asarray(w)  # stopped again; "full" wins

    def caught_then_failed(w):
        try:
            w[(pool._EVERY_LANE, slice(5, None))]  # cuts the band's edge
        except BaseException:
            raise ValueError("what f raises after the stop is dropped")

    assert pool.in_band(caught_then_full, win) == (None, "full")
    assert pool.in_band(caught_then_failed, win) == (None, "columns")
    assert pool.in_band(lambda w: w.sum(axis=-1).tobytes(), win) == (full.sum(-1).tobytes(), None)
    with pytest.raises(ZeroDivisionError):  # an error of f's own, with no step out
        pool.in_band(lambda w: 1 / 0, win)
    assert np.array_equal(np.asarray(win), full)  # outside in_band nothing stops


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
                if got.block.size and inside:  # the band stays one, mirrored by a reversal
                    assert got.skew == skew * taken.step and got.block.shape == win.block.shape, i
                    kept += 1
                elif got.block.size:  # it cuts the band's edge: a window on its columns
                    assert got.skew == 0, i
                    cut += 1
    assert kept and cut


@pytest.mark.parametrize("skew, lo", BANDS)
def test_band_products_quotients_and_coefficients_match_the_full_block(skew, lo):
    win, full = _band_window(skew, lo)
    coeff = np.linspace(-1.0, 1.0, BAND_K) ** 3 + 0.25
    rows, w = win.block.shape
    cut = pool._cut(coeff, win)
    assert cut.shape == (rows, w)
    for n in range(rows):
        assert np.array_equal(cut[n], coeff[lo + skew * n : lo + skew * n + w])
    for c in (coeff[::-1], coeff.repeat(2)[::2]):  # strided coefficients
        assert np.array_equal(np.asarray(pool._WINDOW_OPS.mul(win, c)), full * c)
    for op, ufunc in ((pool._WINDOW_OPS.mul, np.multiply), (pool._WINDOW_OPS.div, np.divide)):
        for c in (coeff, 3.0, np.float64(-2.0), np.array([0.5])):
            got = op(win, c)
            assert type(got) is pool._Window and got.skew == skew
            assert np.array_equal(np.asarray(got), ufunc(full, c)), (op, c)
    neg = pool._WINDOW_OPS.neg(win)
    assert neg.skew == skew and np.array_equal(np.asarray(neg), -full)
    assert pool._cut(np.ones((2, BAND_K)), win) is None  # read as the full block


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
    block[:, 1] = -0.0  # signed zeros that a dense zero operand turns to +0.0
    win = win.like(block)
    full = np.asarray(win)
    empty = pool._Window(block[:, :0], 0, BAND_K)  # what a slice that misses the entries gives
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
    assert np.array_equal(copy.block, win.block)
    for w in (1, 2, 3):  # at most 2 nonzeros a row, or 3 summed over the full rows
        band, band_full = _band_window(skew, lo, w=w)
        assert band.sum(axis=-1).tobytes() == band_full.sum(axis=-1).tobytes(), w
    sparse = win.like(win.block * (np.arange(3) != 1))  # a zero on each row: two nonzeros
    assert np.array_equal(sparse.sum(axis=-1), np.asarray(sparse).sum(axis=-1))


@pytest.mark.parametrize("k", [7, 1000, 12000])
@pytest.mark.parametrize("skew", [0, 1, -1])
def test_sums_over_full_rows_take_tiles_of_the_lane_block_budget(monkeypatch, k, skew):
    w = min(k, 5)
    rows = 127 if skew == 0 else min(127, k - w + 1)  # 127 leaves a short last tile at k=12000
    block = np.random.default_rng(k).uniform(-1.0, 1.0, (rows, w)) * 1e3 ** np.arange(w)
    win = pool._Window(block, 0 if skew == 1 else k - w, k, skew)
    want = np.asarray(win).sum(axis=-1)
    built = []
    empty = pool._pooled_empty
    monkeypatch.setattr(pool, "_pooled_empty", lambda shape: built.append(shape) or empty(shape))
    got, left = pool.in_band(lambda w: w.sum(axis=-1), win)
    assert got.tobytes() == want.tobytes()
    assert left is None  # tiles do not leave the band
    assert built and max(math.prod(s) * 8 for s in built) <= max(LANE_BLOCK_BYTES, 8 * k)


def test_rosenbrock_wide_passes_sum_bands_of_at_most_three_entries_a_lane(monkeypatch):
    summed = []
    plain = pool._Window.sum

    def recorded(self, axis):
        summed.append((self.block.shape[0], self.block.size))
        return plain(self, axis)

    monkeypatch.setattr(pool._Window, "sum", recorded)
    x = _point(K)
    got = gradient(rosenbrock, x)
    assert len(summed) == BAND_PASSES - 1  # pass 0 is dense: its sums are ndarray sums
    trial, last = summed  # the end pass, last, holds component K - 1, which x[:-1] cuts
    assert trial[0] == K - 2 * N0 and trial[1] <= trial[0] * 3
    assert last[0] == N0 and N0 * 3 < last[1] <= N0 * (N0 + 1)  # a fallback of N0 lanes only
    assert np.array_equal(got.values, gradient(rosenbrock, x, ChunkConfig(K)).values)
