"""Benchmark harness: records, sweeps, CSV emission, verify, CLI wiring."""

import math
import re

import numpy as np
import pytest

from dualgrad import EvalCounter, bench, gradient, rosenbrock, rosenbrock_grad_analytic
from dualgrad.bench import (
    BenchRecord,
    CSV_HEADER,
    VerifyReport,
    emit_csv,
    input_vector,
    main,
    read_csv,
    run_chunk_sweep,
    run_size_sweep,
    verify,
)


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------


def test_record_validation():
    BenchRecord("ackley", 10, 2, 1, 3, 0.5, 0.6)
    with pytest.raises(ValueError):
        BenchRecord("ackley", 10, 2, 1, 2, 0.5, 0.6)  # reps < 3
    with pytest.raises(ValueError):
        BenchRecord("ackley", 10, 2, 1, 3, 0.7, 0.6)  # min > mean


def test_input_vectors_are_seed_stable():
    a = input_vector("rosenbrock", 50, seed=7)
    b = input_vector("rosenbrock", 50, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, input_vector("rosenbrock", 50, seed=8))
    assert np.all(np.abs(a) <= 2.0)
    assert np.all(np.abs(input_vector("ackley", 50)) <= 1.0)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_chunk_sweep_shape():
    records = run_chunk_sweep("rosenbrock", 24, [1, 2, 4], reps=3)
    assert [r.chunk for r in records] == [1, 2, 4]
    assert all(r.k == 24 and r.reps == 3 and r.threads == 1 for r in records)
    assert all(r.min_seconds <= r.mean_seconds for r in records)
    single = run_chunk_sweep("ackley", 16, [1], reps=3)
    assert len(single) == 1


def test_chunk_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_chunk_sweep("nope", 16, [1], reps=3)
    with pytest.raises(ValueError):
        run_chunk_sweep("ackley", 16, [0], reps=3)


@pytest.mark.parametrize(
    "sweep, message",
    [
        (lambda: run_chunk_sweep("rosenbrock", 16, [1, 2], reps=2), "reps must be >= 3, got 2"),
        (lambda: run_size_sweep("rosenbrock", [8, 16], 4, 1, reps=2), "reps must be >= 3, got 2"),
        (lambda: run_chunk_sweep("rosenbrock", 16, [1, 2.5], reps=3), "got 2.5"),
        (lambda: run_size_sweep("rosenbrock", [8, 16], 4, 0, reps=3), "threads"),
        (lambda: run_size_sweep("rosenbrock", [8, 1], 4, 1, reps=3), "k must be >= 2, got 1"),
        (lambda: run_chunk_sweep("rosenbrock", 16.5, [1], 3), "k must be an integer, got 16.5"),
        (lambda: run_chunk_sweep("rosenbrock", 16, [1], 3.5), "reps must be an integer, got 3.5"),
        (lambda: verify("rosenbrock", 8.0, 2), "k must be an integer, got 8.0"),
    ],
    ids=["chunk-reps", "size-reps", "late-chunk", "threads", "late-size", "float-k", "float-reps",
         "verify-float-k"],
)
def test_sweeps_check_every_argument_before_the_first_evaluation(monkeypatch, sweep, message):
    counted = EvalCounter(bench._FUNCTIONS["rosenbrock"][0])
    monkeypatch.setitem(
        bench._FUNCTIONS, "rosenbrock", (counted,) + bench._FUNCTIONS["rosenbrock"][1:]
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep()
    assert counted.count == 0


def test_size_sweep_shape():
    records = run_size_sweep("ackley", [8, 32], chunk=4, threads=1, reps=3)
    assert [r.k for r in records] == [8, 32]
    assert all(r.chunk == 4 for r in records)


def test_size_sweep_time_grows_with_work():
    # spaced far enough apart that timer noise cannot reorder them
    records = run_size_sweep("rosenbrock", [16, 512, 8192], chunk=8, threads=1, reps=3)
    times = [r.min_seconds for r in records]
    assert times[0] < times[2]
    inversions = sum(1 for a, b in zip(times, times[1:]) if a > b)
    assert inversions <= 1


# ----------------------------------------------------------------------
# csv
# ----------------------------------------------------------------------


def test_emit_csv_shape_and_roundtrip(tmp_path):
    records = run_chunk_sweep("rosenbrock", 12, [1, 2, 3, 4, 6], reps=3)
    path = tmp_path / "sweep.csv"
    emit_csv(records, path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len([l for l in lines if l]) == 6  # header + 5 records
    assert "\r" not in text
    assert read_csv(path) == records


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv([], "anything.csv")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_passes_on_healthy_setup():
    report = verify("rosenbrock", k=100, chunk=8)
    assert report.passed
    assert report.passes == report.expected_passes == math.ceil(100 / 8)
    assert report.ad_vs_analytic[0] <= 1e-10
    assert report.chunk_invariant

    report = verify("ackley", k=50, chunk=10)
    assert report.passed


def test_verify_at_the_minimum_reports_exact_zeros():
    # ones is the rosenbrock minimum: every gradient entry is exactly 0
    report = verify("rosenbrock", k=30, chunk=4, x=np.ones(30))
    assert report.passed
    assert report.gradient_infnorm == 0.0
    assert report.ad_vs_analytic == (0.0, 0)


def test_verify_at_chunk_k_checks_invariance_against_chunk_k_minus_1(monkeypatch):
    chunks = []

    def recorded(f, x, cfg):
        chunks.append(cfg.chunk_size)
        return gradient(f, x, cfg)

    monkeypatch.setattr(bench, "gradient", recorded)
    report = verify("rosenbrock", k=8, chunk=8)
    assert report.passed and report.passes == 1 and report.chunk_invariant
    assert chunks == [8, 7]


def _patched_target(monkeypatch, f, analytic):
    """Register f with its analytic gradient as "rosenbrock"; return a list that records,
    per evaluation of f, whether it was the oracle's (a plain array) or a driver pass's."""
    oracle = []

    def recorded(v):
        oracle.append(isinstance(v, np.ndarray))
        return f(v)

    monkeypatch.setitem(bench._FUNCTIONS, "rosenbrock", (recorded, analytic, (-2.0, 2.0)))
    return oracle


@pytest.mark.parametrize("k", [200, 256, 3000])
def test_verify_takes_central_differences_on_at_most_256_components(monkeypatch, k):
    oracle = _patched_target(monkeypatch, rosenbrock, rosenbrock_grad_analytic)
    report = verify("rosenbrock", k=k, chunk=None)
    assert report.passed
    assert sum(oracle) == 2 * min(k, 256)
    # the rest are the passes of the gradient and of the invariance check,
    # which runs at chunk k up to k=1024 and at chunk 2 * N0 = 20 at k=3000
    alt = k if k <= 1024 else 20
    assert len(oracle) == 2 * min(k, 256) + report.passes + math.ceil(k / alt)


def test_verify_reports_sampled_components_by_their_index_in_x(monkeypatch):
    # the oracle alone sees a slope of 1e-3 * i on component i: at x = ones
    # the error relative to the oracle's 2 + 1e-3 * i grows with i, so the
    # worst sampled component is the largest index drawn, far above 256
    k = 1000
    slope = 1e-3 * np.arange(k)

    def f(v):
        return np.sum(v * v) + (np.sum(slope * v) if isinstance(v, np.ndarray) else 0.0)

    _patched_target(monkeypatch, f, lambda x: 2.0 * x)
    report = verify("rosenbrock", k=k, chunk=None, x=np.ones(k))
    err, idx = report.ad_vs_fd
    assert report.analytic_vs_fd == report.ad_vs_fd and idx > 256
    assert err == pytest.approx(slope[idx] / (2.0 + slope[idx]), rel=1e-6)


def test_verify_fails_when_tolerance_is_absurd():
    report = verify("ackley", k=40, chunk=8, tol=1e-30)
    assert not report.passed


def test_verify_report_lists_its_failures():
    good = verify("rosenbrock", k=12, chunk=4)
    assert good.failures() == [] and good.passed
    fields = dict(vars(good), ad_vs_fd=(float("nan"), 3), chunk_invariant=False, passes=2)
    bad = VerifyReport(**fields)
    assert not bad.passed
    assert bad.failures() == [
        f"gradient vs central differences at component 3: nan > {good.tolerance:g}",
        "gradient changed with chunk size",
        f"pass count 2 != {good.expected_passes}",
    ]


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def test_cli_chunk_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code = main([
        "chunk-sweep", "--function", "rosenbrock", "--size", "16",
        "--chunks", "1,2", "--reps", "3", "--csv", str(path),
    ])
    assert code == 0
    assert path.exists()
    out = capsys.readouterr().out
    assert out.startswith(",".join(CSV_HEADER))
    assert out.splitlines() == path.read_text(encoding="utf-8").splitlines()


def test_cli_size_sweep_runs(capsys):
    code = main([
        "size-sweep", "--function", "ackley", "--sizes", "8,16",
        "--chunk", "4", "--threads", "2", "--reps", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_cli_verify_pass_and_fail(capsys):
    assert main(["verify", "--function", "rosenbrock", "--size", "60", "--chunk", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max rel err" in out

    assert main([
        "verify", "--function", "rosenbrock", "--size", "60",
        "--chunk", "6", "--tol", "1e-30",
    ]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err


def test_cli_usage_errors_exit_2():
    bad_invocations = [
        ["chunk-sweep", "--function", "unknown", "--size", "16", "--chunks", "1"],
        ["chunk-sweep", "--function", "ackley", "--size", "16",
         "--chunks", "1", "--reps", "2"],
        ["chunk-sweep", "--function", "ackley", "--size", "16", "--chunks", "0,2"],
        ["chunk-sweep", "--function", "rosenbrock", "--size", "1", "--chunks", "1"],
        ["size-sweep", "--function", "ackley", "--sizes", "8", "--threads", "0"],
        [],
    ]
    for argv in bad_invocations:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--function", "ackley", "--size", "0"], "k must be >= 1, got 0"),
        (["verify", "--function", "ackley", "--size", "8", "--chunk", "0"], "chunk_size"),
        (["chunk-sweep", "--function", "ackley", "--size", "0", "--chunks", "1"], "got 0"),
        (["chunk-sweep", "--function", "ackley", "--size", "8", "--chunks", "1,-2"], "got -2"),
        (["chunk-sweep", "--function", "ackley", "--size", "8", "--chunks", "1", "--reps", "2"],
         "reps must be >= 3, got 2"),
        (["size-sweep", "--function", "ackley", "--sizes", "8", "--threads", "0"], "threads"),
        (["size-sweep", "--function", "ackley", "--sizes", "8", "--chunk", "0"], "chunk_size"),
    ],
    ids=["verify-size", "verify-chunk", "size", "chunks", "reps", "threads", "chunk"],
)
def test_cli_usage_errors_name_the_rejected_value(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "chunks, message",
    [("1,x", "not a comma-separated integer list: '1,x'"), (",", "empty list")],
)
def test_cli_rejects_chunk_lists_that_are_not_integers(chunks, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chunk-sweep", "--function", "ackley", "--size", "8", "--chunks", chunks])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_unwritable_csv_exits_1(tmp_path, capsys):
    code = main([
        "chunk-sweep", "--function", "ackley", "--size", "8",
        "--chunks", "1", "--reps", "3",
        "--csv", str(tmp_path / "missing_dir" / "out.csv"),
    ])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err
