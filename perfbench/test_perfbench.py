"""Self-tests of the benchmark: checks catch bad results, and a tiny run of
every workload reports every metric with its unit and no failures.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from tracing import OpCounter, union_length  # noqa: E402
from workloads import WORKLOADS, check, check_invariance, rosenbrock_hessian  # noqa: E402

from dualgrad.vector import DualVector  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "call_p50_rel": "x_ref",
    "call_p90_rel": "x_ref",
    "entries_per_ref": "1/ref",
    "peak_rss_mb": "MiB",
}

# Printed by every end-to-end run next to the gated metrics.
RAW_WALL_TIMES = {"call_p50_ms": "ms", "call_p90_ms": "ms", "entries_per_s": "1/s"}

PER_LAYER = {
    "drivers.passes": "count",
    "drivers.self_ms": "ms",
    "drivers.self_share": "ratio",
    "drivers.pass_cost_ratio": "ratio",
    "drivers.parallel_eff": "ratio",
    "drivers.worker_imbalance": "ratio",
    "drivers.eval_stretch": "ratio",
    "vector.pass_ms": "ms",
    **{f"vector.pass_ms.n{n}": "ms" for n in (1, 2, 4, 8, 16, 32, 64)},
    "vector.fixed_ms": "ms",
    "vector.per_lane_ms": "ms",
    "vector.fit_resid": "ratio",
    "vector.ops_per_pass": "count",
    "vector.transcendentals_per_pass": "count",
    "vector.lane_bytes_per_pass": "B_computed",
    "vector.minflt_per_pass": "count",
    "dual.pass_ms": "ms",
    "dual.objects_per_pass": "count",
    "dual.ops_per_pass": "count",
    "dual.gc_ms_per_call": "ms",
    "testfns.plain_ms": "ms",
    "testfns.cost_ratio": "ratio",
    "trace.overhead": "ratio",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_point(wl, seed=3):
    return wl.point(wl.rngs(seed)[1], wl.tiny_k)


def test_spec_lists_the_metrics_and_workloads():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    wl = WORKLOADS["ackley-grad"]
    a, b, c = (wl.point(wl.rngs(s)[1], 50) for s in (7, 7, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.min(np.abs(a)) >= 0.1  # away from the origin kink


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_a_correct_result(name):
    wl = WORKLOADS[name]
    x = _tiny_point(wl)
    result = wl.call(x)
    assert check(wl, x, result) == []
    assert check_invariance(wl, x, result) == []


@pytest.mark.parametrize("name", ["ackley-grad", "rosenbrock-grad", "rosenbrock-hessian"])
def test_perturbed_result_counts_as_failure(name):
    wl = WORKLOADS[name]
    x = _tiny_point(wl)
    result = wl.call(x)
    if wl.order == 1:
        bad = result.values.copy()
        bad[3] *= 1.0 + 1e-4
        perturbed = dataclasses.replace(result, values=bad)
    else:
        bad = result.entries.copy()
        bad[2, 3] *= 1.0 + 1e-4
        perturbed = dataclasses.replace(result, entries=bad)
    assert check(wl, x, perturbed)
    assert any(p.startswith("C3") for p in check_invariance(wl, x, perturbed))


def test_last_bit_change_fails_invariance_only():
    wl = WORKLOADS["rosenbrock-grad"]
    x = _tiny_point(wl)
    result = wl.call(x)
    bad = result.values.copy()
    bad[0] = np.nextafter(bad[0], np.inf)
    perturbed = dataclasses.replace(result, values=bad)
    assert check(wl, x, perturbed) == []
    assert len(check_invariance(wl, x, perturbed)) == 2  # C3 and C7


def test_closed_form_hessian_is_symmetric_tridiagonal():
    x = np.array([0.5, -1.0, 2.0, 0.25])
    h = rosenbrock_hessian(x)
    assert np.array_equal(h, h.T)
    assert np.count_nonzero(np.triu(h, 2)) == 0
    assert h[0, 0] == 1200 * 0.25 - 400 * -1.0 + 2
    assert h[3, 3] == 200.0


def test_union_length_merges_overlaps():
    assert union_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert union_length([]) == 0.0


def test_op_counter_counts_and_restores():
    original = DualVector.__dict__["__mul__"]
    v = DualVector(np.arange(1.0, 5.0), np.eye(2, 4))
    with OpCounter() as counter:
        np.sum(np.sin(v * v))
    assert DualVector.__dict__["__mul__"] is original
    assert counter.vector_ops == 3  # __mul__, sin, sum
    assert counter.vector_transcendental_elems == 4
    assert counter.vector_bytes == 2 * (4 + 8) * 8  # two new (4,) + (2, 4) pairs
    assert counter.dual_objects == 2  # the Dual from sum and its Partials


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    proc = _run(["--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split()[:2] == ["fail_rate", "0"] for line in lines)
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                   if not line.startswith("#")}
        assert {k: printed[k] for k in RAW_WALL_TIMES} == RAW_WALL_TIMES
        assert result["attempted"] >= 100  # p90 has ten samples beyond it
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = _run(["--workload", "ackley-grad", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
