"""Smoke tests of the benchmark: result contract, checks and tracer accounting.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from probe import NOMINAL_S
from tracing import PER_LAYER_METRICS, layer_metrics
from worker import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_meets_contract(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert values["trace.self_sum_s"] == pytest.approx(values["trace.wall_s"], rel=1e-9)


def test_per_layer_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER_METRICS)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("exact-presets", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_account_for_nested_spans():
    names = ["bench.op", "pipeline.run_reconstruct", "tomography.bootstrap_errors",
             "tomography.bootstrap.estimator", "tomography.reconstruct_unitary",
             "experiment.table_from_counts"]
    spans = [
        [0, 0.0, 10.0, -1],   # root
        [1, 1.0, 9.0, 0],     # pipeline stage
        [4, 1.0, 2.0, 1],     # top-level estimate
        [2, 3.0, 8.0, 1],     # bootstrap
        [5, 3.5, 4.0, 3],     # table inside the bootstrap
        [3, 4.0, 6.0, 3],     # estimator
        [4, 4.5, 5.5, 5],     # estimate inside the estimator: not top-level
    ]
    out = layer_metrics(spans, names, {"events": 0, "log_bytes": 0, "resamples": 1})
    assert out["trace.wall_s"] == 10.0
    assert out["trace.self_sum_s"] == pytest.approx(10.0)
    assert out["bench.self_s"] == pytest.approx(2.0)
    assert out["pipeline.self_s"] == pytest.approx(2.0)
    assert out["pipeline.reconstruct_s"] == pytest.approx(8.0)
    assert out["tomography.estimate_s"] == pytest.approx(1.0)
    assert out["tomography.bootstrap_s"] == pytest.approx(5.0)
    assert out["tomography.bootstrap.self_s"] == pytest.approx(2.5)
    assert out["tomography.bootstrap.estimator_s"] == pytest.approx(2.0)
    assert out["tomography.bootstrap.estimator_calls"] == 1
    assert out["tomography.bootstrap.accept_ratio"] == 1.0
    assert out["experiment.table_calls"] == 1
    assert out["experiment.table_s"] == pytest.approx(0.5)


def test_host_factor_from_probes_inside_or_around_an_operation():
    clock = HostClock()
    clock.probes = [NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S]
    # probes 1 and 2 ran inside the operation
    assert clock.factor(1, 3) == pytest.approx(2.5)
    # none ran inside: the probes just before and just after it
    assert clock.factor(2, 2) == pytest.approx(2.5)
    assert clock.factor(1, 1) == pytest.approx(2.0)
    # an operation over [1.0, 2.5) loses only the probe that began inside it
    clock.runs = [(0.5, 1.05), (1.0, 1.2), (2.5, 2.6)]
    assert clock.spent(0, 1.0, 2.5) == pytest.approx(0.2)
