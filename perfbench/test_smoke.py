"""Smoke test of the benchmark itself: each workload at a tiny length, with
tracing off and on, checking the output schema and every metric name.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = [
    "setup_s", "steps_per_s", "step_p50_us", "step_p99_us", "run_s",
    "peak_rss_mb", "nll", "mae", "mse",
]
PER_LAYER = [
    "gp.predict_calls_per_step", "gp.factorizations_per_step",
    "gp.predict_us_p50", "gp.kernel_us_p50", "gp.chol_us_p50",
    "gp.solve_us_p50", "gp.self_share", "gp.window_key_repeat_share",
    "gp.window_len_mean", "gp.cholesky_attempts_per_factorization",
    "fit.fit_template_s", "fit.objective_evals", "fit.gradient_evals",
    "fit.factorizations", "fit.iterations",
    "mixture.fuse_us_p50", "mixture.weights_us_p50", "mixture.self_share",
    "engine.step_self_us_p50", "engine.outliers", "engine.change_points",
    "harness.record_us_p50", "harness.jsonl_s", "harness.jsonl_bytes",
    "metrics.evaluate_s", "trace.overhead_ratio",
    "bench.raw_steps_per_s", "bench.slowdown",
]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["well_log_8m", "cpu_shift_2m", "glitchy_27m"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--steps", "30")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert "environment" in json.loads(lines[0])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        item = result["metrics"][m["name"]]
        assert item["unit"] == m["unit"]
        assert isinstance(item["value"], float) and math.isfinite(item["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cpu_shift_2m", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _benchmark_modules():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import measure
        import workloads
    finally:
        del sys.path[:2]
    return measure, workloads


def test_reference_gate_flags_changed_outputs():
    measure, workloads = _benchmark_modules()
    table = measure.load_reference(workloads.WORKLOADS)
    stored = table["cpu_shift_2m"][str(measure.REFERENCE_SEEDS.start)]

    class Run:
        records = (
            [{"verdict": "inlier"}] * (stored["inlier"] - 1)
            + [{"verdict": "outlier"}] * (stored["outlier"] + 1)
            + [{"verdict": "change_point"}] * stored["change_point"]
        )
        metrics = SimpleNamespace(nll=stored["nll"] * (1 + 1e-4), mae=stored["mae"], mse=stored["mse"])

    problems = measure.reference_mismatch(Run, stored)
    assert [p.split()[0] for p in problems] == ["inlier", "outlier", "nll"]
    assert measure.reference_mismatch(Run, None) is None


@pytest.mark.parametrize("stream", [0, 5])
def test_reference_table_must_cover_every_seed(tmp_path, monkeypatch, stream):
    measure, workloads = _benchmark_modules()
    table = json.loads(measure.REFERENCE.read_text())
    del table["workloads"]["glitchy_27m"][measure.reference_key(measure.REFERENCE_SEEDS.stop - 1, stream)]
    narrow = tmp_path / "reference.json"
    narrow.write_text(json.dumps(table))
    monkeypatch.setattr(measure, "REFERENCE", narrow)
    with pytest.raises(measure.ReferenceTableError, match="glitchy_27m"):
        measure.load_reference(workloads.WORKLOADS)


def test_program_that_raises_counts_as_failed():
    measure, workloads = _benchmark_modules()
    workload = workloads.WORKLOADS["cpu_shift_2m"]
    series = workload.series(1)[: workload.config.init_count + 5].copy()
    series[-1] = np.inf
    with np.errstate(invalid="ignore"):
        outcome = measure.measure(workload, 0.0, False, [series], [None])
    assert (outcome.correct, outcome.attempted, outcome.failed) == (False, 1, 1)
    assert outcome.metrics == {}
