"""The BENCH recorder (scripts/bench_record.py) aggregates the output of
`perfbench/run.py`; here on canned output, without running it.  Its cache
census runs the engine, here on a short stream."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import flat_stream

from intelgp import EngineConfig, VariantFactors

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"

spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "blas_threads": 1, "commit": "abc123"}


def canned_output(workload, seed, metrics):
    """What `perfbench/run.py` prints: the environment record, one line per
    figure, then the result."""
    lines = [json.dumps({"environment": ENVIRONMENT, "workload": workload, "seed": seed})]
    lines += [f"{workload:<13} {name:<40} {value:>16.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines.append(json.dumps({
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return "\n".join(lines) + "\n"


def plain_metrics(seed):
    # step_p50_us over seeds 1..5: 50, 10, 30, 20, 40.
    return {"steps_per_s": (1000.0 * seed, "1/s"),
            "step_p50_us": ([50.0, 10.0, 30.0, 20.0, 40.0][seed - 1], "us")}


def traced_metrics(seed):
    return {"gp.factorizations_per_step": (0.4, "count")}


def test_parse_output_takes_the_first_and_the_last_line():
    record, result = bench_record.parse_output(canned_output("w", 3, plain_metrics(3)))
    assert record == {"environment": ENVIRONMENT, "workload": "w", "seed": 3}
    assert result["metrics"]["step_p50_us"] == {"value": 30.0, "unit": "us"}


def test_summarize_gives_medians_and_quartiles_in_seed_order():
    plain = {"w": [bench_record.parse_output(canned_output("w", s, plain_metrics(s)))[1]
                   for s in (1, 2, 3, 4, 5)]}
    traced = {"w": bench_record.parse_output(canned_output("w", 1, traced_metrics(1)))[1]}
    summary = bench_record.summarize(plain, traced)
    assert summary["end_to_end"]["w"]["step_p50_us"] == {
        "unit": "us", "median": 30.0, "q1": 20.0, "q3": 40.0, "iqr": 20.0,
        "values": [50.0, 10.0, 30.0, 20.0, 40.0],
    }
    assert summary["end_to_end"]["w"]["steps_per_s"]["median"] == 3000.0
    assert summary["per_layer"] == {"w": {"gp.factorizations_per_step": {"unit": "count",
                                                                         "value": 0.4}}}


def test_one_value_is_its_own_quartiles():
    assert bench_record.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_main_writes_the_bench_file_and_compares(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(workload, seed, trace):
        calls.append((workload, seed, trace))
        metrics = traced_metrics(seed) if trace else plain_metrics(seed)
        return bench_record.parse_output(canned_output(workload, seed, metrics))

    monkeypatch.setattr(bench_record, "run_benchmark", fake_run)
    monkeypatch.setattr(bench_record, "census", lambda: {"w": {"misses": [1]}})
    monkeypatch.setattr(bench_record, "scipy_blas_threads", lambda: 1)
    monkeypatch.setattr(bench_record.os, "getloadavg", lambda: (0.5, 0.25, 0.125))
    first = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--out", str(first)]) == 0
    workloads = bench_record.WORKLOADS
    assert calls == [(w, s, 0) for w in workloads for s in (1, 2, 3, 4, 5)] + [
        (w, 1, 1) for w in workloads]
    bench = json.loads(first.read_text())
    assert bench["commit"] == "abc123"
    assert "commit" not in bench["environment"]
    assert bench["environment"]["scipy_blas_threads"] == 1
    assert bench["census"] == {"w": {"misses": [1]}}
    assert bench["load_average"] == [0.5, 0.25, 0.125]
    assert set(bench["end_to_end"]) == set(bench["per_layer"]) == set(workloads)
    assert capsys.readouterr().out == ""

    old = json.loads(first.read_text())
    old["end_to_end"]["glitchy_27m"]["step_p50_us"]["median"] = 60.0
    earlier = tmp_path / "BENCH_0.json"
    earlier.write_text(json.dumps(old))
    assert bench_record.main(["--out", str(tmp_path / "BENCH_2.json"),
                              "--compare", str(earlier)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3 * 3
    row = next(r for r in rows if r[1] == "glitchy_27m" and r[2] == "step_p50_us")
    assert row[0] == "end_to_end" and float(row[5]) == pytest.approx(0.5)


def test_a_failing_run_stops_the_recording_with_its_code(tmp_path, monkeypatch):
    class Done:
        returncode, stdout, stderr = 3, "", "perfbench: reference.json lacks a seed\n"

    monkeypatch.setattr(bench_record.subprocess, "run", lambda *a, **k: Done())
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(["--out", str(out)])
    assert exit_info.value.code == 3
    assert not out.exists()


@pytest.mark.parametrize("spikes, misses, paired", [
    ([], 1, 0),
    ([40, 43, 46], 8, 7),
])
def test_the_census_counts_misses_and_paired_misses(spikes, misses, paired):
    # One model, tau=20, a contiguous history: the start holds the 20
    # one-gap and 190 two-gap windows and the 17 a change point regrows,
    # and the first step misses the full window.  Three isolated spikes,
    # three steps apart, leave three gaps, which no start holds: the
    # window then misses with its slide every other step, 7 times, until
    # its oldest gap reaches offset 20, then hits in the classes and the
    # full window again.
    config = EngineConfig(init_count=60, factors=VariantFactors())
    history, stream = flat_stream(5)
    stream[spikes] += 3.0
    census = bench_record.cache_census(config, np.concatenate((history, stream)), "init")
    assert census == {"start": 20 + 190 + 17, "steps": 120, "misses": misses,
                      "paired": paired, "hit_share": (120 - misses) / 120}


def test_scipys_blas_threads_are_read_as_a_run_sets_them():
    # `perfbench/run.py` pins BLAS to one thread before numpy loads;
    # None where scipy's OpenBLAS cannot be asked.
    assert bench_record.scipy_blas_threads() in (1, None)
