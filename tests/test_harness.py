"""Tests for CSV ingestion, the run loop, and the benchmark harness."""

import json

import numpy as np
import pytest
from conftest import regime_change_series

from intelgp import harness
from intelgp.engine import EngineConfig, Mode
from intelgp.gp import KernelKind
from intelgp.harness import (
    InputError,
    bench,
    format_bench_table,
    load_csv,
    parse_factors,
    records_to_jsonl,
    run,
    slice_series,
)
from intelgp.mixture import VariantFactors


def parse_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def write_csv(path, rows, header="timestamp,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["0,1", "1,2", "2,3"])
        np.testing.assert_array_equal(load_csv(p, "value"), [1.0, 2.0, 3.0])

    def test_blank_line_names_row(self, tmp_path):
        p = write_csv(tmp_path / "b.csv", ["0,1", "", "2,3"])
        with pytest.raises(InputError, match="row 3"):
            load_csv(p, "value")

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["0,1"])
        with pytest.raises(InputError, match="reading"):
            load_csv(p, "reading")

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["0,1", "1,oops"])
        with pytest.raises(InputError, match="row 3"):
            load_csv(p, "value")

    def test_short_row_names_row(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", ["0,1", "1"])
        with pytest.raises(InputError, match="row 3"):
            load_csv(p, "value")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_csv(tmp_path / "nope.csv", "value")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(InputError, match="empty"):
            load_csv(p, "value")

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "g.csv", [])
        with pytest.raises(InputError, match="no data rows"):
            load_csv(p, "value")


class TestParseFactors:
    def test_mapping_with_lists(self):
        f = parse_factors({"f": [1, 0.2], "l": [1, 0.2], "n": [1, 5]})
        assert f.signal == (1.0, 0.2)
        assert f.length == (1.0, 0.2)
        assert f.noise == (1.0, 5.0)

    def test_bare_number_shorthand(self):
        f = parse_factors({"f": 0.2})
        assert f.signal == (1.0, 0.2)
        assert f.length == (1.0,)
        assert f.noise == (1.0,)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown factor keys"):
            parse_factors({"q": 2})

    def test_passthrough(self):
        v = VariantFactors((1.0, 0.5))
        assert parse_factors(v) is v


@pytest.fixture(scope="module")
def series():
    data, _ = regime_change_series()
    return data


class TestRun:
    def test_output_completeness(self, series):
        config = EngineConfig(init_count=120, factors=VariantFactors(), seed=0)
        result = run(config, series)
        assert len(result.records) == len(series) - 120
        assert result.metrics.n_evaluated == len(series) - 120
        ts = [r["t"] for r in result.records]
        assert ts == list(range(120, len(series)))

    def test_records_round_trip(self, series):
        config = EngineConfig(init_count=120, factors=VariantFactors(), seed=0)
        result = run(config, series)
        text = records_to_jsonl(result.records)
        parsed = parse_jsonl(text)
        assert parsed == result.records

    def test_sintel_equals_intel_with_singleton_factors(self, series):
        base = dict(init_count=120, seed=0)
        r_sintel = run(EngineConfig(mode=Mode.SINTEL, **base), series)
        r_single = run(
            EngineConfig(mode=Mode.INTEL, factors=VariantFactors(), **base), series
        )
        assert r_sintel.records == r_single.records

    def test_deterministic_rerun(self, series):
        config = EngineConfig(init_count=120, seed=3)
        a = run(config, series)
        b = run(config, series)
        assert records_to_jsonl(a.records) == records_to_jsonl(b.records)
        assert a.metrics == b.metrics

    def test_normalization_stats_from_init_segment(self, series):
        config = EngineConfig(init_count=120, factors=VariantFactors(), seed=0)
        result = run(config, series)
        seg = series[:120]
        assert result.summary["norm_mean"] == pytest.approx(np.mean(seg))
        assert result.summary["norm_std"] == pytest.approx(np.std(seg, ddof=1))

    def test_full_normalization_uses_whole_series(self, series):
        config = EngineConfig(init_count=120, factors=VariantFactors(), seed=0)
        result = run(config, series, normalization="full")
        assert result.summary["norm_mean"] == pytest.approx(np.mean(series))
        assert result.summary["norm_std"] == pytest.approx(np.std(series, ddof=1))

    def test_series_shorter_than_init_rejected(self):
        config = EngineConfig(init_count=50, factors=VariantFactors(), seed=0)
        with pytest.raises(InputError):
            run(config, np.zeros(50))

    def test_summary_counts(self, series):
        config = EngineConfig(init_count=120, factors=VariantFactors(), seed=0)
        result = run(config, series)
        verdict_counts = {"inlier": 0, "outlier": 0, "change_point": 0}
        for r in result.records:
            verdict_counts[r["verdict"]] += 1
        assert result.summary["outliers"] == verdict_counts["outlier"]
        assert result.summary["change_points"] == verdict_counts["change_point"]

    def test_numerical_failure_reports_stream_position(self, series, monkeypatch):
        import intelgp.harness as harness
        from intelgp.gp import NumericalError

        calls = {"n": 0}
        real_step = harness.step

        def failing_step(state, y):
            if calls["n"] == 7:
                raise NumericalError("factorization failed")
            calls["n"] += 1
            return real_step(state, y)

        monkeypatch.setattr(harness, "step", failing_step)
        config = EngineConfig(init_count=120, factors=VariantFactors(), seed=0)
        with pytest.raises(NumericalError, match="t=127"):
            run(config, series)


class TestSliceSeries:
    def test_row_range(self):
        series = np.arange(10.0)
        out = slice_series(series, {"row_start": 2, "row_end": 7})
        np.testing.assert_array_equal(out, [2, 3, 4, 5, 6])

    def test_no_range_is_identity(self):
        series = np.arange(5.0)
        np.testing.assert_array_equal(slice_series(series, {}), series)


class TestBench:
    def make_dataset(self, tmp_path):
        series, _ = regime_change_series(seed=7, n_smooth=160, n_rough=120)
        lines = [f"{i},{v:.8f}" for i, v in enumerate(series)]
        write_csv(tmp_path / "demo.csv", lines)
        return {
            "defaults": {"init_count": 80, "seed": 0},
            "datasets": [
                {
                    "name": "demo",
                    "file": "demo.csv",
                    "column": "value",
                    "factors": {"f": 0.2, "l": 0.2, "n": 5},
                }
            ],
        }

    def test_runs_both_modes(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        result = bench(cfg, tmp_path)
        assert [r["mode"] for r in result.rows] == ["intel", "sintel"]
        assert not result.skipped
        for row in result.rows:
            assert np.isfinite(row["nll"])
            assert row["mae"] >= 0.0

    def test_empty_dataset_dir_skips_everything(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        result = bench(cfg, empty)
        assert result.rows == []
        assert len(result.skipped) == 1

    def test_failures_do_not_stop_other_datasets(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].insert(
            0, {"name": "broken", "file": "missing.csv", "column": "value"}
        )
        result = bench(cfg, tmp_path)
        assert len(result.rows) == 2
        assert len(result.skipped) == 1
        assert result.skipped[0]["dataset"] == "broken"

    def test_kernel_key_reaches_the_fit(self, tmp_path, monkeypatch):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"][0]["kernel"] = "se"
        kinds = []
        real_run = harness.run

        def recording_run(config, *args, **kwargs):
            kinds.append(config.kernel_kind)
            return real_run(config, *args, **kwargs)

        monkeypatch.setattr(harness, "run", recording_run)
        result = bench(cfg, tmp_path)
        assert not result.skipped
        assert kinds == [KernelKind.SQUARED_EXPONENTIAL] * 2

    def test_unknown_kernel_skips_the_dataset(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].append({**cfg["datasets"][0], "name": "typo", "kernel": "rbf"})
        result = bench(cfg, tmp_path)
        assert [r["dataset"] for r in result.rows] == ["demo", "demo"]
        assert [s["dataset"] for s in result.skipped] == ["typo"]
        assert "rbf" in result.skipped[0]["error"]

    def test_programming_errors_are_not_skipped(self, tmp_path, monkeypatch):
        cfg = self.make_dataset(tmp_path)

        def broken_run(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(harness, "run", broken_run)
        with pytest.raises(TypeError, match="unsupported operand"):
            bench(cfg, tmp_path)

    def test_table_formatting(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        result = bench(cfg, tmp_path)
        text = format_bench_table(result)
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["dataset", "mode"]
        assert "2 rows, 0 skipped" in lines[-1]
        doc = {"rows": result.rows, "skipped": result.skipped}
        assert json.loads(json.dumps(doc)) == doc
