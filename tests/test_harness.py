"""Tests for CSV ingestion, the run loop, and the benchmark harness."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import regime_change_series
from hypothesis import given
from hypothesis import strategies as st

from intelgp import harness
from intelgp.engine import EngineConfig, StepOutput, Verdict, initialize, step
from intelgp.gp import KernelKind, PredictiveDistribution
from intelgp.harness import (
    CONFIG_KEYS,
    InputError,
    bench,
    config_from_mapping,
    format_bench_table,
    load_csv,
    parse_factors,
    records_to_jsonl,
    run,
    slice_series,
    step_record,
)
from intelgp.metrics import compute_stats
from intelgp.mixture import VariantFactors


def parse_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def verdicts_of(result) -> list[Verdict]:
    return [Verdict(r["verdict"]) for r in result.records]


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

    def test_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfvalue,t\n1.5,0\n2.5,1\n")
        np.testing.assert_array_equal(load_csv(p, "value"), [1.5, 2.5])

    def test_utf8_is_read_under_an_ascii_locale(self, tmp_path):
        p = tmp_path / "note.csv"
        p.write_bytes("value,note\n1.5,\u00b5\n2.5,\u00e9t\u00e9\n".encode())
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        code = (
            "import locale, sys; from intelgp.harness import load_csv; "
            "print(locale.getpreferredencoding(False), load_csv(sys.argv[1], 'value').tolist())"
        )
        done = subprocess.run([sys.executable, "-c", code, str(p)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split(" ", 1)[1] == "[1.5, 2.5]\n"


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


# The engine values of the equivalence test, and those EngineConfig accepts
# for each key: integers, numpy's included, from the least of each key up;
# alpha accepts none of them, as all lie outside (0, 1].
CANDIDATES = [20, np.int64(20), 20.0, 2.5, True, "20", None, 0, 7, 8]
ACCEPTED = {
    "tau": [20, np.int64(20), 7, 8], "n_outliers": [20, np.int64(20), 7, 8],
    "mean_period": [20, np.int64(20), 7, 8], "init_count": [20, np.int64(20), 8],
    "seed": [20, np.int64(20), 0, 7, 8], "alpha": [],
}


def rejection(build):
    """The message of the ValueError `build()` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestConfigFromMapping:
    def test_empty_mapping_gives_the_defaults(self):
        config, data = config_from_mapping({})
        assert config == EngineConfig()
        assert data == {
            "column": "value", "normalization": "init", "row_start": None, "row_end": None
        }

    def test_every_key_reaches_its_field(self):
        config, data = config_from_mapping(
            {
                "tau": 7, "alpha": 0.5, "n_outliers": 2, "mean_period": 4,
                "init_count": 90, "factors": {"l": 0.2}, "kernel": "se", "seed": 3,
                "column": "reading", "normalization": "full",
                "row_start": 5, "row_end": 50,
            }
        )
        assert config == EngineConfig(
            tau=7, alpha=0.5, n_outliers=2, mean_period=4, init_count=90,
            factors=VariantFactors(length=(1.0, 0.2)),
            kernel_kind=KernelKind.SQUARED_EXPONENTIAL, seed=3,
        )
        assert data == {
            "column": "reading", "normalization": "full", "row_start": 5, "row_end": 50
        }

    # Per EngineConfig field: its config key, a value there and the
    # field's value from it, none of them the default.
    FIELD_SETTINGS = {
        "tau": ("tau", 7, 7),
        "alpha": ("alpha", 0.5, 0.5),
        "n_outliers": ("n_outliers", 2, 2),
        "mean_period": ("mean_period", 4, 4),
        "init_count": ("init_count", 90, 90),
        "factors": ("factors", {"l": 0.2}, VariantFactors(length=(1.0, 0.2))),
        "kernel_kind": ("kernel", "se", KernelKind.SQUARED_EXPONENTIAL),
        "seed": ("seed", 3, 3),
    }

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EngineConfig)])
    def test_every_engine_config_field_can_be_set(self, field):
        # A field added to EngineConfig is a config key, and `intelgp run`
        # flag, with no list of keys to extend.
        key, value, want = self.FIELD_SETTINGS[field]
        assert key in CONFIG_KEYS
        assert want != getattr(EngineConfig(), field)
        assert getattr(config_from_mapping({key: value})[0], field) == want

    def test_paper_bench_config_parses(self):
        doc = json.loads((Path(__file__).parent.parent / "benchmarks" / "paper.json").read_text())
        for entry in doc["datasets"]:
            entry = {k: v for k, v in entry.items() if k not in ("name", "file")}
            config_from_mapping({**doc["defaults"], **entry})

    @pytest.mark.parametrize("key", ["alpah", "mode", "name", "kernel_kind"])
    def test_unknown_key_is_named(self, key):
        with pytest.raises(ValueError, match=key):
            config_from_mapping({"init_count": 80, key: 1})

    @pytest.mark.parametrize("value", CANDIDATES, ids=repr)
    @pytest.mark.parametrize("key", sorted(ACCEPTED))
    def test_engine_key_follows_engine_config(self, key, value):
        # The file passes engine values through: it accepts what
        # EngineConfig accepts and rejects the rest with the same message.
        direct = rejection(lambda: EngineConfig(**{key: value}))
        via_file = rejection(lambda: config_from_mapping({key: value}))
        assert via_file == direct
        assert (direct is None) == any(
            type(value) is type(v) and value == v for v in ACCEPTED[key]
        )
        if direct is None:
            assert config_from_mapping({key: value})[0] == EngineConfig(**{key: value})
        else:
            assert repr(key) in direct

    @pytest.mark.parametrize("value", [*CANDIDATES, 0.2, -1, math.inf], ids=repr)
    @pytest.mark.parametrize("as_list", [False, True])
    def test_factor_follows_variant_factors(self, value, as_list):
        doc = {"factors": {"f": [value] if as_list else value}}
        direct = rejection(lambda: VariantFactors(signal=(value,)))
        via_file = rejection(lambda: config_from_mapping(doc))
        assert (via_file is None) == (direct is None)
        assert (direct is None) == (
            not isinstance(value, (bool, str, type(None))) and 0 < value < math.inf
        )
        if direct is None:
            assert config_from_mapping(doc)[0].factors == VariantFactors(signal=(value,))
        else:
            assert "'signal'" in direct and "'factors'" in via_file


@pytest.fixture(scope="module")
def series():
    data, _ = regime_change_series()
    return data


# The floats at the edges of what `repr` and `json.dumps` write: a signed
# zero, the least subnormal, the exponent notations, and the non-finite.
EDGE_FLOATS = (-0.0, 5e-324, 1e308, 1e16, 1e-5, math.nan, math.inf, -math.inf)


def record_floats(positive=False):
    """An edge float or any float; `positive` for a variance."""
    if positive:
        return st.one_of(
            st.sampled_from([v for v in EDGE_FLOATS if v > 0.0]),
            st.floats(min_value=0.0, exclude_min=True),
        )
    return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def step_outputs(draw):
    """A StepOutput of 1 to 27 models with drawn floats, verdict and
    regime start; scalar floats may be numpy float64s, as floats."""
    m = draw(st.integers(1, 27))
    scalar = record_floats().flatmap(lambda v: st.sampled_from([v, np.float64(v)]))
    arrays = st.lists(record_floats(), min_size=m, max_size=m).map(np.array)
    return StepOutput(
        t=draw(st.integers(0, 2**62)),
        observation=draw(scalar),
        fused=PredictiveDistribution(draw(record_floats()), draw(record_floats(positive=True))),
        verdict=draw(st.sampled_from(list(Verdict))),
        weights_after=draw(arrays),
        mean_const=draw(scalar),
        means=draw(arrays),
        variances=draw(arrays),
        regime_start=draw(st.one_of(st.none(), st.integers(0, 2**62))),
    )


class TestRecordsToJsonl:
    @given(step_outputs())
    def test_each_line_is_what_json_dumps_writes(self, out):
        record = step_record(out)
        assert records_to_jsonl([record]) == json.dumps(record) + "\n"

    def test_no_records_give_no_text(self):
        assert records_to_jsonl([]) == ""


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

    def test_record_weights_are_python_floats_of_the_weights(self, series):
        config = EngineConfig(init_count=130)
        result = run(config, series[:400])
        z = compute_stats(series[:130]).normalize(series[:400])
        state = initialize(np.arange(130), z[:130], config)
        for record, y in zip(result.records, z[130:], strict=True):
            state, out = step(state, y)
            assert all(type(w) is float for w in record["weights"])
            assert np.array(record["weights"]).tobytes() == out.weights_after.tobytes()

    def test_sintel_equals_intel_with_singleton_factors(self, series, tmp_path):
        lines = [f"{i},{v:.8f}" for i, v in enumerate(series)]
        write_csv(tmp_path / "s.csv", lines)
        result = bench(
            {
                "defaults": {"init_count": 120, "seed": 0},
                "datasets": [{"name": "s", "file": "s.csv", "factors": {"l": 0.2}}],
            },
            tmp_path,
        )
        sintel = next(r for r in result.rows if r["mode"] == "sintel")
        single = run(
            EngineConfig(init_count=120, seed=0, factors=VariantFactors()),
            load_csv(tmp_path / "s.csv", "value"),
        )
        assert sintel["n_evaluated"] == single.metrics.n_evaluated
        assert (sintel["nll"], sintel["mae"], sintel["mse"]) == (
            single.metrics.nll, single.metrics.mae, single.metrics.mse
        )
        assert sintel["outliers"] == single.summary["outliers"]
        assert sintel["change_points"] == single.summary["change_points"]

    @pytest.mark.parametrize(
        "a, b",
        [(1e3, -7.0), (1e-3, 5.0), (3.7, 1e4), (1e-150, 0.0), (1e-150, 1e-148), (1e150, 0.0)],
    )
    def test_verdicts_invariant_under_affine_rescaling(self, series, a, b):
        config = EngineConfig(init_count=130)
        plain = run(config, series[:400])
        rescaled = run(config, a * series[:400] + b)
        verdicts = verdicts_of(plain)
        assert {Verdict.OUTLIER, Verdict.CHANGE_POINT} <= set(verdicts)
        assert verdicts_of(rescaled) == verdicts

    def test_near_constant_init_segment_flags_the_stream(self):
        # Documented behaviour, not an error: the segment passes the scale
        # check, and every streamed point falls outside the fitted band.
        rng = np.random.default_rng(0)
        y = np.concatenate([3.0 + 1e-9 * rng.uniform(-1, 1, 200), rng.standard_normal(200)])
        for normalization in ("init", "full"):
            result = run(EngineConfig(init_count=200), y, normalization=normalization)
            assert Verdict.INLIER not in verdicts_of(result)
            assert result.summary["change_points"] > 0
            assert (result.summary["norm_std"] < 1e-9) == (normalization == "init")

    def test_far_out_observation_gives_inf_metrics_without_a_warning(self):
        # The pytest configuration turns a RuntimeWarning into an error, so
        # an overflow warning anywhere in the run fails this test.
        s = np.random.default_rng(0).standard_normal(300)
        s[250] = 1e160
        result = run(EngineConfig(init_count=200), s)
        assert verdicts_of(result)[50] is not Verdict.INLIER
        assert result.metrics.nll == result.metrics.mse == math.inf
        assert math.isfinite(result.metrics.mae)

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

    def test_result_keeps_under_900_bytes_per_step(self):
        # What a RunResult holds per streamed step at M=8: the growth of
        # traced memory from a 500-step to a 1,500-step stream.  The
        # records alone take about 700 bytes a step; a StepOutput kept
        # besides each would add about 500.
        config = EngineConfig(init_count=100)
        run(config, np.random.default_rng(0).standard_normal(150))  # warm-up

        def retained(n_steps):
            series = np.random.default_rng(0).standard_normal(100 + n_steps)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = run(config, series)
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(result.records) == n_steps
            return kept

        per_step = (retained(1500) - retained(500)) / 1000
        assert per_step < 900, f"{per_step:.0f} bytes per step"


def cpu_shift_like(rng, n=800):
    """Daily-periodic utilisation, noise, a sustained shift and sparse
    spikes, in percent."""
    t = np.arange(n)
    y = 40.0 + 8.0 * np.sin(2.0 * np.pi * t / 288) + 5.0 * rng.standard_normal(n)
    y[560:] += 25.0
    spikes = rng.choice(np.arange(230, n - 5, 4), size=6, replace=False)
    y[spikes] += rng.choice([-1.0, 1.0], size=6) * 30.0
    return y


def glitchy_like(rng, n=800):
    """A mean-reverting heavy-tailed walk with two level shifts and about
    12% glitches."""
    y = np.empty(n)
    level = 0.0
    for i, e in enumerate(rng.standard_t(5, size=n)):
        level = 0.97 * level + e
        y[i] = level
    y /= y[:200].std()
    y[400:] += 18.0
    y[650:] -= 18.0
    glitches = rng.choice(np.arange(220, n), size=n * 12 // 100, replace=False)
    y[glitches] += rng.choice([-1.0, 1.0], size=glitches.size) * 15.0
    return y


AFFINE_STREAMS = {
    "cpu_shift": (
        EngineConfig(init_count=200, factors=VariantFactors((1.0, 0.2))),
        cpu_shift_like(np.random.default_rng(71), 800),
    ),
    "glitchy": (
        EngineConfig(
            init_count=200,
            factors=VariantFactors((1.0, 0.2, 5.0), (1.0, 0.2, 5.0), (1.0, 0.2, 5.0)),
        ),
        glitchy_like(np.random.default_rng(72), 760),
    ),
}


def affine_draws(count=8):
    """Seeded (stream, a, b): a = e^U(-8, 8), b uniform on [-1e3, 1e3]."""
    rng = np.random.default_rng(2019)
    names = sorted(AFFINE_STREAMS)
    return [
        (names[i % 2], float(np.exp(rng.uniform(-8.0, 8.0))), float(rng.uniform(-1e3, 1e3)))
        for i in range(count)
    ]


class TestAffineInvariance:
    @pytest.fixture(scope="class")
    def plain(self):
        return {
            name: run(config, y, normalization="init")
            for name, (config, y) in AFFINE_STREAMS.items()
        }

    @pytest.mark.parametrize("name, a, b", affine_draws())
    def test_verdicts_unchanged_under_a_drawn_affine_map(self, plain, name, a, b):
        config, y = AFFINE_STREAMS[name]
        mapped = run(config, a * y + b, normalization="init")
        verdicts = verdicts_of(plain[name])
        assert {Verdict.OUTLIER, Verdict.CHANGE_POINT} <= set(verdicts)
        assert verdicts_of(mapped) == verdicts

    @pytest.mark.parametrize("name, a", [("cpu_shift", 2.0**-20), ("glitchy", 2.0**9)])
    def test_power_of_two_scale_gives_identical_records(self, plain, name, a):
        # Scaling by a power of two is exact in the mean, the standard
        # deviation and the normalised series alike.
        config, y = AFFINE_STREAMS[name]
        mapped = run(config, a * y, normalization="init")
        assert records_to_jsonl(mapped.records) == records_to_jsonl(plain[name].records)
        assert mapped.metrics == plain[name].metrics


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

    @pytest.mark.parametrize("doc, message", [
        ({"datasets": {"a": 1}}, "'datasets' list"),
        ({"defaults": {}}, "'datasets' list, got None"),
        ({"datasets": ["x.csv"]}, "must be objects"),
        ({"defaults": [1], "datasets": [{"file": "x.csv"}]}, "must be objects"),
        ({"default": {"tau": 2.5}, "datasets": []}, r"unknown bench keys \['default'\]"),
    ])
    def test_bad_layout_is_rejected_before_any_dataset(self, tmp_path, monkeypatch, doc, message):
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: pytest.fail("ran"))
        with pytest.raises(ValueError, match=message):
            bench(doc, tmp_path)

    def test_entry_without_a_file_string_skips_naming_the_key(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"][:0] = [{"name": "nofile"}, {"name": "number", "file": 5}]
        result = bench(cfg, tmp_path)
        assert len(result.rows) == 2
        assert [(s["dataset"], s["failure"]) for s in result.skipped] == [
            ("nofile", "config"), ("number", "config")
        ]
        assert [s["error"] for s in result.skipped] == [
            "a dataset entry needs a 'file' string, got None",
            "a dataset entry needs a 'file' string, got 5",
        ]

    def test_failures_do_not_stop_other_datasets(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].insert(
            0, {"name": "broken", "file": "missing.csv", "column": "value"}
        )
        result = bench(cfg, tmp_path)
        assert len(result.rows) == 2
        assert len(result.skipped) == 1
        assert result.skipped[0]["dataset"] == "broken"
        assert result.skipped[0]["failure"] == "input"

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

    @pytest.mark.parametrize("key, value", [("alpah", 0.5), ("mode", "sintel")])
    def test_unknown_entry_key_skips_the_dataset(self, tmp_path, key, value):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].append({**cfg["datasets"][0], "name": "typo", key: value})
        result = bench(cfg, tmp_path)
        assert [r["dataset"] for r in result.rows] == ["demo", "demo"]
        assert [s["dataset"] for s in result.skipped] == ["typo"]
        assert key in result.skipped[0]["error"]
        assert result.skipped[0]["failure"] == "config"

    @pytest.mark.parametrize(
        "key, value", [("tau", 2.7), ("seed", "3"), ("row_start", "100"), ("row_end", 1.5)]
    )
    def test_non_integer_entry_value_skips_the_dataset(self, tmp_path, key, value):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].insert(0, {**cfg["datasets"][0], "name": "typo", key: value})
        result = bench(cfg, tmp_path)
        assert [r["dataset"] for r in result.rows] == ["demo", "demo"]
        assert [s["dataset"] for s in result.skipped] == ["typo"]
        assert repr(key) in result.skipped[0]["error"]

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", True), ("alpha", "0.5"), ("factors", {"f": [True, 0.2]}),
         ("factors", {"f": [1, "0.2"]}), ("factors", {"l": True})],
    )
    def test_non_number_entry_value_skips_the_dataset(self, tmp_path, key, value):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].insert(0, {**cfg["datasets"][0], "name": "typo", key: value})
        result = bench(cfg, tmp_path)
        assert [r["dataset"] for r in result.rows] == ["demo", "demo"]
        assert [s["dataset"] for s in result.skipped] == ["typo"]
        assert repr(key) in result.skipped[0]["error"]

    @pytest.mark.parametrize(
        "key, value, message",
        [("init_count", 0, "'init_count' must be >= 8"),
         ("init_count", -5, "'init_count' must be >= 8"),
         ("column", 5, "'column'")],
    )
    def test_bad_entry_value_skips_the_dataset_naming_the_key(
        self, tmp_path, key, value, message
    ):
        cfg = self.make_dataset(tmp_path)
        cfg["datasets"].insert(0, {**cfg["datasets"][0], "name": "typo", key: value})
        result = bench(cfg, tmp_path)
        assert [r["dataset"] for r in result.rows] == ["demo", "demo"]
        assert [s["dataset"] for s in result.skipped] == ["typo"]
        assert message in result.skipped[0]["error"]

    def test_data_keys_in_defaults_are_honoured(self, tmp_path):
        cfg = self.make_dataset(tmp_path)
        series, _ = regime_change_series(seed=7, n_smooth=160, n_rough=120)
        lines = [f"{i},{v:.8f}" for i, v in enumerate(series)]
        write_csv(tmp_path / "reading.csv", lines, header="timestamp,reading")
        cfg["defaults"].update(column="reading", row_start=30)
        cfg["datasets"] = [{"name": "reading", "file": "reading.csv"}]
        result = bench(cfg, tmp_path)
        assert not result.skipped
        assert [r["n_evaluated"] for r in result.rows] == [len(series) - 30 - 80] * 2

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
