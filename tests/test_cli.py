"""Tests for the command-line interface: flags, exit codes, and outputs."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import regime_change_series

import intelgp
from intelgp import harness
from intelgp.cli import build_parser, main, parse_factor_flag
from intelgp.engine import EngineConfig
from intelgp.gp import NumericalError
from intelgp.harness import CONFIG_KEYS, load_csv, records_to_jsonl, run
from intelgp.metrics import RunMetrics
from intelgp.mixture import VariantFactors


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    series, _ = regime_change_series(seed=8, n_smooth=160, n_rough=120)
    lines = [f"{i},{v:.8f}" for i, v in enumerate(series)]
    path.write_text("timestamp,value\n" + "\n".join(lines) + "\n")
    return path


class TestParseFactorFlag:
    def test_all_three_keys(self):
        assert parse_factor_flag("f=0.2,l=0.5,n=5") == {
            "f": [0.2],
            "l": [0.5],
            "n": [5.0],
        }

    def test_multi_value_key(self):
        assert parse_factor_flag("f=15:10") == {"f": [15.0, 10.0]}

    def test_bad_key(self, dataset, capsys):
        # The flag passes keys through; the config parser rejects them.
        assert parse_factor_flag("x=2") == {"x": [2.0]}
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--factors", "x=2"])
        assert code == 4
        assert "'x'" in capsys.readouterr().err

    def test_bad_value(self):
        with pytest.raises(ValueError, match="bad factor value"):
            parse_factor_flag("f=abc")

    def test_repeated_key_is_config_error(self, dataset, capsys):
        # Not the last value silently: f=0.2 would be dropped.
        code = main(
            ["run", "--input", str(dataset), "--init-count", "80", "--factors", "f=0.2,f=0.5"]
        )
        assert code == 4
        assert "'f' is repeated" in capsys.readouterr().err


class TestRunCommand:
    def test_successful_run_writes_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--input", str(dataset),
                "--column", "value",
                "--init-count", "80",
                "--factors", "f=0.2,l=0.2,n=5",
                "--out", str(out),
            ]
        )
        assert code == 0
        metrics_line = capsys.readouterr().out.splitlines()[0]
        metrics = json.loads(metrics_line)
        assert set(metrics) == {"nll", "mae", "mse", "n_evaluated"}
        steps = (out / "steps.jsonl").read_text().splitlines()
        assert len(steps) == 280 - 80
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["metrics"]["n_evaluated"] == 200
        assert list(doc["metrics"]) == [f.name for f in dataclasses.fields(RunMetrics)]
        assert "wall_time_s" not in doc["summary"]

    def test_stdout_line_gives_the_counts_and_the_time_of_the_run(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        def slow_run(*args, **kwargs):
            time.sleep(0.25)
            return run(*args, **kwargs)

        monkeypatch.setattr(intelgp.cli, "run", slow_run)
        assert main(["run", "--input", str(dataset), "--init-count", "80",
                     "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        line = re.fullmatch(r"outliers=(\d+) change_points=(\d+) wall_time_s=(\d+\.\d{3})",
                            lines[1])
        assert line is not None, lines[1]
        summary = json.loads((tmp_path / "metrics.json").read_text())["summary"]
        assert (int(line[1]), int(line[2])) == (summary["outliers"], summary["change_points"])
        assert float(line[3]) >= 0.25

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        args = [
            "run",
            "--input", str(dataset),
            "--column", "value",
            "--init-count", "80",
            "--seed", "5",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("steps.jsonl", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(
            ["run", "--input", str(tmp_path / "no.csv"), "--init-count", "10"]
        )
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_column_is_input_error(self, dataset, capsys):
        code = main(
            [
                "run",
                "--input", str(dataset),
                "--column", "nope",
                "--init-count", "80",
            ]
        )
        assert code == 2

    def test_nan_cell_is_input_error(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("t,value\n0,1.0\n1,nan\n")
        code = main(["run", "--input", str(p), "--init-count", "8"])
        assert code == 2

    def test_constant_init_segment_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        rows = "\n".join(f"{i},5.0" for i in range(40))
        p.write_text("t,value\n" + rows + "\n")
        code = main(["run", "--input", str(p), "--init-count", "30"])
        assert code == 2
        assert "constant" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-5", "5", "7"])
    def test_init_count_below_fit_minimum_is_config_error(self, dataset, capsys, count):
        # Rejected by name before the fit, which needs 8 points.
        code = main(["run", "--input", str(dataset), "--init-count", count])
        assert code == 4
        assert f"'init_count' must be >= 8, got {count}" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [10**400, 2**62], ids=["10**400", "2**62"])
    def test_tau_beyond_numpy_largest_table_is_config_error(self, dataset, tmp_path, capsys, tau):
        # Named before the fit, as flag and as config value.
        code = main(["run", "--input", str(dataset), "--init-count", "60", "--tau", str(tau)])
        assert code == 4
        assert "'tau' must be <= " in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init_count": 60, "tau": tau}))
        assert main(["run", "--input", str(dataset), "--config", str(cfg)]) == 4
        assert "'tau' must be <= " in capsys.readouterr().err

    def test_missing_init_count_is_config_error(self, dataset, capsys):
        code = main(["run", "--input", str(dataset)])
        assert code == 4
        assert "config error" in capsys.readouterr().err

    def test_bad_factor_flag_is_config_error(self, dataset):
        code = main(
            [
                "run",
                "--input", str(dataset),
                "--init-count", "80",
                "--factors", "zz=1",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "flag, name", [("f=inf", "signal"), ("l=inf", "length"), ("n=nan", "noise")]
    )
    def test_non_finite_factor_is_config_error(self, dataset, capsys, flag, name):
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--factors", flag])
        assert code == 4
        err = capsys.readouterr().err
        assert f"'{name}' factor" in err and "not finite" in err

    def test_repeated_factor_is_config_error(self, dataset, capsys):
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--factors", "f=0.2:0.2"])
        assert code == 4
        assert "'signal' factors must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text, value",
        [("tau", "2.5", 2.5), ("kernel", "foo", "foo"), ("row_start", "1.5", 1.5),
         ("seed", "true", "true"), ("normalization", "foo", "foo")],
    )
    def test_rejected_flag_value_is_config_error_as_in_a_config_file(
        self, dataset, tmp_path, capsys, key, text, value
    ):
        flag = "--" + key.replace("_", "-")
        assert main(["run", "--input", str(dataset), "--init-count", "80", flag, text]) == 4
        err = capsys.readouterr().err
        assert repr(key) in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init_count": 80, key: value}))
        assert main(["run", "--input", str(dataset), "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("args", [["--tau"], ["--taus", "20"]], ids=["missing", "unknown"])
    def test_missing_or_unknown_flag_is_usage_error(self, dataset, args):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(dataset), "--init-count", "80", *args])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, text, key, value",
        [("--alpha", ".5", "alpha", 0.5), ("--tau", "020", "tau", 20), ("--tau", " 20", "tau", 20),
         ("--row-end", "-5", "row_end", -5), ("--init-count", "1_000", "init_count", 1000),
         ("--seed", "1e3", "seed", 1000.0), ("--kernel", "se", "kernel", "se"),
         ("--column", "5", "column", "5"), ("--factors", "f=2", "factors", "f=2")],
    )
    def test_flag_text_is_read_as_int_float_or_text(self, flag, text, key, value):
        args = build_parser().parse_args(["run", "--input", "series.csv", flag, text])
        assert getattr(args, key) == value
        assert type(getattr(args, key)) is type(value)

    def test_overflowing_factor_fails_before_streaming(self, dataset, capsys):
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--factors", "f=1e200"])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "at stream position" not in err

    def test_config_file_supplies_defaults_and_flags_override(
        self, dataset, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init_count": 80, "tau": 10, "seed": 1}))
        code = main(
            [
                "run",
                "--input", str(dataset),
                "--config", str(cfg),
                "--tau", "20",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert doc["summary"]["init_count"] == 80

    def test_every_config_key_has_a_run_flag(self):
        args = build_parser().parse_args(["run", "--input", "series.csv"])
        assert set(CONFIG_KEYS) <= set(vars(args))

    def test_row_range_flags(self, dataset, tmp_path):
        code = main(
            [
                "run",
                "--input", str(dataset),
                "--init-count", "50",
                "--row-start", "40",
                "--row-end", "240",
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "r" / "metrics.json").read_text())
        assert doc["summary"]["n_observations"] == 200
        assert doc["metrics"]["n_evaluated"] == 150

    def test_unknown_config_key_is_config_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"init_count": 80, "alpah": 0.5}))
        code = main(["run", "--input", str(dataset), "--config", str(cfg)])
        assert code == 4
        assert "alpah" in capsys.readouterr().err

    def test_sintel_mode_is_the_template_model_alone(self, dataset, tmp_path):
        # SINTEL is an empty factor list, from the flag or the config file.
        cfg = tmp_path / "sintel.json"
        cfg.write_text(json.dumps({"init_count": 80, "factors": {}}))
        result = run(
            EngineConfig(init_count=80, factors=VariantFactors()), load_csv(dataset, "value")
        )
        for name, how in (
            ("flag", ["--init-count", "80", "--factors="]), ("file", ["--config", str(cfg)])
        ):
            out = tmp_path / name
            code = main(["run", "--input", str(dataset), *how, "--out", str(out)])
            assert code == 0
            assert (out / "steps.jsonl").read_text() == records_to_jsonl(result.records)

    @pytest.mark.parametrize(
        "key, value",
        [("tau", 2.7), ("tau", 20.0), ("init_count", "80"), ("seed", True),
         ("row_start", "100"), ("row_start", 20.0), ("row_end", 250.5)],
    )
    def test_non_integer_config_value_is_config_error(
        self, dataset, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps({"init_count": 80, key: value}))
        code = main(["run", "--input", str(dataset), "--config", str(cfg)])
        assert code == 4
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", True), ("alpha", "0.5"), ("factors", {"f": [True, 0.2]}),
         ("factors", {"f": [1, "0.2"]}), ("factors", {"l": True}), ("factors", ["f"]),
         ("factors", "f")],
    )
    def test_non_number_config_value_is_config_error(
        self, dataset, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "num.json"
        cfg.write_text(json.dumps({"init_count": 80, key: value}))
        code = main(["run", "--input", str(dataset), "--config", str(cfg)])
        assert code == 4
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("column", 5), ("column", None), ("column", ["value"]), ("normalization", 5)],
    )
    def test_non_string_config_value_is_config_error(
        self, dataset, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "str.json"
        cfg.write_text(json.dumps({"init_count": 80, key: value}))
        code = main(["run", "--input", str(dataset), "--config", str(cfg)])
        assert code == 4
        assert repr(key) in capsys.readouterr().err

    def test_bad_mode_in_config_file_is_config_error(self, dataset, tmp_path, capsys):
        # There is no mode key: SINTEL is "factors": {}.
        cfg = tmp_path / "mode.json"
        cfg.write_text(json.dumps({"init_count": 80, "mode": "sintel"}))
        code = main(["run", "--input", str(dataset), "--config", str(cfg)])
        assert code == 4
        assert "'mode'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [('{"init_count": 80, "tau": 10, "tau": 20}', "tau"),
         ('{"init_count": 80, "factors": {"f": 0.2, "f": 0.5}}', "f")],
    )
    def test_repeated_config_key_is_config_error(self, dataset, tmp_path, capsys, text, key):
        cfg = tmp_path / "twice.json"
        cfg.write_text(text)
        code = main(["run", "--input", str(dataset), "--config", str(cfg)])
        assert code == 4
        assert f"{key!r} is repeated" in capsys.readouterr().err

    def test_config_file_that_is_a_directory_is_config_error(self, dataset, tmp_path, capsys):
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--config", str(tmp_path)])
        assert code == 4
        assert "cannot be read" in capsys.readouterr().err

    def test_out_that_is_a_file_is_input_error_before_the_run(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(intelgp.cli, "run", lambda *args, **kwargs: pytest.fail("ran"))
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--out", str(taken)])
        assert code == 2
        assert "input error: --out" in capsys.readouterr().err

    def test_out_file_that_cannot_be_written_is_input_error(self, dataset, tmp_path, capsys):
        (tmp_path / "steps.jsonl").mkdir()
        code = main(["run", "--input", str(dataset), "--init-count", "80", "--out", str(tmp_path)])
        assert code == 2
        assert "steps.jsonl cannot be written" in capsys.readouterr().err

    def test_input_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"t,value\n0,1.0\n1,\xff\n")
        assert main(["run", "--input", str(p), "--init-count", "8"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_config_json_is_config_error(self, dataset, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(
            ["run", "--input", str(dataset), "--init-count", "80", "--config", str(cfg)]
        )
        assert code == 4

    def test_bad_intel_log_env_is_config_error(self, dataset, monkeypatch):
        monkeypatch.setenv("INTEL_LOG", "loud")
        code = main(["run", "--input", str(dataset), "--init-count", "80"])
        assert code == 4

    def test_info_logging_enabled(self, dataset, monkeypatch, capsys):
        monkeypatch.setenv("INTEL_LOG", "info")
        code = main(["run", "--input", str(dataset), "--init-count", "80"])
        assert code == 0


    def test_outputs_do_not_depend_on_the_blas_thread_count(self, dataset, tmp_path):
        # The suite runs on one BLAS thread (tests/conftest.py), so each run
        # is a process of its own that sets the count.  A 200-point fit is
        # large enough for OpenBLAS to thread its factorization.
        env = dict(os.environ, PYTHONPATH=str(Path(intelgp.__file__).resolve().parents[1]))
        for threads in ("1", "2"):
            done = subprocess.run(
                [
                    sys.executable, "-m", "intelgp.cli", "run",
                    "--input", str(dataset),
                    "--init-count", "200",
                    "--out", str(tmp_path / threads),
                ],
                env=dict(env, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
        for name in ("steps.jsonl", "metrics.json"):
            one, two = ((tmp_path / t / name).read_bytes() for t in ("1", "2"))
            assert one == two, f"{name} differs between one and two BLAS threads"


def test_files_are_read_and_written_in_utf8_whatever_the_locale(dataset, tmp_path):
    # An open() without an encoding takes the locale's; -X
    # warn_default_encoding flags each such call with an EncodingWarning,
    # made an error here.  run reads a config file and writes steps.jsonl
    # and metrics.json; bench reads its bench file and writes table.json
    # and table.txt.
    env = dict(os.environ, PYTHONPATH=str(Path(intelgp.__file__).resolve().parents[1]))
    cli = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
           "-m", "intelgp.cli"]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"init_count": 80}), encoding="utf-8")
    bench_file = tmp_path / "bench.json"
    bench_file.write_text(json.dumps({"defaults": {"init_count": 80},
                                      "datasets": [{"file": dataset.name}]}), encoding="utf-8")
    for args in (
        ["run", "--input", str(dataset), "--config", str(config), "--out", str(tmp_path / "run")],
        ["bench", "--datasets", str(dataset.parent), "--config", str(bench_file),
         "--out", str(tmp_path / "bench")],
    ):
        done = subprocess.run([*cli, *args], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "EncodingWarning" not in done.stderr
    assert (tmp_path / "run" / "metrics.json").is_file()
    assert (tmp_path / "bench" / "table.txt").is_file()


class TestBenchCommand:
    def bench(self, dataset, tmp_path, extra=()):
        """Exit code and output directory of a bench over the series and
        the `extra` entries, which come first."""
        entry = {
            "name": "series",
            "file": dataset.name,
            "column": "value",
            "factors": {"f": 0.2, "l": 0.2, "n": 5},
        }
        cfg = tmp_path / "bench.json"
        cfg.write_text(
            json.dumps(
                {"defaults": {"init_count": 80, "seed": 0}, "datasets": [*extra, entry]}
            )
        )
        out = tmp_path / "bench_out"
        code = main(
            [
                "bench",
                "--datasets", str(dataset.parent),
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        return code, out

    def test_bench_writes_table(self, dataset, tmp_path, capsys):
        code, out = self.bench(dataset, tmp_path)
        assert code == 0
        table = json.loads((out / "table.json").read_text())
        assert {r["mode"] for r in table["rows"]} == {"intel", "sintel"}
        stdout = capsys.readouterr().out
        assert "dataset" in stdout and "nll" in stdout

    def test_missing_file_exits_2_after_writing_the_other_rows(self, dataset, tmp_path):
        missing = {"name": "missing", "file": "missing.csv"}
        code, out = self.bench(dataset, tmp_path, [missing])
        assert code == 2
        table = json.loads((out / "table.json").read_text())
        assert [(r["dataset"], r["mode"]) for r in table["rows"]] == [
            ("series", "intel"), ("series", "sintel")
        ]
        assert [(s["dataset"], s["failure"]) for s in table["skipped"]] == [
            ("missing", "input")
        ]
        assert "1 skipped" in (out / "table.txt").read_text()

    def test_unknown_entry_key_exits_4(self, dataset, tmp_path):
        typo = {"name": "typo", "file": dataset.name, "alpah": 0.5}
        code, out = self.bench(dataset, tmp_path, [typo])
        assert code == 4
        table = json.loads((out / "table.json").read_text())
        assert {r["dataset"] for r in table["rows"]} == {"series"}
        assert [s["failure"] for s in table["skipped"]] == ["config"]

    def test_first_skip_picks_the_exit_code(self, dataset, tmp_path):
        typo = {"name": "typo", "file": dataset.name, "alpah": 0.5}
        missing = {"name": "missing", "file": "missing.csv"}
        assert self.bench(dataset, tmp_path, [typo, missing])[0] == 4
        assert self.bench(dataset, tmp_path, [missing, typo])[0] == 2

    def test_numerical_skip_exits_3(self, dataset, tmp_path, monkeypatch):
        def failing_run(*args, **kwargs):
            raise NumericalError("not positive definite")

        monkeypatch.setattr(harness, "run", failing_run)
        code, out = self.bench(dataset, tmp_path)
        assert code == 3
        table = json.loads((out / "table.json").read_text())
        assert table["rows"] == []
        assert [s["failure"] for s in table["skipped"]] == ["numerical"]

    def test_repeated_key_in_bench_file_is_config_error(self, dataset, capsys):
        cfg = dataset.parent / "twice.json"
        cfg.write_text(
            '{"defaults": {"init_count": 80}, '
            f'"datasets": [{{"file": "{dataset.name}", "seed": 1, "seed": 2}}]}}'
        )
        code = main(["bench", "--datasets", str(dataset.parent), "--config", str(cfg)])
        assert code == 4
        assert "'seed' is repeated" in capsys.readouterr().err

    def test_out_that_is_a_file_is_input_error_before_the_bench(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(intelgp.cli, "bench", lambda *args: pytest.fail("ran"))
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"datasets": [{"file": dataset.name}]}))
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["bench", "--datasets", str(dataset.parent), "--config", str(cfg),
                     "--out", str(taken)])
        assert code == 2
        assert "input error: --out" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"datasets": {"a": 1}},
        {"datasets": ["x.csv"]},
        {"defaults": [1], "datasets": [{"file": "x.csv"}]},
        {"default": {"tau": 2.5}, "datasets": []},
    ])
    def test_bad_bench_file_layout_is_config_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(doc))
        code = main(["bench", "--datasets", str(tmp_path), "--config", str(cfg)])
        assert code == 4
        assert capsys.readouterr().err.startswith("config error: ")

    def test_bench_requires_datasets_key(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        code = main(["bench", "--datasets", str(tmp_path), "--config", str(cfg)])
        assert code == 4
