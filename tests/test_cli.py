"""Tests for the command-line interface: flags, exit codes, and outputs."""

import json

import pytest
from conftest import regime_change_series

from intelgp.cli import build_parser, main, parse_factor_flag
from intelgp.engine import EngineConfig
from intelgp.harness import CONFIG_KEYS, load_csv, records_to_jsonl, run
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
        assert "wall_time_s" not in doc["summary"]

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
        code = main(["run", "--input", str(p), "--init-count", "1"])
        assert code == 2

    def test_constant_init_segment_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        rows = "\n".join(f"{i},5.0" for i in range(40))
        p.write_text("t,value\n" + rows + "\n")
        code = main(["run", "--input", str(p), "--init-count", "30"])
        assert code == 2
        assert "constant" in capsys.readouterr().err

    def test_too_small_init_count_is_config_error(self, dataset):
        code = main(["run", "--input", str(dataset), "--init-count", "5"])
        assert code == 4

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
        assert f"{name} factor" in err and "not finite" in err

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
        [("tau", 2.7), ("init_count", "80"), ("seed", True), ("row_start", "100"),
         ("row_end", 250.5)],
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
         ("factors", {"f": [1, "0.2"]}), ("factors", {"l": True})],
    )
    def test_non_number_config_value_is_config_error(
        self, dataset, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "num.json"
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


class TestBenchCommand:
    def test_bench_writes_table(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(
            json.dumps(
                {
                    "defaults": {"init_count": 80, "seed": 0},
                    "datasets": [
                        {
                            "name": "series",
                            "file": dataset.name,
                            "column": "value",
                            "factors": {"f": 0.2, "l": 0.2, "n": 5},
                        }
                    ],
                }
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
        assert code == 0
        table = json.loads((out / "table.json").read_text())
        assert {r["mode"] for r in table["rows"]} == {"intel", "sintel"}
        stdout = capsys.readouterr().out
        assert "dataset" in stdout and "nll" in stdout

    def test_bench_requires_datasets_key(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        code = main(["bench", "--datasets", str(tmp_path), "--config", str(cfg)])
        assert code == 4
