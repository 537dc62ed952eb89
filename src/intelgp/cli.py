"""Command-line interface: `run` streams one dataset, `bench` reproduces
the benchmark table over a dataset directory.

Precedence: command-line flags override the keyed config file, which
overrides built-in defaults.  Exit codes: 0 success, 2 input/parse error,
3 numerical failure, 4 configuration error.  The INTEL_LOG environment
variable (off|info|debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .gp import NumericalError
from .harness import (
    CONFIG_KEYS,
    InputError,
    bench,
    config_from_mapping,
    format_bench_table,
    load_csv,
    records_to_jsonl,
    run,
    slice_series,
)
from .metrics import DegenerateDataError

log = logging.getLogger("intelgp")


def _setup_logging() -> None:
    level_name = os.environ.get("INTEL_LOG", "off").lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValueError(f"INTEL_LOG must be off, info, or debug; got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(levels[level_name])


def parse_factor_flag(text: str) -> dict:
    """Parse `f=<r>,l=<r>,n=<r>` (any subset); colon separates multiple
    values per key, e.g. `f=15:10`."""
    out: dict[str, list[float]] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad factor {part!r}, expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        try:
            out[key] = [float(v) for v in value.split(":")]
        except ValueError:
            raise ValueError(f"bad factor value {value!r} for key {key!r}") from None
    return out


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc


def _cmd_run(args) -> int:
    merged = _load_config_file(args.config)
    merged.update(
        (key, flag) for key, flag in vars(args).items()
        if key in CONFIG_KEYS and flag is not None
    )
    if args.factors is not None:
        merged["factors"] = parse_factor_flag(args.factors)

    if "init_count" not in merged:
        raise ValueError("init_count is required (flag --init-count or config file)")
    config, data = config_from_mapping(merged)

    series = slice_series(load_csv(args.input, data["column"]), data)
    result = run(config, series, normalization=data["normalization"])

    summary = dict(result.summary)
    wall = summary.pop("wall_time_s")  # volatile; reruns must be byte-identical
    doc = {
        "metrics": {
            "nll": result.metrics.nll,
            "mae": result.metrics.mae,
            "mse": result.metrics.mse,
            "n_evaluated": result.metrics.n_evaluated,
        },
        "summary": summary,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "steps.jsonl").write_text(records_to_jsonl(result.records))
        (out_dir / "metrics.json").write_text(json.dumps(doc, indent=2) + "\n")
        log.info("wrote %s and %s", out_dir / "steps.jsonl", out_dir / "metrics.json")
    print(json.dumps(doc["metrics"]))
    print(
        f"outliers={summary['outliers']} change_points={summary['change_points']} "
        f"wall_time_s={wall:.3f}"
    )
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config_file(args.config)
    if "datasets" not in cfg:
        raise ValueError("bench config must have a 'datasets' list")
    result = bench(cfg, args.datasets)
    text = format_bench_table(result)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        table_doc = {"rows": result.rows, "skipped": result.skipped}
        (out_dir / "table.json").write_text(json.dumps(table_doc, indent=2) + "\n")
        (out_dir / "table.txt").write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intelgp",
        description="Streaming one-step-ahead prediction with anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream one dataset")
    p_run.add_argument("--input", required=True, help="CSV file with a header row")
    p_run.add_argument("--column", default=None, help="value column name (default: value)")
    p_run.add_argument("--init-count", dest="init_count", type=int, default=None)
    p_run.add_argument("--tau", type=int, default=None)
    p_run.add_argument("--alpha", type=float, default=None)
    p_run.add_argument("--n-outliers", dest="n_outliers", type=int, default=None)
    p_run.add_argument("--mean-period", dest="mean_period", type=int, default=None)
    p_run.add_argument("--kernel", choices=["matern52", "se"], default=None)
    p_run.add_argument("--factors", default=None, help="e.g. f=0.2,n=5; empty for SINTEL")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--normalization", choices=["init", "full"], default=None)
    p_run.add_argument("--row-start", dest="row_start", type=int, default=None)
    p_run.add_argument("--row-end", dest="row_end", type=int, default=None)
    p_run.add_argument("--config", default=None, help="keyed JSON config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run the benchmark table")
    p_bench.add_argument("--datasets", required=True, help="dataset directory")
    p_bench.add_argument("--config", required=True, help="bench config JSON")
    p_bench.add_argument("--out", default=None, help="output directory")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, DegenerateDataError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # a bad flag, config file or parameter value
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
