"""Command-line interface: `run` streams one dataset, `bench` reproduces
the benchmark table over a dataset directory.

Precedence: command-line flags override the keyed config file, which
overrides built-in defaults.  Exit codes: 0 success, 2 input or usage error,
3 numerical failure, 4 configuration error; `bench` exits with the code
of its first skipped dataset's failure.  The INTEL_LOG environment
variable (off|info|debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .gp import NumericalError
from .harness import (
    CONFIG_KEYS,
    InputError,
    bench,
    config_from_mapping,
    failure_class,
    format_bench_table,
    load_csv,
    run,
    run_files,
    slice_series,
)

log = logging.getLogger("intelgp")

# The exit code and message prefix of each `harness.failure_class`.
_FAILURES = {
    "input": (2, "input error"),
    "numerical": (3, "numerical failure"),
    "config": (4, "config error"),
}


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
        if key in out:
            raise ValueError(f"factor key {key!r} is repeated in --factors")
        try:
            out[key] = [float(v) for v in value.split(":")]
        except ValueError:
            raise ValueError(f"bad factor value {value!r} for key {key!r}") from None
    return out


def _unique_keys(pairs) -> dict:
    """A JSON object's mapping; a key given twice is rejected, not
    overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is repeated")
        doc[key] = value
    return doc


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"config file {path} cannot be read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc


def _flag_value(text: str):
    """`int(text)`, else `float(text)`, else the text: a flag's config value."""
    for number in (int, float):
        with contextlib.suppress(ValueError):
            return number(text)
    return text


def _out_dir(path) -> Path | None:
    """The `--out` directory, made before any work; one that cannot be
    made is an input error."""
    if not path:
        return None
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out {path} cannot be made a directory: {exc.strerror}") from None
    return out


def _write(out_dir: Path | None, files: dict) -> None:
    """Write each text of `files` under its name in `out_dir`, if any."""
    if out_dir is None:
        return
    for name, text in files.items():
        try:
            (out_dir / name).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"--out {out_dir}: {name} cannot be written: {exc.strerror}") from None
    log.info("wrote %s to %s", ", ".join(files), out_dir)


def _cmd_run(args) -> int:
    out_dir = _out_dir(args.out)
    merged = _load_config_file(args.config)
    merged.update(
        (key, flag) for key, flag in vars(args).items()
        if key in CONFIG_KEYS and flag is not None
    )
    if args.factors is not None:
        merged["factors"] = parse_factor_flag(args.factors)

    if "init_count" not in merged:
        raise ValueError("'init_count' is required (flag --init-count or config file)")
    config, data = config_from_mapping(merged)

    series = slice_series(load_csv(args.input, data["column"]), data)
    t0 = time.perf_counter()
    result = run(config, series, normalization=data["normalization"])
    wall = time.perf_counter() - t0  # stdout only: reruns are byte-identical

    _write(out_dir, run_files(result))
    print(json.dumps(asdict(result.metrics)))
    print(
        f"outliers={result.summary['outliers']} "
        f"change_points={result.summary['change_points']} "
        f"wall_time_s={wall:.3f}"
    )
    return 0


def _cmd_bench(args) -> int:
    out_dir = _out_dir(args.out)
    result = bench(_load_config_file(args.config), args.datasets)
    text = format_bench_table(result)
    table_doc = {"rows": result.rows, "skipped": result.skipped}
    _write(out_dir, {"table.json": json.dumps(table_doc, indent=2) + "\n",
                     "table.txt": text + "\n"})
    print(text)
    return _FAILURES[result.skipped[0]["failure"]][0] if result.skipped else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intelgp",
        description="Streaming one-step-ahead prediction with anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream one dataset")
    p_run.add_argument("--input", required=True, help="CSV file with a header row")
    kept_as_text = {"column": "value column name (default: value)",
                    "factors": "e.g. f=0.2,n=5; empty for SINTEL"}
    for key in CONFIG_KEYS:  # config_from_mapping checks every value
        p_run.add_argument("--" + key.replace("_", "-"), help=kept_as_text.get(key),
                           type=None if key in kept_as_text else _flag_value)
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
    except (ValueError, NumericalError) as exc:
        # bad input data, a numerical failure, or a bad flag, config file
        # or parameter value
        code, prefix = _FAILURES[failure_class(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
