"""Dataset ingestion, the streaming run loop, and the benchmark harness."""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .engine import EngineConfig, StepOutput, Verdict, initialize, step
from .gp import KernelKind, NumericalError
from .metrics import RunMetrics, compute_stats, evaluate
from .mixture import VariantFactors

log = logging.getLogger("intelgp")


class InputError(ValueError):
    """Unreadable, unparseable, or structurally invalid input data."""


def load_csv(path, column: str) -> np.ndarray:
    """Read one numeric column from a headered CSV; row order is time order.

    Raises InputError naming the offending row on blank lines, short rows,
    or non-numeric values, and naming the column if it is missing.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    values: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if column not in header:
            raise InputError(
                f"{path}: column {column!r} not found; header has {header}"
            )
        idx = header.index(column)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                raise InputError(f"{path}: blank line at row {row_no}")
            if idx >= len(row):
                raise InputError(
                    f"{path}: row {row_no} has {len(row)} fields, "
                    f"column {column!r} needs at least {idx + 1}"
                )
            cell = row[idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric value {cell!r} at row {row_no}"
                ) from None
            if not np.isfinite(value):
                raise InputError(
                    f"{path}: non-finite value {cell!r} at row {row_no}"
                )
            values.append(value)
    if not values:
        raise InputError(f"{path}: no data rows")
    return np.array(values)


def step_record(out: StepOutput) -> dict:
    """Serializable per-step record."""
    return {
        "t": out.t,
        "y": out.observation,
        "mean": out.fused.mean,
        "variance": out.fused.variance,
        "verdict": out.verdict.value,
        "weights": out.weights_after.tolist(),
        "mean_const": out.mean_const,
    }


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


@dataclass(frozen=True)
class RunResult:
    records: list[dict]
    metrics: RunMetrics
    summary: dict
    outputs: list[StepOutput]


def run(config: EngineConfig, series, normalization: str = "init") -> RunResult:
    """Normalize, initialize on the leading segment, stream the remainder.

    `normalization` selects the segment the scale statistics come from:
    "init" (the default; nothing after the initialization segment leaks
    into the transform) or "full" (the whole series, matching offline
    benchmark preprocessing).  A nearly constant init segment passes the
    scale check of `compute_stats` when its standard deviation exceeds
    1e-12 of its mean's magnitude.  The template fitted on it has a tiny
    noise scale, so a livelier stream after it is flagged throughout,
    under either normalization (see README, "CLI").
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if n <= config.init_count:
        raise InputError(
            f"series has {n} points but init_count={config.init_count} "
            "leaves nothing to stream"
        )
    if normalization not in ("init", "full"):
        raise ValueError(f"unknown normalization {normalization!r}")
    stats_segment = series[: config.init_count] if normalization == "init" else series
    stats = compute_stats(stats_segment)
    z = stats.normalize(series)

    t0 = time.perf_counter()
    state = initialize(np.arange(config.init_count), z[: config.init_count], config)
    fit_seconds = time.perf_counter() - t0

    outputs: list[StepOutput] = []
    t1 = time.perf_counter()
    for t in range(config.init_count, n):
        try:
            state, out = step(state, z[t])
        except NumericalError as exc:
            raise NumericalError(f"at stream position t={t}: {exc}") from exc
        outputs.append(out)
    stream_seconds = time.perf_counter() - t1

    metrics = evaluate(outputs, z[config.init_count:])
    verdicts = [o.verdict for o in outputs]
    summary = {
        "n_observations": int(n),
        "init_count": config.init_count,
        "n_evaluated": metrics.n_evaluated,
        "n_models": len(state.models),
        "outliers": sum(v is Verdict.OUTLIER for v in verdicts),
        "change_points": sum(v is Verdict.CHANGE_POINT for v in verdicts),
        "normalization": normalization,
        "norm_mean": stats.mean,
        "norm_std": stats.std,
        "fit": {
            "lml": state.fit.lml,
            "iterations": state.fit.iterations,
            "converged": state.fit.converged,
            "signal_scale": state.fit.hyper.signal_scale,
            "length_scale": state.fit.hyper.length_scale,
            "noise_scale": state.fit.hyper.noise_scale,
        },
        "wall_time_s": fit_seconds + stream_seconds,
    }
    return RunResult(
        records=[step_record(o) for o in outputs],
        metrics=metrics,
        summary=summary,
        outputs=outputs,
    )


def parse_factors(spec) -> VariantFactors:
    """Factors from a mapping like {"f": [1, 0.2], "l": 0.2, "n": [1, 5]}.

    A bare number is shorthand for [1, number]; the factor 1 is always
    included.  Keys other than f/l/n, and values that are not numbers
    (booleans and numeric strings included), are rejected.
    """
    unknown = set(spec) - {"f", "l", "n"}
    if unknown:
        raise ValueError(f"unknown factor keys {sorted(unknown)}; expected f, l, n")

    def as_list(v) -> tuple[float, ...]:
        vals = tuple(_number(x) for x in (v if isinstance(v, (list, tuple)) else [v]))
        if 1.0 not in vals:
            vals = (1.0,) + vals
        return vals

    return VariantFactors(
        signal=as_list(spec.get("f", (1.0,))),
        length=as_list(spec.get("l", (1.0,))),
        noise=as_list(spec.get("n", (1.0,))),
    )


@dataclass(frozen=True)
class BenchResult:
    rows: list[dict]
    skipped: list[dict]


def _integer(value) -> int:
    """A whole number from a config value; 2.7, "2" and true are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value) -> float:
    """A real number from a config value; "0.5" and true are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def _optional_integer(value) -> int | None:
    return None if value is None else _integer(value)


def _as_is(value):
    return value


def _parsed(key: str, parse, value):
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


# Config keys, each with the parser of its value.  The engine keys are
# EngineConfig fields ("kernel" sets kernel_kind); the data keys select the
# data and default to `_DATA_DEFAULTS`.  `intelgp run` takes each key from
# the flag of the same dest.
_ENGINE_KEYS = {
    "tau": _integer, "alpha": _number, "n_outliers": _integer, "mean_period": _integer,
    "init_count": _integer, "factors": parse_factors, "kernel": KernelKind, "seed": _integer,
}
CONFIG_KEYS = {
    **_ENGINE_KEYS, "column": _as_is, "normalization": _as_is,
    "row_start": _optional_integer, "row_end": _optional_integer,
}
_DATA_DEFAULTS = {"column": "value", "normalization": "init", "row_start": None, "row_end": None}


def config_from_mapping(doc: dict) -> tuple[EngineConfig, dict]:
    """The engine config and the data selection a config mapping names.

    Absent engine keys take EngineConfig's defaults, absent data keys those
    of `_DATA_DEFAULTS`; row_start and row_end are integers or null.  Raises
    ValueError naming any other key, and naming the key of a value its
    parser rejects.
    """
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    parsed = {key: _parsed(key, CONFIG_KEYS[key], value) for key, value in doc.items()}
    engine = {
        "kernel_kind" if key == "kernel" else key: value
        for key, value in parsed.items() if key in _ENGINE_KEYS
    }
    data = {key: parsed.get(key, default) for key, default in _DATA_DEFAULTS.items()}
    return EngineConfig(**engine), data


def slice_series(series: np.ndarray, entry: dict) -> np.ndarray:
    """Apply the optional row_start/row_end selection recorded in a config."""
    start = entry.get("row_start")
    end = entry.get("row_end")
    return series[slice(start, end)]


def bench(bench_config: dict, dataset_dir) -> BenchResult:
    """Run INTEL and SINTEL (the template model alone) over every
    configured dataset.

    A dataset's config is `defaults` overlaid with its entry, less the
    entry's `name` and `file` (see `config_from_mapping`).  Per-dataset
    failures (bad input or config, a missing key, a numerical failure) are
    reported in `skipped`; the remaining datasets still run.  Any other
    exception is a fault in the program and propagates.  Each row carries
    the dataset name, mode, and metrics.
    """
    dataset_dir = Path(dataset_dir)
    defaults = bench_config.get("defaults", {})
    entries = bench_config.get("datasets", [])
    rows: list[dict] = []
    skipped: list[dict] = []
    for entry in entries:
        name = entry.get("name") or entry.get("file", "<unnamed>")
        try:
            config, data = config_from_mapping(
                {**defaults, **{k: v for k, v in entry.items() if k not in ("name", "file")}}
            )
            series = slice_series(load_csv(dataset_dir / entry["file"], data["column"]), data)
            sintel = replace(config, factors=VariantFactors())
            for mode, cfg in (("intel", config), ("sintel", sintel)):
                result = run(cfg, series, normalization=data["normalization"])
                rows.append(
                    {
                        "dataset": name,
                        "mode": mode,
                        "nll": result.metrics.nll,
                        "mae": result.metrics.mae,
                        "mse": result.metrics.mse,
                        "n_evaluated": result.metrics.n_evaluated,
                        "outliers": result.summary["outliers"],
                        "change_points": result.summary["change_points"],
                    }
                )
        except (ValueError, KeyError, NumericalError) as exc:
            log.warning("bench: skipping %s: %s", name, exc)
            skipped.append({"dataset": name, "error": str(exc)})
    return BenchResult(rows=rows, skipped=skipped)


def format_bench_table(result: BenchResult) -> str:
    """Aligned text table of the benchmark rows plus a skip summary."""
    headers = ["dataset", "mode", "nll", "mae", "mse", "outliers", "change_points"]
    lines = []
    table = [
        [
            str(r["dataset"]),
            r["mode"],
            f"{r['nll']:.4f}",
            f"{r['mae']:.4f}",
            f"{r['mse']:.4f}",
            str(r["outliers"]),
            str(r["change_points"]),
        ]
        for r in result.rows
    ]
    widths = [
        max(len(h), *(len(row[i]) for row in table)) if table else len(h)
        for i, h in enumerate(headers)
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if result.skipped:
        lines.append("")
        for s in result.skipped:
            lines.append(f"skipped {s['dataset']}: {s['error']}")
    lines.append("")
    lines.append(f"{len(result.rows)} rows, {len(result.skipped)} skipped")
    return "\n".join(lines)
