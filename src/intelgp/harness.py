"""Dataset ingestion, the streaming run loop, and the benchmark harness."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .engine import EngineConfig, StepOutput, Verdict, check_integer, initialize, step
from .gp import KernelKind, NumericalError
from .metrics import DegenerateDataError, RunMetrics, compute_stats, evaluate
from .mixture import VariantFactors

log = logging.getLogger("intelgp")


class InputError(ValueError):
    """Unreadable, unparseable, or structurally invalid input data."""


def load_csv(path, column: str) -> np.ndarray:
    """Read one numeric column from a headered CSV; row order is time order.

    The file is UTF-8, with or without a byte-order mark, whatever the
    locale.  Raises InputError naming the offending row on blank lines,
    short rows, or non-numeric values, naming the column if it is missing,
    and for a file that cannot be read or decoded.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: cannot be read as CSV text: {exc}") from None
    if not rows:
        raise InputError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    if column not in header:
        raise InputError(f"{path}: column {column!r} not found; header has {header}")
    idx = header.index(column)
    values: list[float] = []
    for row_no, row in enumerate(rows[1:], start=2):
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
            raise InputError(f"{path}: non-numeric value {cell!r} at row {row_no}") from None
        if not np.isfinite(value):
            raise InputError(f"{path}: non-finite value {cell!r} at row {row_no}")
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
    """The `steps.jsonl` text of `step_record` dicts: per record, the line
    `json.dumps` writes for it and a newline.

    Each line is one f-string: the keys in `step_record`'s order, each float
    written by `float.__repr__`, as `json.dumps` writes a finite float, and
    the weights, Python floats, by the list's repr, whose ", " separators
    are those of `json.dumps`.  For a non-finite float `repr` writes nan or
    inf where `json.dumps` writes NaN or Infinity; no key or verdict holds
    either string, so a line that does is written by `json.dumps` instead.
    """
    fr = float.__repr__
    lines = []
    for r in records:
        line = (
            f'{{"t": {r["t"]}, "y": {fr(r["y"])}, "mean": {fr(r["mean"])}, '
            f'"variance": {fr(r["variance"])}, "verdict": "{r["verdict"]}", '
            f'"weights": {r["weights"]!r}, "mean_const": {fr(r["mean_const"])}}}\n'
        )
        if "nan" in line or "inf" in line:
            line = json.dumps(r) + "\n"
        lines.append(line)
    return "".join(lines)


@dataclass(frozen=True)
class RunResult:
    records: list[dict]
    metrics: RunMetrics
    summary: dict


def run_files(result: RunResult) -> dict[str, str]:
    """The texts `intelgp run --out` writes, by file name."""
    doc = {"metrics": asdict(result.metrics), "summary": result.summary}
    return {
        "steps.jsonl": records_to_jsonl(result.records),
        "metrics.json": json.dumps(doc, indent=2) + "\n",
    }


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
        raise ValueError(f"'normalization' must be 'init' or 'full', got {normalization!r}")
    stats_segment = series[: config.init_count] if normalization == "init" else series
    stats = compute_stats(stats_segment)
    z = stats.normalize(series)

    state = initialize(np.arange(config.init_count), z[: config.init_count], config)

    outputs: list[StepOutput] = []
    for t in range(config.init_count, n):
        try:
            state, out = step(state, z[t])
        except NumericalError as exc:
            raise NumericalError(f"at stream position t={t}: {exc}") from exc
        outputs.append(out)

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
    }
    return RunResult([step_record(o) for o in outputs], metrics, summary)


def parse_factors(spec) -> VariantFactors:
    """Factors from a mapping like {"f": [1, 0.2], "l": 0.2, "n": [1, 5]}.

    A bare number is shorthand for a list of that number alone.  Keys
    other than f/l/n are rejected; `VariantFactors` checks the values and
    includes the factor 1.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"expected a mapping with keys f, l, n, got {spec!r}")
    unknown = set(spec) - {"f", "l", "n"}
    if unknown:
        raise ValueError(f"unknown factor keys {sorted(unknown)}; expected f, l, n")

    def as_list(v):
        return v if isinstance(v, (list, tuple)) else [v]

    return VariantFactors(
        signal=as_list(spec.get("f", ())),
        length=as_list(spec.get("l", ())),
        noise=as_list(spec.get("n", ())),
    )


@dataclass(frozen=True)
class BenchResult:
    rows: list[dict]
    skipped: list[dict]


def _built(key: str, build, value):
    """`build(value)`, any rejection named by `key`."""
    try:
        return build(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key!r}: {exc}") from None


# The config keys.  The engine keys are EngineConfig's fields, in their
# order ("kernel" sets kernel_kind), their values passed to it unconverted
# but for the two that name an object, "factors" and "kernel", which are
# built first; EngineConfig and VariantFactors check every engine value.
# The data keys select the data, are checked here (normalization by `run`)
# and default to `_DATA_DEFAULTS`.  `intelgp run` takes each key from the
# flag of the same dest.
_ENGINE_KEYS = tuple("kernel" if f.name == "kernel_kind" else f.name for f in fields(EngineConfig))
_DATA_DEFAULTS = {"column": "value", "normalization": "init", "row_start": None, "row_end": None}
CONFIG_KEYS = _ENGINE_KEYS + tuple(_DATA_DEFAULTS)


def config_from_mapping(doc: dict) -> tuple[EngineConfig, dict]:
    """The engine config and the data selection a config mapping names.

    Absent engine keys take EngineConfig's defaults, absent data keys those
    of `_DATA_DEFAULTS`; row_start and row_end are integers or null.  Raises
    ValueError naming any other key, and naming the key of a rejected
    value.
    """
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    engine = {key: doc[key] for key in _ENGINE_KEYS if key in doc}
    if "factors" in engine:
        engine["factors"] = _built("factors", parse_factors, engine["factors"])
    if "kernel" in engine:
        engine["kernel_kind"] = _built("kernel", KernelKind, engine.pop("kernel"))
    data = {key: doc.get(key, default) for key, default in _DATA_DEFAULTS.items()}
    if not isinstance(data["column"], str):
        raise ValueError(f"'column' must be a string, got {data['column']!r}")
    for key in ("row_start", "row_end"):
        if data[key] is not None:
            check_integer(key, data[key])
    return EngineConfig(**engine), data


def slice_series(series: np.ndarray, entry: dict) -> np.ndarray:
    """Apply the optional row_start/row_end selection recorded in a config."""
    start = entry.get("row_start")
    end = entry.get("row_end")
    return series[slice(start, end)]


def failure_class(exc: Exception) -> str:
    """The class of a run's failure, which picks the CLI's exit code:
    "input" for an `InputError` or `DegenerateDataError`, "numerical" for
    a `NumericalError`, "config" for any other (a rejected key or value)."""
    if isinstance(exc, (InputError, DegenerateDataError)):
        return "input"
    if isinstance(exc, NumericalError):
        return "numerical"
    return "config"


def bench(bench_config: dict, dataset_dir) -> BenchResult:
    """Run INTEL and SINTEL (the template model alone) over every
    configured dataset.

    `bench_config` holds a `datasets` list of entry objects and may hold a
    `defaults` object; any other key or layout is a ValueError before any
    dataset runs.  A dataset's config is `defaults` overlaid with its
    entry, less the entry's `name` and `file` (see `config_from_mapping`).
    Per-dataset failures (bad input or config, no `file` string, a
    numerical failure) are reported in `skipped`, each with its message and
    its `failure_class`; the remaining datasets still run.  Any other
    exception is a fault in the program and propagates.  Each row carries
    the dataset name, mode, and metrics.
    """
    unknown = set(bench_config) - {"defaults", "datasets"}
    if unknown:
        raise ValueError(f"unknown bench keys {sorted(unknown)}; expected defaults, datasets")
    defaults = bench_config.get("defaults", {})
    entries = bench_config.get("datasets")
    if not isinstance(entries, list):
        raise ValueError(f"bench config must have a 'datasets' list, got {entries!r}")
    if not all(isinstance(doc, dict) for doc in (defaults, *entries)):
        raise ValueError("bench config 'defaults' and each 'datasets' entry must be objects")
    dataset_dir = Path(dataset_dir)
    rows: list[dict] = []
    skipped: list[dict] = []
    for entry in entries:
        name = entry.get("name") or entry.get("file", "<unnamed>")
        try:
            file = entry.get("file")
            if not isinstance(file, str):
                raise ValueError(f"a dataset entry needs a 'file' string, got {file!r}")
            config, data = config_from_mapping(
                {**defaults, **{k: v for k, v in entry.items() if k not in ("name", "file")}}
            )
            series = slice_series(load_csv(dataset_dir / file, data["column"]), data)
            sintel = replace(config, factors=VariantFactors())
            for mode, cfg in (("intel", config), ("sintel", sintel)):
                result = run(cfg, series, normalization=data["normalization"])
                rows.append(
                    {
                        "dataset": name,
                        "mode": mode,
                        **asdict(result.metrics),
                        "outliers": result.summary["outliers"],
                        "change_points": result.summary["change_points"],
                    }
                )
        except (ValueError, NumericalError) as exc:
            log.warning("bench: skipping %s: %s", name, exc)
            skipped.append({"dataset": name, "error": str(exc), "failure": failure_class(exc)})
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
