"""Timed and traced passes over one workload, the correctness gate, and the
metrics of a run.

A pass is what `intelgp run` does short of writing files: normalise,
`initialize` (the fit), `step` once per observation, `evaluate`, and
`step_record` plus `records_to_jsonl` over all records.  The stream is a
closed loop on one thread: step t+1 needs the state from step t, so one
observation is in flight at a time.
"""

from __future__ import annotations

import json
import resource
import statistics
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import spans
import speed
from intelgp import harness
from intelgp.engine import initialize, step
from intelgp.harness import records_to_jsonl, step_record
from intelgp.metrics import compute_stats, evaluate

REFERENCE = Path(__file__).with_name("reference.json")
# The seeds reference.json must hold for every workload.
REFERENCE_SEEDS = range(0, 64)
# nll, mae and mse may drift this much, relative, from the stored values;
# verdict counts must match exactly.
QUALITY_RTOL = 1e-6
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # one traced, one untraced for the overhead ratio


class ReferenceTableError(RuntimeError):
    """reference.json does not hold every workload and seed it must hold."""


@dataclass
class Pass:
    """One pass's figures.  Times are scaled to the reference machine speed
    (speed.py), except `raw_stream_ns`, the unscaled time spent in `step`.
    `slowdown` is this pass's median stream probe time over the
    reference's."""

    setup_s: float
    run_s: float
    step_ns: np.ndarray
    raw_stream_ns: int
    slowdown: float
    jsonl_bytes: int
    fit_iterations: int
    layers: dict = field(default_factory=dict)

    @property
    def steps_per_s(self) -> float:
        return self.step_ns.size / (self.step_ns.sum() / 1e9)

    @property
    def raw_steps_per_s(self) -> float:
        return self.step_ns.size / (self.raw_stream_ns / 1e9)


def one_pass(workload, series: np.ndarray, tracer: spans.Tracer | None = None):
    """Run the workload once; with a tracer, record spans and window keys.

    Returns the pass's figures, its records and its metrics.  Only the
    figures are kept across passes, so peak RSS does not grow with the
    number of passes a run fits in.
    """
    config = workload.config
    init = config.init_count
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    outputs = []
    step_ns = []
    windows = []

    before_setup = speed.phase_probe(speed.fit_probe)
    t0 = perf_counter_ns()
    with span("metrics.compute_stats"):
        stats = compute_stats(series if workload.normalization == "full" else series[:init])
    z = stats.normalize(series)
    with span("engine.initialize"):
        state = initialize(np.arange(init), z[:init], config)
    t1 = perf_counter_ns()
    after_setup = speed.phase_probe(speed.fit_probe)

    probes = speed.StreamProbes(speed.phase_probe())
    if tracer is None:
        for k, y in enumerate(z[init:]):
            start = perf_counter_ns()
            state, out = step(state, y)
            step_ns.append(perf_counter_ns() - start)
            outputs.append(out)
            probes.maybe_probe(k + 1)
    else:
        for k, y in enumerate(z[init:]):
            windows.append((state.current_t + 1, state.window.times))
            tracer.step_id = k
            i = tracer.open("engine.step")
            state, out = step(state, y)
            tracer.close(i)
            step_ns.append(tracer.end[i] - tracer.start[i])
            outputs.append(out)
            probes.maybe_probe(k + 1)
        tracer.step_id = spans.FINISH
    after_stream = speed.phase_probe()
    probes.close(len(outputs), after_stream)

    t2 = perf_counter_ns()
    with span("metrics.evaluate"):
        metrics = evaluate(outputs, z[init:])
    if tracer is None:
        records = [step_record(o) for o in outputs]
    else:
        records = []
        for o in outputs:
            i = tracer.open("harness.step_record")
            records.append(step_record(o))
            tracer.close(i)
    with span("harness.records_to_jsonl"):
        text = records_to_jsonl(records)
    t3 = perf_counter_ns()
    after_finish = speed.phase_probe()

    setup_scale = speed.REFERENCE_FIT_PROBE_NS / ((before_setup + after_setup) / 2)
    finish_scale = speed.REFERENCE_PROBE_NS / ((after_stream + after_finish) / 2)
    scaled_steps = np.array(step_ns) * probes.step_scale(len(step_ns))
    setup_s = (t1 - t0) / 1e9 * setup_scale
    result = Pass(
        setup_s=setup_s,
        run_s=setup_s + scaled_steps.sum() / 1e9 + (t3 - t2) / 1e9 * finish_scale,
        step_ns=scaled_steps,
        raw_stream_ns=sum(step_ns),
        slowdown=probes.median_ns() / speed.REFERENCE_PROBE_NS,
        jsonl_bytes=len(text.encode()),
        fit_iterations=state.fit.iterations,
    )
    if tracer is not None:
        result.layers = spans.layer_metrics(
            tracer, len(outputs), setup_scale, 1 / result.slowdown, finish_scale
        )
        repeat_share, len_mean = spans.window_keys(windows)
        result.layers["gp.window_key_repeat_share"] = repeat_share
        result.layers["gp.window_len_mean"] = len_mean
    return result, records, metrics


def output_mismatch(records: list[dict], metrics, reference) -> str | None:
    """Where a pass's output differs from `intelgp.run`'s, or None."""
    if len(records) != len(reference.records):
        return f"{len(records)} records, intelgp.run gave {len(reference.records)}"
    for got, want in zip(records, reference.records):
        if got != want:
            return f"record at t={want['t']} differs from intelgp.run: {got} != {want}"
    if metrics != reference.metrics:
        return f"metrics {metrics} differ from intelgp.run's {reference.metrics}"
    return None


def reference_key(seed: int, stream: int) -> str:
    """The row of reference.json that holds a seed's stream."""
    return str(seed) if stream == 0 else f"{seed}.{stream}"


def load_reference(workloads: dict) -> dict:
    """The stored values per workload and seed.  Refuses a table that lacks
    any of the workloads, or any stream of REFERENCE_SEEDS, so that a
    narrower table cannot quietly drop the check for the rows it leaves
    out."""
    table = json.loads(REFERENCE.read_text())["workloads"]
    for name, workload in workloads.items():
        missing = [
            key
            for seed in REFERENCE_SEEDS
            for key in (reference_key(seed, j) for j in range(workload.quality_streams))
            if key not in table.get(name, {})
        ]
        if missing:
            raise ReferenceTableError(
                f"{REFERENCE.name} lacks {len(missing)} rows of seeds {REFERENCE_SEEDS.start}-"
                f"{REFERENCE_SEEDS.stop - 1} for {name}; rewrite it with make_reference.py"
            )
    return table


def reference_mismatch(reference, stored: dict | None) -> list[str] | None:
    """Differences from the stored verdict counts and quality for this seed,
    or None when no values are stored for it."""
    if stored is None:
        return None
    counts = Counter(r["verdict"] for r in reference.records)
    problems = [
        f"{v} count {counts[v]} != stored {stored[v]}"
        for v in ("inlier", "outlier", "change_point")
        if counts[v] != stored[v]
    ]
    for k in ("nll", "mae", "mse"):
        got = getattr(reference.metrics, k)
        if abs(got - stored[k]) > QUALITY_RTOL * abs(stored[k]):
            problems.append(f"{k} {got!r} != stored {stored[k]!r} (rtol {QUALITY_RTOL:g})")
    return problems


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]


def measure(workload, seconds: float, trace: bool, streams: list[np.ndarray],
            stored: list[dict | None]) -> Outcome:
    """Repeat passes over `streams[0]` until `seconds` have gone by, then
    report medians.

    `intelgp.run` runs once, untimed, on each of `streams`.  Every pass is
    compared with its run on `streams[0]`; a pass that raises or differs
    counts as failed.  Each run is also compared with its entry in
    `stored`, the values reference.json holds for this workload, seed and
    stream, when there are any.  Forecast quality is the mean over the
    runs.  If a run raises, it counts as failed and no pass is made.
    """
    notes: list[str] = []
    quality = []  # each run's RunMetrics; only the first run's records are kept
    attempted, failed = 0, 0
    for j, (stream, want) in enumerate(zip(streams, stored)):
        attempted += 1
        try:
            run = harness.run(workload.config, stream, normalization=workload.normalization)
        except Exception:
            notes.append(f"intelgp.run raised on {workload.name} stream {j}:\n"
                         + traceback.format_exc())
            return Outcome(correct=False, attempted=attempted, failed=failed + 1, metrics={},
                           notes=notes)
        problems = reference_mismatch(run, want)
        if problems is None:
            notes.append(f"stream {j}: no stored reference for this seed and length; "
                         "gate is intelgp.run equality")
        elif problems:
            failed += 1
            notes.extend(f"reference stream {j}: {p}" for p in problems)
        quality.append(run.metrics)
        if j == 0:
            reference = run
        del run
    series = streams[0]

    plain: list[Pass] = []
    traced: list[Pass] = []
    tries = 0
    deadline = perf_counter() + seconds
    while tries < (MIN_TRACED_PASSES if trace else MIN_PASSES) or perf_counter() < deadline:
        with_trace = trace and tries % 2 == 0
        tries += 1
        attempted += 1
        try:
            if with_trace:
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    p, records, metrics = one_pass(workload, series, tracer)
                spans.check_all_fired(tracer, workload.name)
            else:
                p, records, metrics = one_pass(workload, series)
        except spans.BoundaryError:
            raise
        except Exception:
            failed += 1
            notes.append("pass raised:\n" + traceback.format_exc())
            continue
        mismatch = output_mismatch(records, metrics, reference)
        del records, metrics
        if mismatch:
            failed += 1
            notes.append(f"pass {tries}: {mismatch}")
            continue
        (traced if with_trace else plain).append(p)

    metrics: dict[str, float] = {}
    if plain and (traced or not trace):
        metrics = (layer_figures(traced, plain, reference) if trace
                   else end_to_end_figures(plain, quality))
    return Outcome(
        correct=failed == 0 and bool(metrics),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        notes=notes,
    )


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_figures(passes: list[Pass], quality) -> dict[str, float]:
    # step is pure, so step k does the same work in every pass.  Its latency
    # is the median over the passes, which drops a burst that hit one pass;
    # the percentiles are then taken over the steps.
    latencies_us = np.median([p.step_ns for p in passes], axis=0) / 1e3
    return {
        "setup_s": _median(p.setup_s for p in passes),
        "steps_per_s": _median(p.steps_per_s for p in passes),
        "step_p50_us": float(np.percentile(latencies_us, 50)),
        "step_p99_us": float(np.percentile(latencies_us, 99)),
        "step_samples": latencies_us.size * len(passes),
        "run_s": _median(p.run_s for p in passes),
        "raw_steps_per_s": _median(p.raw_steps_per_s for p in passes),
        "slowdown": _median(p.slowdown for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # The streams are of one length, so these are the means over all
        # their observations.
        "nll": float(np.mean([q.nll for q in quality])),
        "mae": float(np.mean([q.mae for q in quality])),
        "mse": float(np.mean([q.mse for q in quality])),
    }


def layer_figures(traced: list[Pass], plain: list[Pass], reference) -> dict[str, float]:
    figures = {k: _median(p.layers[k] for p in traced) for k in traced[0].layers}
    verdicts = Counter(r["verdict"] for r in reference.records)
    figures.update({
        "fit.iterations": traced[0].fit_iterations,
        "engine.outliers": verdicts["outlier"],
        "engine.change_points": verdicts["change_point"],
        "harness.jsonl_bytes": traced[0].jsonl_bytes,
        "trace.overhead_ratio": _median(p.steps_per_s for p in traced)
        / _median(p.steps_per_s for p in plain),
        "bench.raw_steps_per_s": _median(p.raw_steps_per_s for p in plain),
        "bench.slowdown": _median(p.slowdown for p in plain),
    })
    return figures

