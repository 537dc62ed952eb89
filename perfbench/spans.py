"""Outside-in spans at the layer boundaries of `intelgp`, and the per-layer
metrics computed from them.

Spans are recorded only from the benchmark's side: for a traced pass the
module-level names through which the layers call each other are replaced
by wrappers that open and close a span, and the originals are put back
afterwards.  Nothing inside `src/` knows it is being traced.

A span has a name, a start and an end (`perf_counter_ns`), the index of
the span open when it started (its parent, -1 for none) and the step it
belongs to: the stream position for `step`, or one of the phase ids below
for set-up and for the work after the stream.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

SETUP = -1  # compute_stats, normalisation, initialize (the fit)
FINISH = -2  # evaluate, step_record, records_to_jsonl

# (module of intelgp, name looked up there, layer of the callee).  The
# span's name is "<module>.<name>".
BOUNDARIES = (
    ("engine", "gp_predict", "gp"),
    ("engine", "fuse_poe", "mixture"),
    ("engine", "step_likelihoods", "mixture"),
    ("engine", "update_weights", "mixture"),
    ("engine", "predictive_weights", "mixture"),
    ("engine", "classify", "engine"),
    ("engine", "fit_template", "fit"),
    ("fit", "log_marginal_likelihood", "gp"),
    ("fit", "lml_gradient", "gp"),
    ("gp", "noisy_covariance", "gp"),
    ("gp", "chol_with_jitter", "gp"),
    ("gp", "cholesky", "gp"),
    ("gp", "cho_solve", "gp"),
    ("gp", "solve_triangular", "gp"),
)

# Spans the benchmark opens around its own calls into the program.
OWN_SPANS = {
    "engine.initialize": "engine",
    "engine.step": "engine",
    "metrics.compute_stats": "metrics",
    "metrics.evaluate": "metrics",
    "harness.step_record": "harness",
    "harness.records_to_jsonl": "harness",
}

LAYER = {f"{m}.{a}": layer for m, a, layer in BOUNDARIES} | OWN_SPANS


class BoundaryError(RuntimeError):
    """A wrapped name is gone, or a wrapper that must fire saw no calls.

    Either means the program's layer boundaries moved and the benchmark
    has to be updated with them; a silent zero in a layer metric would
    hide that.
    """


class Tracer:
    """Spans kept in memory as parallel lists, one entry per span."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.step_id = SETUP
        self._open: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.step.append(self.step_id)
        self.end.append(0)
        self._open.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str) -> int:
        return self.name.count(name)


def _wrap(fn, tracer: Tracer, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every boundary in BOUNDARIES through `tracer` for the duration."""
    modules = {m: importlib.import_module(f"intelgp.{m}") for m, _, _ in BOUNDARIES}
    missing = [
        f"intelgp.{m}.{a}" for m, a, _ in BOUNDARIES if not callable(getattr(modules[m], a, None))
    ]
    if missing:
        raise BoundaryError(f"wrapped names missing from the program: {', '.join(missing)}")
    originals = []
    try:
        for m, a, _ in BOUNDARIES:
            fn = getattr(modules[m], a)
            originals.append((modules[m], a, fn))
            setattr(modules[m], a, _wrap(fn, tracer, f"{m}.{a}"))
        yield
    finally:
        for module, a, fn in reversed(originals):
            setattr(module, a, fn)


def check_all_fired(tracer: Tracer, workload: str) -> None:
    silent = [f"{m}.{a}" for m, a, _ in BOUNDARIES if tracer.count(f"{m}.{a}") == 0]
    if silent:
        raise BoundaryError(f"wrappers saw no calls on {workload}: {', '.join(silent)}")


def window_keys(windows) -> tuple[float, float]:
    """Share of steps whose window offsets t* - t_i repeat an earlier step's,
    and the mean window length.  `windows` holds, per step, the pair
    (t*, window times) the step predicted from."""
    seen = set()
    repeats = 0
    total_len = 0
    for t_star, times in windows:
        key = tuple(t_star - t for t in times)
        repeats += key in seen
        seen.add(key)
        total_len += len(times)
    n = max(len(windows), 1)
    return repeats / n, total_len / n


def layer_metrics(tracer: Tracer, n_steps: int, setup_scale: float, stream_scale: float,
                  finish_scale: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans alone.  Span
    times are multiplied by the calibration scale of their phase."""
    names = np.array(tracer.name)
    parent = np.array(tracer.parent)
    step = np.array(tracer.step)
    scale = np.select([step == SETUP, step == FINISH], [setup_scale, finish_scale], stream_scale)
    dur = (np.array(tracer.end) - np.array(tracer.start)) / 1e3 * scale  # microseconds
    size = names.size
    has_parent = parent >= 0
    self_us = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=size)
    stream = step >= 0
    setup = step == SETUP
    layer = np.array([LAYER[n] for n in tracer.name])

    def where(name, phase=stream):
        return (names == name) & phase

    def child_sum(parents, *child_names):
        """Per span in `parents`: the time of its direct children named so."""
        mask = np.isin(names, child_names) & has_parent
        return np.bincount(parent[mask], weights=dur[mask], minlength=size)[parents]

    def per_step(*span_names):
        mask = np.isin(names, span_names) & stream
        return np.bincount(step[mask], weights=dur[mask], minlength=n_steps)

    steps = where("engine.step")
    step_time = dur[steps].sum()
    predicts = np.flatnonzero(where("engine.gp_predict"))
    chols = np.count_nonzero(where("gp.chol_with_jitter"))
    p50 = np.median

    return {
        "gp.predict_calls_per_step": predicts.size / n_steps,
        "gp.factorizations_per_step": chols / n_steps,
        "gp.predict_us_p50": p50(dur[predicts]),
        "gp.kernel_us_p50": p50(child_sum(predicts, "gp.noisy_covariance")),
        "gp.chol_us_p50": p50(child_sum(predicts, "gp.chol_with_jitter")),
        "gp.solve_us_p50": p50(child_sum(predicts, "gp.cho_solve", "gp.solve_triangular")),
        "gp.self_share": self_us[stream & (layer == "gp")].sum() / step_time,
        "gp.cholesky_attempts_per_factorization": np.count_nonzero(where("gp.cholesky")) / chols,
        "fit.fit_template_s": dur[where("engine.fit_template", setup)].sum() / 1e6,
        "fit.objective_evals": np.count_nonzero(where("fit.log_marginal_likelihood", setup)),
        "fit.gradient_evals": np.count_nonzero(where("fit.lml_gradient", setup)),
        "fit.factorizations": np.count_nonzero(where("gp.chol_with_jitter", setup)),
        "mixture.fuse_us_p50": p50(dur[where("engine.fuse_poe")]),
        "mixture.weights_us_p50": p50(
            per_step("engine.predictive_weights", "engine.step_likelihoods", "engine.update_weights")
        ),
        "mixture.self_share": self_us[stream & (layer == "mixture")].sum() / step_time,
        "engine.step_self_us_p50": p50(self_us[steps]),
        "harness.record_us_p50": p50(dur[names == "harness.step_record"]),
        "harness.jsonl_s": dur[names == "harness.records_to_jsonl"].sum() / 1e6,
        "metrics.evaluate_s": dur[names == "metrics.evaluate"].sum() / 1e6,
    }
