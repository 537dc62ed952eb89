"""The streaming engine: per-step prediction, 3-sigma classification,
outlier bucketing, change-point declaration with instant regime capture,
adaptive training-window formation, and periodic mean refresh.

`step` is a pure state transition: it returns a new EngineState and never
mutates its input, so identical (state, observation) pairs produce
identical outputs.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .fit import FitResult, fit_template
from .gp import Hyperparameters, KernelKind, PredictiveDistribution, gp_predict, kernel_table
from .mixture import (
    VariantFactors,
    build_model_set,
    eq_by_value,
    fuse_poe,
    predictive_weights,
    step_likelihoods,
    update_weights,
)

log = logging.getLogger("intelgp")


class Verdict(Enum):
    INLIER = "inlier"
    OUTLIER = "outlier"
    CHANGE_POINT = "change_point"


@dataclass(frozen=True)
class EngineConfig:
    """Streaming parameters; the defaults are the reference operating point.

    SINTEL, the template model alone, is `factors=VariantFactors()`."""

    tau: int = 20
    alpha: float = 0.9
    n_outliers: int = 3
    mean_period: int = 10
    init_count: int = 200
    factors: VariantFactors = VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0))
    kernel_kind: KernelKind = KernelKind.MATERN52
    seed: int = 0

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if self.n_outliers < 1:
            raise ValueError("n_outliers must be >= 1")
        if self.mean_period < 1:
            raise ValueError("mean_period must be >= 1")


@dataclass(frozen=True)
class TrainingWindow:
    """Observations in time order, times strictly increasing.  A state has
    two: the adaptive training set (the retained observations of the last
    `tau` time steps, so within `tau` of the next time) and the bucket of
    consecutively declared outliers, which turns into a change point once
    it holds `n_outliers`."""

    times: tuple[int, ...] = ()
    values: tuple[float, ...] = ()

    def appended(self, t: int, y: float) -> "TrainingWindow":
        return TrainingWindow(self.times + (t,), self.values + (y,))

    def trimmed(self, horizon: int) -> "TrainingWindow":
        """Drop entries with time index below `horizon`."""
        keep = bisect.bisect_left(self.times, horizon)
        if keep == 0:
            return self
        return TrainingWindow(self.times[keep:], self.values[keep:])

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class EngineState:
    """Where a stream stands after its last observation.

    `models` are the template (model 0) and its variants, `weights` their
    weights, `shared_mean` the constant prior mean of all of them.

    `table` and `cache` belong to `models` and are built for them alone.
    `table` is their `gp.kernel_table`, the noisy kernel at the integer
    distances 0..tau, from which a prediction gathers its covariances;
    every window lies within `tau` of the next time.  `cache` is the
    predictor cache (see `gp.gp_predict`).  Each `initialize` starts an
    empty one and `step` passes both on, so a stream and its forks share
    them.  Both are left out of equality, which compares the weights by
    value, and out of the repr.
    """

    window: TrainingWindow
    bucket: TrainingWindow
    models: tuple[Hyperparameters, ...]
    table: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray
    shared_mean: float
    config: EngineConfig
    inliers_since_refresh: int
    current_t: int
    fit: Optional[FitResult] = None
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    __eq__ = eq_by_value


@dataclass(frozen=True)
class StepOutput:
    t: int
    observation: float
    fused: PredictiveDistribution
    verdict: Verdict
    weights_after: np.ndarray
    mean_const: float
    means: np.ndarray  # per model, in model order
    variances: np.ndarray
    regime_start: Optional[int] = None

    __eq__ = eq_by_value


def classify(pred: PredictiveDistribution, y: float) -> bool:
    """Whether y is an inlier: it lies strictly inside the open 3-sigma
    interval.  Otherwise it is an outlier candidate."""
    half_width = 3.0 * pred.std
    return bool(pred.mean - half_width < y < pred.mean + half_width)


def _predict(state: EngineState):
    """The models' means and variances, the predictive weights, and the
    fused prediction for time current_t + 1."""
    means, variances = gp_predict(
        state.window.times, state.window.values, state.shared_mean, state.table,
        state.current_t + 1, state.cache,
    )
    w_hat = predictive_weights(state.weights, state.config.alpha)
    fused = fuse_poe(means, variances, w_hat)
    return means, variances, w_hat, fused


def predict_next(state: EngineState) -> PredictiveDistribution:
    """Fused one-step-ahead prediction for time current_t + 1.

    Pure: evaluates every model over the current window with the shared
    mean in one batched prediction, flattens the weights by the forgetting
    parameter, and fuses.  The only writes go to the state's predictor
    cache, whose entries depend on their keys alone.  The per-model means
    and variances are in the `StepOutput` of `step`.
    """
    return _predict(state)[3]


def step(state: EngineState, y_next: float) -> tuple[EngineState, StepOutput]:
    """Advance the engine by one observation.

    Order of operations: predict, classify, update the training window or
    the bucket (declaring an outlier or change point), update the model
    weights with the pre-update predictive weights, trim the window.
    """
    if not math.isfinite(y_next):
        raise ValueError(f"observation must be finite, got {y_next}")
    y_next = float(y_next)
    t_next = state.current_t + 1

    means, variances, w_hat, fused = _predict(state)
    inlier = classify(fused, y_next)

    config = state.config
    window = state.window
    bucket = state.bucket
    mean = state.shared_mean
    inliers = state.inliers_since_refresh
    regime_start: Optional[int] = None

    if inlier:
        verdict = Verdict.INLIER
        window = window.appended(t_next, y_next)
        bucket = TrainingWindow()
        inliers += 1
        if inliers >= config.mean_period:
            mean = float(np.mean(window.values[-config.mean_period:]))
            inliers = 0
    else:
        bucket = bucket.appended(t_next, y_next)
        if len(bucket) >= config.n_outliers:
            verdict = Verdict.CHANGE_POINT
            regime_start = bucket.times[0]
            window = bucket
            mean = float(np.mean(bucket.values))
            bucket = TrainingWindow()
            inliers = 0
            log.info("change point declared at t=%d (regime start t=%d)", t_next, regime_start)
        else:
            verdict = Verdict.OUTLIER
            log.info("outlier declared at t=%d", t_next)

    if inlier:
        likelihoods = step_likelihoods(means, variances, y_next)
    else:
        # Far out, (y - mean)^2 may overflow: flat evidence, not a fault.
        with np.errstate(over="ignore"):
            likelihoods = step_likelihoods(means, variances, y_next)
    weights = update_weights(w_hat, likelihoods)

    window = window.trimmed(t_next + 1 - config.tau)

    new_state = EngineState(
        window=window,
        bucket=bucket,
        models=state.models,
        table=state.table,
        weights=weights,
        shared_mean=mean,
        config=config,
        inliers_since_refresh=inliers,
        current_t=t_next,
        fit=state.fit,
        cache=state.cache,
    )
    output = StepOutput(
        t=t_next,
        observation=y_next,
        fused=fused,
        verdict=verdict,
        weights_after=weights,
        mean_const=mean,
        means=means,
        variances=variances,
        regime_start=regime_start,
    )
    return new_state, output


def initialize(history_t, history_y, config: EngineConfig) -> EngineState:
    """Build the starting state from the historical segment.

    Fits the template on the history, builds the variant set, and seeds
    the window with the history points of the last `tau` time steps, the
    rule `step` applies after every observation.  The history times must
    be strictly increasing integers; gaps are allowed.
    """
    ts = np.asarray(history_t, dtype=float)
    ys = np.asarray(history_y, dtype=float)
    if ts.size != ys.size:
        raise ValueError("history_t and history_y must have the same length")
    if ts.size < 8:
        raise ValueError(f"initialization requires at least 8 points, got {ts.size}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("history observations must be finite")
    if not (np.all(np.isfinite(ts) & (ts == np.round(ts))) and np.all(np.diff(ts) > 0)):
        raise ValueError("history times must be strictly increasing integers")

    mean = float(np.mean(ys))
    fit = fit_template(ts, ys, mean, kind=config.kernel_kind, seed=config.seed)
    models = build_model_set(fit.hyper, config.factors)

    current_t = int(history_t[-1])
    window = TrainingWindow(
        times=tuple(int(t) for t in history_t[-config.tau:]),
        values=tuple(float(y) for y in ys[-config.tau:]),
    ).trimmed(current_t + 1 - config.tau)
    return EngineState(
        window=window,
        bucket=TrainingWindow(),
        models=models,
        table=kernel_table(models, config.tau),
        weights=np.full(len(models), 1.0 / len(models)),
        shared_mean=mean,
        config=config,
        inliers_since_refresh=0,
        current_t=current_t,
        fit=fit,
    )
