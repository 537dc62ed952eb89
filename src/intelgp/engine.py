"""The streaming engine: per-step prediction, 3-sigma classification,
outlier bucketing, change-point declaration with instant regime capture,
adaptive training-window formation, and periodic mean refresh.

`step` is a pure state transition: it returns a new EngineState and never
mutates its input, so identical (state, observation) pairs produce
identical outputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .fit import FitError, FitResult, fit_template, heuristic_hyperparameters
from .gp import (
    KernelKind,
    MeanFunction,
    PredictiveDistribution,
    gp_predict,
    log_marginal_likelihood,
)
from .mixture import (
    SINGLETON_FACTORS,
    FusedPrediction,
    ModelSet,
    VariantFactors,
    build_model_set,
    eq_by_value,
    fuse_poe,
    predictive_weights,
    step_likelihoods,
    update_weights,
)

log = logging.getLogger("intelgp")


class Mode(Enum):
    INTEL = "intel"
    SINTEL = "sintel"


class Verdict(Enum):
    INLIER = "inlier"
    OUTLIER = "outlier"
    CHANGE_POINT = "change_point"


@dataclass(frozen=True)
class EngineConfig:
    """Streaming parameters; the defaults are the reference operating point."""

    tau: int = 20
    alpha: float = 0.9
    n_outliers: int = 3
    mean_period: int = 10
    init_count: int = 200
    factors: VariantFactors = VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0))
    mode: Mode = Mode.INTEL
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
    """The adaptive training set: at most `tau` of the most recent retained
    observations, times strictly increasing."""

    times: tuple[int, ...]
    values: tuple[float, ...]
    tau: int

    def appended(self, t: int, y: float) -> "TrainingWindow":
        return TrainingWindow(self.times + (t,), self.values + (y,), self.tau)

    def trimmed(self, horizon: int) -> "TrainingWindow":
        """Drop entries with time index below `horizon`."""
        keep = next((i for i, t in enumerate(self.times) if t >= horizon), len(self.times))
        if keep == 0:
            return self
        return TrainingWindow(self.times[keep:], self.values[keep:], self.tau)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ChangeBucket:
    """Consecutively declared outliers; filling it to `threshold` converts
    the streak into a change point."""

    times: tuple[int, ...]
    values: tuple[float, ...]
    threshold: int

    def appended(self, t: int, y: float) -> "ChangeBucket":
        return ChangeBucket(self.times + (t,), self.values + (y,), self.threshold)

    def emptied(self) -> "ChangeBucket":
        return ChangeBucket((), (), self.threshold)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class EngineState:
    window: TrainingWindow
    bucket: ChangeBucket
    model_set: ModelSet
    alpha: float
    mean_period: int
    inliers_since_refresh: int
    current_t: int
    fit: Optional[FitResult] = None


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


def predict_next(state: EngineState) -> FusedPrediction:
    """Fused one-step-ahead prediction for time current_t + 1.

    Pure: evaluates every model over the current window with the shared
    mean in one batched prediction, flattens the weights by the forgetting
    parameter, and fuses.  The only writes go to the model set's predictor
    cache, whose entries depend on their keys alone.
    """
    ms = state.model_set
    means, variances = gp_predict(
        state.window.times, state.window.values, ms.shared_mean, ms.models,
        state.current_t + 1, ms.cache,
    )
    w_hat = predictive_weights(ms.weights, state.alpha)
    fused = fuse_poe(means, variances, w_hat)
    return FusedPrediction(
        fused=fused, means=means, variances=variances, predictive_weights=w_hat
    )


def refresh_mean_periodic(state: EngineState) -> MeanFunction:
    """Constant mean set to the average of the last `mean_period` values
    appended to the window."""
    vals = state.window.values[-state.mean_period:]
    return MeanFunction(float(np.mean(vals)))


def step(state: EngineState, y_next: float) -> tuple[EngineState, StepOutput]:
    """Advance the engine by one observation.

    Order of operations: predict, classify, update the training window or
    the bucket (declaring an outlier or change point), update the model
    weights with the pre-update predictive weights, trim the window.
    """
    if not np.isfinite(y_next):
        raise ValueError(f"observation must be finite, got {y_next}")
    y_next = float(y_next)
    t_next = state.current_t + 1

    prediction = predict_next(state)
    inlier = classify(prediction.fused, y_next)

    window = state.window
    bucket = state.bucket
    mean = state.model_set.shared_mean
    inliers = state.inliers_since_refresh
    regime_start: Optional[int] = None

    if inlier:
        verdict = Verdict.INLIER
        window = window.appended(t_next, y_next)
        bucket = bucket.emptied()
        inliers += 1
        if inliers >= state.mean_period:
            state_for_refresh = replace(state, window=window)
            mean = refresh_mean_periodic(state_for_refresh)
            inliers = 0
    else:
        bucket = bucket.appended(t_next, y_next)
        if len(bucket) >= bucket.threshold:
            verdict = Verdict.CHANGE_POINT
            regime_start = bucket.times[0]
            window = TrainingWindow(bucket.times, bucket.values, window.tau)
            mean = MeanFunction(float(np.mean(bucket.values)))
            bucket = bucket.emptied()
            inliers = 0
            log.info("change point declared at t=%d (regime start t=%d)", t_next, regime_start)
        else:
            verdict = Verdict.OUTLIER
            log.info("outlier declared at t=%d", t_next)

    likelihoods = step_likelihoods(prediction.means, prediction.variances, y_next)
    weights = update_weights(prediction.predictive_weights, likelihoods)

    window = window.trimmed(t_next + 1 - window.tau)

    new_state = EngineState(
        window=window,
        bucket=bucket,
        model_set=state.model_set.replace(weights=weights, shared_mean=mean),
        alpha=state.alpha,
        mean_period=state.mean_period,
        inliers_since_refresh=inliers,
        current_t=t_next,
        fit=state.fit,
    )
    output = StepOutput(
        t=t_next,
        observation=y_next,
        fused=prediction.fused,
        verdict=verdict,
        weights_after=weights,
        mean_const=mean.constant,
        means=prediction.means,
        variances=prediction.variances,
        regime_start=regime_start,
    )
    return new_state, output


def initialize(history_t, history_y, config: EngineConfig) -> EngineState:
    """Build the starting state from the historical segment.

    Fits the template on the history (falling back to the scale-aware
    heuristic if every optimizer start fails), builds the variant set,
    and seeds the window with the most recent `tau` history points.
    """
    ts = np.asarray(history_t, dtype=float)
    ys = np.asarray(history_y, dtype=float)
    if ts.size != ys.size:
        raise ValueError("history_t and history_y must have the same length")
    if ts.size < 8:
        raise ValueError(f"initialization requires at least 8 points, got {ts.size}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("history observations must be finite")

    mean = MeanFunction(float(np.mean(ys)))
    try:
        fit = fit_template(
            ts, ys, mean.constant, kind=config.kernel_kind, seed=config.seed
        )
    except FitError:
        log.warning("template fit failed on every start; using heuristic scales")
        hyper = heuristic_hyperparameters(ts, ys, config.kernel_kind)
        fit = FitResult(
            hyper=hyper,
            lml=log_marginal_likelihood(hyper, mean, ts, ys),
            iterations=0,
            converged=False,
        )

    factors = SINGLETON_FACTORS if config.mode is Mode.SINTEL else config.factors
    model_set = build_model_set(fit.hyper, factors, mean)

    keep = min(config.tau, len(ts))
    window = TrainingWindow(
        times=tuple(int(t) for t in history_t[-keep:]),
        values=tuple(float(y) for y in ys[-keep:]),
        tau=config.tau,
    )
    bucket = ChangeBucket((), (), config.n_outliers)
    return EngineState(
        window=window,
        bucket=bucket,
        model_set=model_set,
        alpha=config.alpha,
        mean_period=config.mean_period,
        inliers_since_refresh=0,
        current_t=int(history_t[-1]),
        fit=fit,
    )
