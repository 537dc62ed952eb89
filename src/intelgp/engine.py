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
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np

from .fit import MIN_FIT_POINTS, FitResult, fit_template
from .gp import (
    Hyperparameters,
    KernelKind,
    PredictiveDistribution,
    gap_fill,
    gp_predict,
    one_blas_thread,
    precision_table,
)
from .mixture import (
    VariantFactors,
    add_reduce,
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


# The integer settings and the least value of each.
_LEAST = {"tau": 1, "n_outliers": 1, "mean_period": 1, "init_count": MIN_FIT_POINTS, "seed": 0}


def check_integer(key: str, value) -> None:
    """The integer rule of every integer setting: an int or numpy integer,
    not a bool; 2.5, 20.0, "20" and None are rejected, naming `key`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Streaming parameters; the defaults are the reference operating point.

    SINTEL, the template model alone, is `factors=VariantFactors()`.
    These checks are the only ones of the engine values: the config file
    passes its values here unconverted, a `run` flag its text read as an
    int, a float or the text itself."""

    tau: int = 20
    alpha: float = 0.9
    n_outliers: int = 3
    mean_period: int = 10
    init_count: int = 200
    factors: VariantFactors = VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0))
    kernel_kind: KernelKind = KernelKind.MATERN52
    seed: int = 0

    def __post_init__(self):
        for key, least in _LEAST.items():
            value = getattr(self, key)
            check_integer(key, value)
            if value < least:
                raise ValueError(f"{key!r} must be >= {least}, got {value!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"'alpha' must be a real number, got {self.alpha!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"'alpha' must be in (0, 1], got {self.alpha!r}")
        if not isinstance(self.factors, VariantFactors):
            raise ValueError(f"'factors' must be a VariantFactors, got {self.factors!r}")
        # initialize builds a (2, M, tau+1, tau+1) float64 precision table;
        # past numpy's largest array it would fail only after the fit.
        models = len(self.factors.signal) * len(self.factors.length) * len(self.factors.noise)
        largest = math.isqrt(np.iinfo(np.intp).max // (2 * models * 8)) - 1
        if self.tau > largest:
            raise ValueError(
                f"'tau' must be <= {largest} for {models} models, whose precision "
                f"table would exceed numpy's largest array, got {self.tau!r}"
            )
        if not isinstance(self.kernel_kind, KernelKind):
            raise ValueError(f"'kernel_kind' must be a KernelKind, got {self.kernel_kind!r}")


def _mean(values: tuple[float, ...]) -> float:
    """`float(np.mean(values))` bit for bit without an array: numpy's
    pairwise sum, then the same IEEE division by the count."""
    return add_reduce(values) / len(values)


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


_EMPTY_WINDOW = TrainingWindow()


@dataclass(frozen=True)
class EngineState:
    """Where a stream stands after its last observation.

    `models` are the template (model 0) and its variants, `weights` their
    weights, `shared_mean` the constant prior mean of all of them.

    `table` and `cache` belong to `models` and are built for them alone.
    `table` is their `gp.precision_table`, of shape (2, M, tau+1, tau+1):
    each model's noisy covariance over the offsets 0..tau at [1] and its
    inverse, the precision, at [0], from which a prediction gathers its
    matrices; every window lies within `tau` of the next time.  `cache` is
    the predictor cache (see `gp.gp_predict`), which `initialize` starts
    with the windows of the offsets 1..tau less one or two of them, each
    such gap class few enough for one batch, and with the windows of the
    newest 1..tau-1 offsets, which a change point regrows (`gp.gap_fill`),
    and to which only a miss writes: its own entry and, for a window that
    holds the oldest offset tau with a few gaps, the entry of the window
    the next inlier step slides it to.  `initialize` builds both,
    the kernel checked finite and each model's jitter chosen there, and
    `step` passes them on, so a stream and its forks share them.  Both
    are left out of equality, which compares the weights by value, and out
    of the repr.
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
    fit: FitResult
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    __eq__ = eq_by_value


@dataclass(frozen=True, slots=True)
class StepOutput:
    """One step's forecast, verdict and weights.  Slotted: a stream may
    keep one per step.  `step` builds it with one store per slot, not
    with `__init__`'s one `object.__setattr__` call per field; built by
    keyword, it is the same frozen dataclass."""

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


# The slots' own stores, in field order, for `step`.
(_set_t, _set_observation, _set_fused, _set_verdict, _set_weights_after,
 _set_mean_const, _set_means, _set_variances, _set_regime_start) = (
    getattr(StepOutput, f.name).__set__ for f in fields(StepOutput))


def classify(pred: PredictiveDistribution, y: float) -> bool:
    """Whether y is an inlier: it lies strictly inside the open 3-sigma
    interval.  Otherwise it is an outlier candidate."""
    half_width = 3.0 * pred.std
    return bool(pred.mean - half_width < y < pred.mean + half_width)


def _predict(state: EngineState):
    """The models' means and variances, the predictive weights, and the
    fused prediction for time t* = current_t + 1, from the window's offsets."""
    t_star = state.current_t + 1
    means, variances = gp_predict(
        tuple([t_star - t for t in state.window.times]), state.window.values,
        state.shared_mean, state.table, state.cache,
    )
    w_hat = predictive_weights(state.weights, state.config.alpha)
    fused = fuse_poe(means, variances, w_hat)
    return means, variances, w_hat, fused


def predict_next(state: EngineState) -> PredictiveDistribution:
    """Fused one-step-ahead prediction for time current_t + 1.

    Pure: evaluates every model over the current window with the shared
    mean in one batched prediction, flattens the weights by the forgetting
    parameter, and fuses.  The only writes are a miss's new entries in the
    state's predictor cache, its own and, where it pairs, its window's next
    slide's (`gp.gp_predict`), whose entries depend on their keys alone.
    The per-model means and variances are in the `StepOutput` of `step`.
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
    horizon = t_next + 1 - config.tau

    if inlier:
        verdict = Verdict.INLIER
        # One window built: the refresh averages the appended values before
        # the trim.  The window lies within tau of t_next, the span of the
        # offsets just predicted from, so the trim drops at most one point.
        times = window.times + (t_next,)
        values = window.values + (y_next,)
        bucket = _EMPTY_WINDOW
        inliers += 1
        if inliers >= config.mean_period:
            mean = _mean(values[-config.mean_period:])
            inliers = 0
        keep = 1 if times[0] < horizon else 0
        window = TrainingWindow(times[keep:], values[keep:])
    else:
        bucket = bucket.appended(t_next, y_next)
        if len(bucket) >= config.n_outliers:
            verdict = Verdict.CHANGE_POINT
            regime_start = bucket.times[0]
            window = bucket
            mean = _mean(bucket.values)
            bucket = _EMPTY_WINDOW
            inliers = 0
            log.info("change point declared at t=%d (regime start t=%d)", t_next, regime_start)
        else:
            verdict = Verdict.OUTLIER
            log.info("outlier declared at t=%d", t_next)
        window = window.trimmed(horizon)

    if inlier:
        likelihoods = step_likelihoods(means, variances, y_next)
    else:
        # Far out, (y - mean)^2 may overflow: flat evidence, not a fault.
        with np.errstate(over="ignore"):
            likelihoods = step_likelihoods(means, variances, y_next)
    weights = update_weights(w_hat, likelihoods)

    # The next step replaces this state, so it is built with one store of
    # its whole __dict__ rather than __init__'s object.__setattr__ per
    # field; the dict must name every field, defaults included.  StepOutput,
    # which a stream may keep, is slotted instead: smaller than a dict, and
    # built by one store per slot, every slot included.
    new_state = object.__new__(EngineState)
    object.__setattr__(new_state, "__dict__", {
        "window": window,
        "bucket": bucket,
        "models": state.models,
        "table": state.table,
        "weights": weights,
        "shared_mean": mean,
        "config": config,
        "inliers_since_refresh": inliers,
        "current_t": t_next,
        "fit": state.fit,
        "cache": state.cache,
    })
    output = object.__new__(StepOutput)
    _set_t(output, t_next)
    _set_observation(output, y_next)
    _set_fused(output, fused)
    _set_verdict(output, verdict)
    _set_weights_after(output, weights)
    _set_mean_const(output, mean)
    _set_means(output, means)
    _set_variances(output, variances)
    _set_regime_start(output, regime_start)
    return new_state, output


def initialize(history_t, history_y, config: EngineConfig) -> EngineState:
    """Build the starting state from the historical segment.

    Fits the template on the history, whose mean (`FitResult.mean`)
    starts the shared mean, builds the variant set, and seeds the window
    with the history points of the last `tau` time steps, the rule `step`
    applies after every observation.  The history times must be strictly
    increasing integers below 2**53 in magnitude; gaps are allowed.
    `fit_template` checks the rest of the history, before its first
    start: as many observations as times, at least MIN_FIT_POINTS, all
    finite.  The fit and the precision table run with scipy's BLAS on one
    thread (`gp.one_blas_thread`), so the state's bits do not depend on
    the BLAS thread count.  A new predictor cache starts with the table's
    gap classes and the windows a change point regrows (`gp.gap_fill`),
    computed as misses are, outside that pin.
    """
    ts = np.asarray(history_t, dtype=float)
    ys = np.asarray(history_y, dtype=float)
    # Below 2**53 in magnitude float64 holds every integer, and a larger
    # one is cast to at least 2**53: the fit takes the times as float64.
    if np.any(np.abs(ts) >= 2.0**53):
        raise ValueError("history times must lie strictly between -2**53 and 2**53")
    if not (np.all(np.isfinite(ts) & (ts == np.round(ts))) and np.all(np.diff(ts) > 0)):
        raise ValueError("history times must be strictly increasing integers")

    with one_blas_thread():
        fit = fit_template(ts, ys, kind=config.kernel_kind, seed=config.seed)
        models = build_model_set(fit.hyper, config.factors)
        table = precision_table(models, config.tau)
    cache = gap_fill(table)

    current_t = int(history_t[-1])
    window = TrainingWindow(
        times=tuple(int(t) for t in history_t[-config.tau:]),
        values=tuple(float(y) for y in ys[-config.tau:]),
    ).trimmed(current_t + 1 - config.tau)
    return EngineState(
        window=window,
        bucket=_EMPTY_WINDOW,
        models=models,
        table=table,
        weights=np.full(len(models), 1.0 / len(models)),
        shared_mean=fit.mean,
        config=config,
        inliers_since_refresh=0,
        current_t=current_t,
        fit=fit,
        cache=cache,
    )
