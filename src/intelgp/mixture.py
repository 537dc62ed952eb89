"""Model set construction, the forgetting-plus-Bayes weight recursion, and
precision-weighted fusion of per-model Gaussian predictions.

Per-model predictions travel as two (M,) arrays, the means and the
variances, in model order."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gp import VAR_FLOOR, Hyperparameters, MeanFunction, PredictiveDistribution

# Weights never fall below this; a weight driven to exact zero by one
# extreme likelihood ratio could otherwise never recover.
WEIGHT_FLOOR = 1e-10

_LOG_2PI = math.log(2.0 * math.pi)


def _ones_first(factors) -> tuple[float, ...]:
    vals = tuple(float(v) for v in factors)
    if any(v <= 0.0 for v in vals):
        raise ValueError(f"factors must be positive, got {vals}")
    if 1.0 not in vals:
        raise ValueError(f"factor 1 must be present, got {vals}")
    return (1.0,) + tuple(v for v in vals if v != 1.0)


@dataclass(frozen=True)
class VariantFactors:
    """Per-hyperparameter multiplier lists; the template factor 1 is moved
    to the front of each list so the all-ones combination is model 0."""

    signal: tuple[float, ...] = (1.0,)
    length: tuple[float, ...] = (1.0,)
    noise: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "signal", _ones_first(self.signal))
        object.__setattr__(self, "length", _ones_first(self.length))
        object.__setattr__(self, "noise", _ones_first(self.noise))

    @property
    def n_models(self) -> int:
        return len(self.signal) * len(self.length) * len(self.noise)


SINGLETON_FACTORS = VariantFactors()


@dataclass
class ModelSet:
    """The template model (index 0), its variants, their weights, and the
    mean function shared by all of them.

    `cache` is the predictor cache of the whole set (see `gp.gp_predict`).
    A new model set starts with an empty one; `replace` shares it, so a
    stream and its forks fill the same cache.
    """

    models: tuple[Hyperparameters, ...]
    weights: np.ndarray
    shared_mean: MeanFunction
    cache: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.cache is None:
            self.cache = {}

    def replace(self, weights=None, shared_mean=None) -> "ModelSet":
        return ModelSet(
            models=self.models,
            weights=self.weights if weights is None else np.asarray(weights, float),
            shared_mean=self.shared_mean if shared_mean is None else shared_mean,
            cache=self.cache,
        )


@dataclass(frozen=True)
class FusedPrediction:
    """The fused forecast, and the per-model means and variances it fuses
    with the predictive weights."""

    fused: PredictiveDistribution
    means: np.ndarray
    variances: np.ndarray
    predictive_weights: np.ndarray


def build_model_set(
    template: Hyperparameters,
    factors: VariantFactors,
    mean: MeanFunction,
) -> ModelSet:
    """Cartesian product of the factor lists applied multiplicatively to the
    template's (signal, length, noise) scales; uniform initial weights."""
    models = tuple(
        template.scaled(f=f, l=l, n=n)
        for f, l, n in itertools.product(factors.signal, factors.length, factors.noise)
    )
    n = len(models)
    return ModelSet(
        models=models,
        weights=np.full(n, 1.0 / n),
        shared_mean=mean,
    )


def predictive_weights(weights, alpha: float) -> np.ndarray:
    """Flatten weights toward uniform by exponentiation with the forgetting
    parameter, then renormalize."""
    w = np.asarray(weights, dtype=float)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if alpha == 1.0:
        return w.copy()
    p = w**alpha
    return p / p.sum()


def update_weights(pred_weights, likelihoods) -> np.ndarray:
    """Bayes update of the predictive weights by the per-model likelihoods,
    floored at WEIGHT_FLOOR and renormalized.

    If every likelihood is zero (a gross outlier under all models), the
    predictive weights are returned unchanged.
    """
    w_hat = np.asarray(pred_weights, dtype=float)
    lik = np.asarray(likelihoods, dtype=float)
    if lik.shape != w_hat.shape:
        raise ValueError("pred_weights and likelihoods must have the same length")
    if np.any(lik < 0.0):
        raise ValueError("likelihoods must be nonnegative")
    top = lik.max()
    if top <= 0.0:
        return w_hat.copy()
    w = w_hat * (lik / top)
    total = w.sum()
    if total <= 0.0:
        return w_hat.copy()
    w /= total
    w = np.maximum(w, WEIGHT_FLOOR)
    w /= w.sum()
    # Renormalization can push a floored entry infinitesimally below the
    # floor again; the final clamp restores it at a sum cost << 1e-12.
    return np.maximum(w, WEIGHT_FLOOR)


def model_log_likelihood(means, variances, y: float):
    """Gaussian log density of the observation under each model's
    predictive; works elementwise on arrays and on scalars."""
    resid = y - means
    return -0.5 * (resid * resid / variances + np.log(variances) + _LOG_2PI)


def model_likelihood(means, variances, y: float):
    """Gaussian density of the observation under each model's predictive."""
    return np.exp(model_log_likelihood(means, variances, y))


def step_likelihoods(means: np.ndarray, variances: np.ndarray, y: float) -> np.ndarray:
    """Per-model likelihoods rescaled by the per-step maximum log density.

    Working in log space and exponentiating after subtracting the maximum
    prevents underflow when the observation is far in every model's tail;
    the common factor cancels in the weight update.
    """
    resid = y - means
    q = resid * resid / variances + np.log(variances)  # -2 log density, less a constant
    return np.exp(0.5 * (q.min() - q))


def fuse_poe(means: np.ndarray, variances: np.ndarray, pred_weights) -> PredictiveDistribution:
    """Weighted product-of-experts fusion of Gaussian predictions.

    Each model contributes its precision scaled by its predictive weight;
    the fused mean is the precision-and-weight-weighted mean.
    """
    w = np.asarray(pred_weights, dtype=float)
    if not (w.shape == means.shape == variances.shape):
        raise ValueError("means, variances and pred_weights must have the same length")
    wp = w / variances
    total = wp.sum()
    return PredictiveDistribution(means @ wp / total, max(1.0 / total, VAR_FLOOR))
