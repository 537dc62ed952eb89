"""Model set construction, the forgetting-plus-Bayes weight recursion, and
precision-weighted fusion of per-model Gaussian predictions.

Per-model predictions travel as two (M,) arrays, the means and the
variances, in model order."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .gp import VAR_FLOOR, Hyperparameters, PredictiveDistribution

# Weights never fall below this; a weight driven to exact zero by one
# extreme likelihood ratio could otherwise never recover.
WEIGHT_FLOOR = 1e-10


def _ones_first(name: str, factors) -> tuple[float, ...]:
    vals = tuple(float(v) for v in factors)
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} factor {v} is not finite, got {vals}")
    if any(v <= 0.0 for v in vals):
        raise ValueError(f"{name} factors must be positive, got {vals}")
    if 1.0 not in vals:
        raise ValueError(f"{name} factor 1 must be present, got {vals}")
    return (1.0,) + tuple(v for v in vals if v != 1.0)


@dataclass(frozen=True)
class VariantFactors:
    """Per-hyperparameter multiplier lists; the template factor 1 is moved
    to the front of each list so the all-ones combination is model 0."""

    signal: tuple[float, ...] = (1.0,)
    length: tuple[float, ...] = (1.0,)
    noise: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        for name in ("signal", "length", "noise"):
            object.__setattr__(self, name, _ones_first(name, getattr(self, name)))


def eq_by_value(a, b):
    """Equality of two dataclass instances with their array fields compared
    by value.  The generated __eq__ compares field tuples, which raises for
    arrays of more than one element.  Fields with compare=False are left
    out."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        if not f.compare:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def build_model_set(
    template: Hyperparameters, factors: VariantFactors
) -> tuple[Hyperparameters, ...]:
    """The models: the Cartesian product of the factor lists applied
    multiplicatively to the template's (signal, length, noise) scales.
    The template itself, all factors 1, is model 0."""
    return tuple(
        template.scaled(f=f, l=l, n=n)
        for f, l, n in itertools.product(factors.signal, factors.length, factors.noise)
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
    p /= np.add.reduce(p)
    return p


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
    if np.minimum.reduce(lik) < 0.0:
        raise ValueError("likelihoods must be nonnegative")
    top = np.maximum.reduce(lik)
    if top <= 0.0:
        return w_hat.copy()
    w = w_hat * (lik / top)
    total = np.add.reduce(w)
    if total <= 0.0:
        return w_hat.copy()
    w /= total
    np.maximum(w, WEIGHT_FLOOR, out=w)
    w /= np.add.reduce(w)
    # Renormalization can push a floored entry infinitesimally below the
    # floor again; the final clamp restores it at a sum cost << 1e-12.
    return np.maximum(w, WEIGHT_FLOOR, out=w)


def step_likelihoods(means: np.ndarray, variances: np.ndarray, y: float) -> np.ndarray:
    """Per-model likelihoods rescaled by the per-step maximum log density.

    Working in log space and exponentiating after subtracting the maximum
    prevents underflow when the observation is far in every model's tail;
    the common factor cancels in the weight update.  An observation so far
    out that (y - mean)^2 / variance overflows for every model is flat
    evidence: all likelihoods are 1.
    """
    resid = y - means
    q = resid * resid / variances
    q += np.log(variances)  # -2 log density, less a constant
    lowest = np.minimum.reduce(q)
    if lowest == math.inf:
        q.fill(1.0)
        return q
    np.subtract(lowest, q, out=q)
    q *= 0.5
    return np.exp(q, out=q)


def fuse_poe(means: np.ndarray, variances: np.ndarray, pred_weights) -> PredictiveDistribution:
    """Weighted product-of-experts fusion of Gaussian predictions.

    Each model contributes its precision scaled by its predictive weight;
    the fused mean is the precision-and-weight-weighted mean.  Precisions
    are taken relative to the smallest variance r, so the fused variance is
    r over their weighted sum: a single model (weight 1) comes back exactly,
    where 1/(1/v) would round.
    """
    w = np.asarray(pred_weights, dtype=float)
    if not (w.shape == means.shape == variances.shape):
        raise ValueError("means, variances and pred_weights must have the same length")
    r = np.minimum.reduce(variances)
    wp = r / variances
    wp *= w
    total = np.add.reduce(wp)
    return PredictiveDistribution(means @ wp / total, max(r / total, VAR_FLOOR))
