"""Model set construction, the forgetting-plus-Bayes weight recursion, and
precision-weighted fusion of per-model Gaussian predictions.

Per-model predictions travel as two (M,) arrays, the means and the
variances, in model order."""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .gp import VAR_FLOOR, Hyperparameters, PredictiveDistribution

# Weights never fall below this; a weight driven to exact zero by one
# extreme likelihood ratio could otherwise never recover.
WEIGHT_FLOOR = 1e-10


def _ones_first(name: str, factors) -> tuple[float, ...]:
    """The checked factor list with the template factor 1 first, inserted
    when absent."""
    try:
        vals = tuple(factors)
        real = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in vals)
    except TypeError:
        real = False
    if not real:
        raise ValueError(f"{name!r} factors must be a sequence of real numbers, got {factors!r}")
    for v in vals:
        # Exact for an int too large for a float, where float(v) would raise
        if not abs(v) <= sys.float_info.max:
            raise ValueError(f"{name!r} factor {v} is not finite, got {vals}")
    vals = tuple(float(v) for v in vals)
    if any(v <= 0.0 for v in vals):
        raise ValueError(f"{name!r} factors must be positive, got {vals}")
    if len(set(vals)) < len(vals):
        raise ValueError(f"{name!r} factors must not repeat, got {vals}")
    return (1.0,) + tuple(v for v in vals if v != 1.0)


@dataclass(frozen=True)
class VariantFactors:
    """Per-hyperparameter multiplier lists.  Each list holds the template
    factor 1, first: it is inserted when absent, so the all-ones
    combination is model 0.  Factors must be real numbers (not booleans),
    finite, positive and distinct."""

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


# Below this many models the re-weighting runs on Python floats, bit for
# bit: numpy's pairwise sum adds fewer than 8 values one at a time, left to
# right, and IEEE +, -, *, / and comparisons round alike in Python and
# numpy.  Numpy keeps the power, log, exp and the fused mean's dot product,
# whose SIMD and BLAS kernels may round unlike `math`'s or a Python loop.
# From 8 models on, each function runs its numpy code.  The Python code
# uses explicit loops: on Python 3.11 a list comprehension costs a
# function call, more than the arithmetic of a few models.
PAIRWISE_BLOCK = 8


def _floored(values: list[float], total: float) -> tuple[list[float], float]:
    """Each value over total, then np.maximum with WEIGHT_FLOOR, so a nan
    stays nan; and the sum of the results, added left to right as
    np.add.reduce adds fewer than PAIRWISE_BLOCK values.  Not the built-in
    sum, which compensates its rounding on Python 3.12 and later."""
    out = []
    out_total = 0.0
    for x in values:
        v = x / total
        if v < WEIGHT_FLOOR:
            v = WEIGHT_FLOOR
        out.append(v)
        out_total += v
    return out, out_total


def predictive_weights(weights: np.ndarray, alpha: float) -> np.ndarray:
    """Flatten weights toward uniform by exponentiation with the forgetting
    parameter alpha in (0, 1], then renormalize."""
    if alpha == 1.0:
        return weights.copy()
    p = weights**alpha
    if len(p) < PAIRWISE_BLOCK:
        p = p.tolist()
        total = 0.0
        for v in p:
            total += v
        out = []
        for v in p:
            out.append(v / total)
        return np.array(out)
    p /= np.add.reduce(p)
    return p


def update_weights(pred_weights: np.ndarray, likelihoods: np.ndarray) -> np.ndarray:
    """Bayes update of the predictive weights by the per-model likelihoods,
    floored at WEIGHT_FLOOR and renormalized.

    The inputs are those `step` makes: predictive weights, all positive
    because the weights they flatten are floored, and the
    `step_likelihoods` of the same models, whose largest value is exactly
    1.  So the product has a positive sum.
    """
    if len(pred_weights) < PAIRWISE_BLOCK:
        w = []
        total = 0.0
        for p, q in zip(pred_weights.tolist(), likelihoods.tolist()):
            v = p * q
            w.append(v)
            total += v
        # Each division by the sum is floored before the next sum is taken
        w, total = _floored(w, total)
        return np.array(_floored(w, total)[0])
    w = pred_weights * likelihoods
    w /= np.add.reduce(w)
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
    if len(means) < PAIRWISE_BLOCK:
        q = []
        lowest = math.inf
        for m, v, log_v in zip(means.tolist(), variances.tolist(), np.log(variances).tolist()):
            resid = y - m
            qi = resid * resid / v + log_v  # -2 log density, less a constant
            q.append(qi)
            # np.minimum.reduce: a nan, wherever it sits, is the minimum
            if qi < lowest or qi != qi:
                lowest = qi
        if lowest == math.inf:
            return np.ones(len(q))
        out = []
        for qi in q:
            out.append((lowest - qi) * 0.5)
        out = np.array(out)
        return np.exp(out, out=out)
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


def fuse_poe(
    means: np.ndarray, variances: np.ndarray, pred_weights: np.ndarray
) -> PredictiveDistribution:
    """Weighted product-of-experts fusion of Gaussian predictions.

    Each model contributes its precision scaled by its predictive weight;
    the fused mean is the precision-and-weight-weighted mean.  Precisions
    are taken relative to the smallest variance r, so the fused variance is
    r over their weighted sum: a single model (weight 1) comes back exactly,
    where 1/(1/v) would round.  The three arrays have one entry per model.
    """
    if len(variances) < PAIRWISE_BLOCK:
        v = variances.tolist()
        r = v[0]
        for x in v:
            if x < r or x != x:  # np.minimum.reduce: a nan is the minimum
                r = x
        wp = []
        total = 0.0
        for x, w in zip(v, pred_weights.tolist()):
            p = r / x * w
            wp.append(p)
            total += p
        wp = np.array(wp)
    else:
        r = float(np.minimum.reduce(variances))
        wp = r / variances
        wp *= pred_weights
        total = float(np.add.reduce(wp))
    # Python floats divide with the same IEEE rounding as numpy scalars
    return PredictiveDistribution(float(means @ wp) / total, max(r / total, VAR_FLOOR))
