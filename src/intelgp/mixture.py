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

from .gp import VAR_FLOOR, Hyperparameters, PredictiveDistribution, predictive_distribution

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


# Below this many models the re-weighting does its sums, minima, floors and
# most of its +, -, *, / on Python floats, bit for bit: `add_reduce` adds
# in numpy's pairwise order, and IEEE arithmetic and comparisons round
# alike in Python and numpy.  Numpy keeps the power, log, exp and the fused
# mean's dot product, whose SIMD and BLAS kernels may round unlike `math`'s
# or a Python loop.  From this many models on, each function runs its
# numpy code, the faster there: its calls cost about the same at any small
# size, while the Python loops grow with the models.  On random inputs
# (Python 3.11, numpy 2.4.6) the four functions on Python floats took
# 0.94-1.01 of numpy's time at 13 models, 0.98-1.01 at 14, 1.03-1.06 at 15
# and 16, and 1.46-1.55 at 27.  The loops are written out: on Python 3.11
# a list comprehension costs a function call, more than the arithmetic of
# a few models.
NUMPY_FROM = 14


def add_reduce(xs) -> float:
    """`np.add.reduce` of a sequence of Python floats, bit for bit, in
    numpy's pairwise order: fewer than 8 values left to right; up to 128
    into 8 partial sums, one per position modulo 8 over the leading
    multiple of 8, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest
    left to right; more than 128 as the sums of two halves split at a
    multiple of 8.  The whole is added to 0, so -0.0 comes back as 0.0.
    Not the built-in sum, which compensates its rounding on Python 3.12
    and later."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return add_reduce(xs[:half]) + add_reduce(xs[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
    # While loops: a range object costs more than the few rounds here
    i = 8
    end = n - n % 8
    while i < end:
        r0 += xs[i]
        r1 += xs[i + 1]
        r2 += xs[i + 2]
        r3 += xs[i + 3]
        r4 += xs[i + 4]
        r5 += xs[i + 5]
        r6 += xs[i + 6]
        r7 += xs[i + 7]
        i += 8
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        total += xs[i]
        i += 1
    return 0.0 + total


def _floored(values: list[float], total: float) -> list[float]:
    """Each value over total, then np.maximum with WEIGHT_FLOOR, so a nan
    stays nan."""
    out = []
    for x in values:
        v = x / total
        if v < WEIGHT_FLOOR:
            v = WEIGHT_FLOOR
        out.append(v)
    return out


def predictive_weights(weights: np.ndarray, alpha: float) -> np.ndarray:
    """Flatten weights toward uniform by exponentiation with the forgetting
    parameter alpha in (0, 1], then renormalize."""
    if alpha == 1.0:
        return weights.copy()
    p = weights**alpha
    p /= add_reduce(p.tolist()) if len(p) < NUMPY_FROM else np.add.reduce(p)
    return p


def update_weights(pred_weights: np.ndarray, likelihoods: np.ndarray) -> np.ndarray:
    """Bayes update of the predictive weights by the per-model likelihoods,
    floored at WEIGHT_FLOOR and renormalized.

    The inputs are those `step` makes: predictive weights, all positive
    because the weights they flatten are floored, and the
    `step_likelihoods` of the same models, whose largest value is exactly
    1.  So the product has a positive sum.
    """
    if len(pred_weights) < NUMPY_FROM:
        w = (pred_weights * likelihoods).tolist()
        # Each division by the sum is floored before the next sum is taken
        w = _floored(w, add_reduce(w))
        return np.array(_floored(w, add_reduce(w)))
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
    if len(means) < NUMPY_FROM:
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
    if len(variances) < NUMPY_FROM:
        v = variances.tolist()
        r = v[0]
        for x in v:
            if x < r or x != x:  # np.minimum.reduce: a nan is the minimum
                r = x
        wp = []
        for x, w in zip(v, pred_weights.tolist()):
            wp.append(r / x * w)
        total = add_reduce(wp)
        wp = np.array(wp)
    else:
        r = float(np.minimum.reduce(variances))
        wp = r / variances
        wp *= pred_weights
        total = float(np.add.reduce(wp))
    # `.dot` calls the same BLAS ddot as `@` from two models on, but
    # multiplies a single model's mean as a scalar: [-0.0].[1.0] is -0.0
    # there and 0.0 through `@`, hence the + 0.0.  Python floats divide
    # with the same IEEE rounding as numpy scalars.
    return predictive_distribution(
        (float(means.dot(wp)) + 0.0) / total, max(r / total, VAR_FLOOR)
    )
