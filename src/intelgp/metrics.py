"""Normalization statistics and prediction-quality metrics for a run."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


class DegenerateDataError(ValueError):
    """The segment is constant (or too short) so no scale can be estimated."""


@dataclass(frozen=True)
class NormalizationStats:
    mean: float
    std: float

    def normalize(self, ys) -> np.ndarray:
        return (np.asarray(ys, dtype=float) - self.mean) / self.std

    def denormalize(self, zs) -> np.ndarray:
        return np.asarray(zs, dtype=float) * self.std + self.mean


@dataclass(frozen=True)
class RunMetrics:
    nll: float
    mae: float
    mse: float
    n_evaluated: int


def compute_stats(ys) -> NormalizationStats:
    """Sample mean and sample standard deviation (divisor n-1)."""
    ys = np.asarray(ys, dtype=float)
    if ys.size < 2:
        raise DegenerateDataError(
            f"need at least 2 points to estimate a scale, got {ys.size}"
        )
    mean = float(np.mean(ys))
    std = float(np.std(ys, ddof=1))
    # Relative check, so that it holds at any scale: an exactly-constant
    # series can still show a few ulps of spread after the mean subtraction.
    if std <= 1e-12 * abs(mean):
        raise DegenerateDataError("constant segment; standard deviation is zero")
    return NormalizationStats(mean=mean, std=std)


def evaluate(outputs, actuals) -> RunMetrics:
    """Mean negative log predictive density, mean absolute error, and mean
    squared error of the fused predictions against the observations."""
    actuals = np.asarray(actuals, dtype=float)
    if len(outputs) != actuals.size:
        raise ValueError(
            f"got {len(outputs)} step outputs but {actuals.size} observations"
        )
    if actuals.size == 0:
        raise ValueError("nothing to evaluate")
    means = np.array([o.fused.mean for o in outputs])
    variances = np.array([o.fused.variance for o in outputs])
    resid = actuals - means
    nll = float(np.mean(0.5 * (resid**2 / variances + np.log(variances) + _LOG_2PI)))
    mae = float(np.mean(np.abs(resid)))
    mse = float(np.mean(resid**2))
    return RunMetrics(nll=nll, mae=mae, mse=mse, n_evaluated=int(actuals.size))
