"""Template-model hyperparameter fitting.

Maximizes the log marginal likelihood over (log signal_scale,
log length_scale, log noise_scale) with a multi-start line-search
quasi-Newton method (L-BFGS-B with analytic gradients).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .gp import (
    Hyperparameters,
    KernelKind,
    NumericalError,
    distance_table,
    lml_gradient,
    log_marginal_likelihood,
)

log = logging.getLogger("intelgp")

# The fewest points a template fit takes: the least `init_count`.
MIN_FIT_POINTS = 8
# Optimizer starts: the heuristic and four jittered copies of it.
STARTS = 5
MAX_ITER = 200
GRAD_TOL = 1e-5
IMPROVEMENT_TOL = 1e-9

# Objective value substituted when a trial point is numerically unusable;
# keeps the line search finite.
_FAILED_OBJECTIVE = 1e25


@dataclass(frozen=True)
class FitResult:
    hyper: Hyperparameters
    mean: float  # the prior mean constant the LML was taken at
    lml: float
    iterations: int
    converged: bool


def heuristic_hyperparameters(
    ts, ys, kind: KernelKind = KernelKind.MATERN52
) -> Hyperparameters:
    """Scale-aware starting point: signal at the data spread, length at a
    tenth of the time span, noise at a tenth of the spread.  The inputs
    are `fit_template`'s, checked there: at least MIN_FIT_POINTS."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    scale = float(np.std(ys, ddof=1))
    if not scale > 0.0:
        scale = 1e-3
    span = float(ts.max() - ts.min())
    if not span > 0.0:
        span = 1.0
    return Hyperparameters(
        kind, signal_scale=scale, length_scale=span / 10.0, noise_scale=0.1 * scale
    )


def fit_template(
    ts, ys, kind: KernelKind = KernelKind.MATERN52, seed: int = 0
) -> FitResult:
    """Fit hyperparameters by multi-start maximization of the LML.

    The first of the STARTS starts is the scale-aware heuristic; the rest
    jitter it by up to one natural-log unit per component.  Returns the
    start with the highest final LML.  If no start produces a finite LML,
    logs a warning and falls back to the heuristic itself, unoptimized:
    that is for numerical failure only.

    The inputs are checked here, before any start, and nowhere after:
    `ts` and `ys` two 1-D arrays of one length, at least MIN_FIT_POINTS
    of them, all finite, and `kind` a KernelKind (a ValueError
    otherwise).  The likelihood functions trust them.  After the checks
    the prior mean is taken, a constant: the mean of `ys`, returned as
    `FitResult.mean`.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.ndim != 1 or ts.shape != ys.shape:
        raise ValueError(
            f"fit_template needs two 1-D arrays of one length, got {ts.size} times "
            f"but {ys.size} observations, of shapes {ts.shape} and {ys.shape}"
        )
    if ts.size < MIN_FIT_POINTS:
        raise ValueError(
            f"fit_template requires at least {MIN_FIT_POINTS} data points, got {ts.size}"
        )
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ys))):
        raise ValueError("times and observations must be finite")
    mean = float(np.mean(ys))
    heuristic = heuristic_hyperparameters(ts, ys, kind)  # Hyperparameters checks the kind
    table = distance_table(ts)

    def objective(x: np.ndarray):
        # The inputs were checked above, so a ValueError here is only a
        # scale that underflowed to zero after exp(); OverflowError covers
        # Python-float pow on absurd trial scales.  Either just marks the
        # trial point unusable.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                hyper = Hyperparameters.from_log_vector(kind, x)
                value, grad = lml_gradient(hyper, mean, table, ys)
        except (NumericalError, ValueError, OverflowError):
            return _FAILED_OBJECTIVE, np.zeros(3)
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            return _FAILED_OBJECTIVE, np.zeros(3)
        return -value, -grad

    x0 = heuristic.to_log_vector()
    rng = np.random.default_rng(seed)
    start_points = [x0]
    for _ in range(STARTS - 1):
        start_points.append(x0 + rng.uniform(-1.0, 1.0, size=3))

    best = None
    for i, start in enumerate(start_points):
        res = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": MAX_ITER, "ftol": IMPROVEMENT_TOL, "gtol": GRAD_TOL},
        )
        if res.fun >= _FAILED_OBJECTIVE or not np.isfinite(res.fun):
            log.debug("fit start %d failed numerically", i)
            continue
        if best is None or res.fun < best.fun:
            best = res

    if best is None:
        log.warning("template fit failed on every start; using heuristic scales")
        lml = log_marginal_likelihood(heuristic, mean, ts, ys)
        return FitResult(heuristic, mean, lml, iterations=0, converged=False)

    hyper = Hyperparameters.from_log_vector(kind, best.x)
    # best.jac is the objective's gradient at best.x: the LML gradient, negated
    gnorm = float(np.linalg.norm(best.jac))
    # L-BFGS-B status 0 means it stopped on its own ftol/gtol criteria.
    converged = gnorm < GRAD_TOL or (best.status == 0 and gnorm < 1e-4)
    # Bitwise -best.fun: the value lml_gradient gave at best.x
    lml = log_marginal_likelihood(hyper, mean, ts, ys)
    log.info(
        "fit_template: lml=%.6f grad_norm=%.2e iterations=%d converged=%s",
        lml, gnorm, best.nit, converged,
    )
    return FitResult(hyper, mean, lml, iterations=int(best.nit), converged=converged)
