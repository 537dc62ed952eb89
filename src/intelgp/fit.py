"""Template-model hyperparameter fitting.

Maximizes the log marginal likelihood over (log signal_scale,
log length_scale, log noise_scale) with a multi-start line-search
quasi-Newton method (L-BFGS-B with analytic gradients).
"""

from __future__ import annotations

import logging
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

DEFAULT_STARTS = 5
MAX_ITER = 200
GRAD_TOL = 1e-5
IMPROVEMENT_TOL = 1e-9

# Objective value substituted when a trial point is numerically unusable;
# keeps the line search finite.
_FAILED_OBJECTIVE = 1e25


@dataclass(frozen=True)
class FitResult:
    hyper: Hyperparameters
    lml: float
    iterations: int
    converged: bool


def heuristic_hyperparameters(
    ts, ys, kind: KernelKind = KernelKind.MATERN52
) -> Hyperparameters:
    """Scale-aware starting point: signal at the data spread, length at a
    tenth of the time span, noise at a tenth of the spread."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    scale = float(np.std(ys, ddof=1)) if ys.size > 1 else 0.0
    if not scale > 0.0:
        scale = 1e-3
    span = float(ts.max() - ts.min()) if ts.size > 1 else 1.0
    if not span > 0.0:
        span = 1.0
    return Hyperparameters(
        kind, signal_scale=scale, length_scale=span / 10.0, noise_scale=0.1 * scale
    )


def fit_template(
    ts,
    ys,
    mean_const: float,
    starts: int = DEFAULT_STARTS,
    kind: KernelKind = KernelKind.MATERN52,
    seed: int = 0,
) -> FitResult:
    """Fit hyperparameters by multi-start maximization of the LML.

    The first start is the scale-aware heuristic; the rest jitter it by up
    to one natural-log unit per component.  Returns the start with the
    highest final LML.  If no start produces a finite LML, logs a warning
    and falls back to the heuristic itself, unoptimized.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size < 8:
        raise ValueError(f"fit_template requires at least 8 data points, got {ts.size}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("observations must be finite")
    if starts < 1:
        raise ValueError("starts must be >= 1")

    table = distance_table(ts)

    def objective(x: np.ndarray):
        # ValueError covers scales that underflowed to zero after exp();
        # OverflowError covers Python-float pow on absurd trial scales.
        # Every failure mode just marks the trial point unusable.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                hyper = Hyperparameters.from_log_vector(kind, x)
                value, grad = lml_gradient(hyper, mean_const, table, ys)
        except (NumericalError, ValueError, OverflowError):
            return _FAILED_OBJECTIVE, np.zeros(3)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            return _FAILED_OBJECTIVE, np.zeros(3)
        return -value, -grad

    heuristic = heuristic_hyperparameters(ts, ys, kind)
    x0 = heuristic.to_log_vector()
    rng = np.random.default_rng(seed)
    start_points = [x0]
    for _ in range(starts - 1):
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
        lml = log_marginal_likelihood(heuristic, mean_const, ts, ys)
        return FitResult(hyper=heuristic, lml=lml, iterations=0, converged=False)

    hyper = Hyperparameters.from_log_vector(kind, best.x)
    # best.jac is the objective's gradient at best.x: the LML gradient, negated
    gnorm = float(np.linalg.norm(best.jac))
    # L-BFGS-B status 0 means it stopped on its own ftol/gtol criteria.
    converged = gnorm < GRAD_TOL or (best.status == 0 and gnorm < 1e-4)
    # Bitwise -best.fun: the value lml_gradient gave at best.x
    lml = log_marginal_likelihood(hyper, mean_const, ts, ys)
    log.info(
        "fit_template: lml=%.6f grad_norm=%.2e iterations=%d converged=%s",
        lml, gnorm, best.nit, converged,
    )
    return FitResult(hyper=hyper, lml=lml, iterations=int(best.nit), converged=converged)
