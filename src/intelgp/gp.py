"""Exact Gaussian-process machinery on scalar inputs.

Kernels, covariance assembly, one-step posterior prediction for a whole
model set at once, and the log marginal likelihood with analytic gradients
in log-parameter space.  All solves go through a Cholesky factorization;
an explicit matrix inverse is never formed on the prediction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

# Predictive variances are floored here so downstream precision sums and
# log densities stay finite.
VAR_FLOOR = 1e-12

# Jitter ladder: first attempt is unjittered, then five escalations.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

_LOG_2PI = math.log(2.0 * math.pi)

# Entries a predictor cache holds.  The bound keeps memory flat on streams
# whose windows rarely repeat an offset pattern (an entry holds M tau x tau
# factors); on a full, contiguous window the pattern repeats almost every
# step, and the least recently used entries go first.
PREDICTOR_CACHE_SIZE = 64


class NumericalError(RuntimeError):
    """Cholesky factorization failed even at the maximum jitter level."""


class KernelKind(Enum):
    MATERN52 = "matern52"
    SQUARED_EXPONENTIAL = "se"


@dataclass(frozen=True)
class KernelSpec:
    """A stationary kernel: its family plus signal and length scales."""

    kind: KernelKind
    signal_scale: float
    length_scale: float

    def __post_init__(self):
        object.__setattr__(self, "signal_scale", float(self.signal_scale))
        object.__setattr__(self, "length_scale", float(self.length_scale))
        if not (self.signal_scale > 0.0):
            raise ValueError(f"signal_scale must be positive, got {self.signal_scale}")
        if not (self.length_scale > 0.0):
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel scales plus the observation-noise scale of one GP model."""

    kernel: KernelSpec
    noise_scale: float

    def __post_init__(self):
        object.__setattr__(self, "noise_scale", float(self.noise_scale))
        if not (self.noise_scale > 0.0):
            raise ValueError(f"noise_scale must be positive, got {self.noise_scale}")

    def to_log_vector(self) -> np.ndarray:
        """(log signal_scale, log length_scale, log noise_scale)."""
        return np.log(
            [self.kernel.signal_scale, self.kernel.length_scale, self.noise_scale]
        )

    @classmethod
    def from_log_vector(cls, kind: KernelKind, v: np.ndarray) -> "Hyperparameters":
        sf, sl, sn = np.exp(np.asarray(v, dtype=float))
        return cls(kernel=KernelSpec(kind, sf, sl), noise_scale=sn)

    def scaled(self, f: float = 1.0, l: float = 1.0, n: float = 1.0) -> "Hyperparameters":
        """A copy with each scale multiplied by the given factor."""
        return Hyperparameters(
            kernel=KernelSpec(
                self.kernel.kind,
                self.kernel.signal_scale * f,
                self.kernel.length_scale * l,
            ),
            noise_scale=self.noise_scale * n,
        )


@dataclass(frozen=True)
class MeanFunction:
    """Constant mean function; evaluation at any input returns `constant`."""

    constant: float

    def __post_init__(self):
        object.__setattr__(self, "constant", float(self.constant))

    def __call__(self, t) -> float:
        return self.constant


@dataclass(frozen=True)
class PredictiveDistribution:
    """A Gaussian one-step forecast."""

    mean: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        if not (self.variance > 0.0):
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


# Scaled distances are clamped here; the exponential factor has underflowed
# to ~1e-300 long before this, so the clamp only prevents inf*0 = nan at
# extreme length scales probed by the optimizer.
_MAX_SCALED_DIST = 705.0


def _kernel_values(kind: KernelKind, signal_scale, length_scale, d: np.ndarray) -> np.ndarray:
    """Kernel value as a function of pairwise distance |xi - xj|.  The
    scales are floats, or arrays that broadcast against `d` to evaluate
    several models at once."""
    # x * x instead of x**2: Python float pow raises OverflowError where
    # IEEE multiplication yields inf, and inf is handled at the Cholesky gate
    sf2 = signal_scale * signal_scale
    if kind is KernelKind.MATERN52:
        u = np.minimum((math.sqrt(5.0) / length_scale) * d, _MAX_SCALED_DIST)
        return sf2 * (1.0 + u + u * u / 3.0) * np.exp(-u)
    if kind is KernelKind.SQUARED_EXPONENTIAL:
        s = np.minimum((d / length_scale) ** 2, _MAX_SCALED_DIST)
        return sf2 * np.exp(-s)
    raise ValueError(f"unknown kernel kind {kind!r}")


def _kernel_of_dist(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """Kernel value as a function of pairwise distance |xi - xj|."""
    return _kernel_values(spec.kind, spec.signal_scale, spec.length_scale, d)


def covariance_matrix(spec: KernelSpec, xs) -> np.ndarray:
    """Dense kernel matrix over all pairs of the input locations."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("covariance_matrix requires at least one input location")
    d = np.abs(xs[:, None] - xs[None, :])
    return _kernel_of_dist(spec, d)


def noisy_covariance(spec: KernelSpec, xs, noise_scale: float) -> np.ndarray:
    """Kernel matrix plus noise_scale**2 on the diagonal."""
    if not (noise_scale > 0.0):
        raise ValueError(f"noise_scale must be positive, got {noise_scale}")
    V = covariance_matrix(spec, xs)
    V[np.diag_indices_from(V)] += noise_scale * noise_scale
    return V


def chol_with_jitter(V: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of V, retrying with escalating diagonal jitter.

    A stack of matrices, shape (M, n, n), is factored with
    np.linalg.cholesky and no jitter: one call for the whole stack, or one
    per matrix once that call fails.  A matrix of the stack that is not
    positive definite comes back filled with NaN, for the caller to factor
    on its own.

    Raises NumericalError on non-finite input or once the ladder is
    exhausted.
    """
    n = V.shape[-1]
    if not np.all(np.isfinite(V)):
        raise NumericalError("covariance matrix contains non-finite values")
    if V.ndim == 3:
        try:
            return np.linalg.cholesky(V)
        except np.linalg.LinAlgError:
            return np.array([_cholesky_or_nan(A) for A in V])
    for jitter in _JITTERS:
        try:
            if jitter == 0.0:
                return cholesky(V, lower=True, check_finite=False)
            return cholesky(V + jitter * np.eye(n), lower=True, check_finite=False)
        except LinAlgError:
            continue
    raise NumericalError(
        f"Cholesky factorization failed for a {n}x{n} covariance matrix "
        f"even with diagonal jitter up to {_JITTERS[-1]:g}"
    )


def _cholesky_or_nan(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return np.full_like(A, np.nan)


def _augmented_covariances(offsets: np.ndarray, models) -> np.ndarray:
    """Each model's noisy kernel matrix over training inputs at `offsets`
    from the test input, followed by the test input itself (offset 0):
    an (M, n+1, n+1) stack for n offsets."""
    kind = models[0].kernel.kind
    if any(h.kernel.kind is not kind for h in models):
        raise ValueError("the models of one prediction must share a kernel kind")
    sf, ell, sn = np.array(
        [(h.kernel.signal_scale, h.kernel.length_scale, h.noise_scale) for h in models]
    ).T
    x = np.append(offsets, 0.0)
    # The kernel is evaluated once per distinct distance, then spread out.
    d, where = np.unique(np.abs(x[:, None] - x[None, :]).ravel(), return_inverse=True)
    V = _kernel_values(kind, sf[:, None], ell[:, None], d)[:, where]
    V = V.reshape(len(models), x.size, x.size)
    i = np.arange(x.size)
    V[:, i, i] += (sn * sn)[:, None]
    return V


def predictor(offsets: np.ndarray, models):
    """Per model, for training inputs at `offsets` = t* - t_i from the test
    input: the lower Cholesky factor L of the noisy kernel matrix, v = L⁻¹k*
    and the floored predictive variance, as read-only arrays of shapes
    (M, n, n), (M, n) and (M,).

    The kernel is stationary, so all three depend on the inputs only
    through these offsets: a window shifted in time has the same predictor.
    They come from one factorization of each model's covariance over the
    window plus the test input (`_augmented_covariances`): L is its leading
    block, v its last row, and the variance the square of its last diagonal
    entry.  A model whose augmented matrix is not positive definite has its
    window matrix factored on its own with the jitter ladder, and v solved
    from that factor.
    """
    n = offsets.size
    V = _augmented_covariances(offsets, models)
    F = chol_with_jitter(V)
    L = np.ascontiguousarray(F[:, :n, :n])
    v = F[:, n, :n].copy()
    var = F[:, n, n] * F[:, n, n]
    for m in np.flatnonzero(np.isnan(var)):
        L[m] = Lm = chol_with_jitter(V[m, :n, :n])
        v[m] = solve_triangular(Lm, V[m, :n, n], lower=True, check_finite=False)
        var[m] = V[m, n, n] - v[m] @ v[m]
    var = np.maximum(var, VAR_FLOOR)
    for a in (L, v, var):
        a.flags.writeable = False
    return L, v, var


def gp_predict(
    train_t,
    train_y,
    mean: MeanFunction,
    models,
    t_star: float,
    cache: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step posterior predictive of the observation at `t_star` under
    each of `models` (Hyperparameters of one kernel kind): the M means and
    the M variances, as arrays.

    The variances are in observation space: they include the noise
    variance at the test point, so the prior (empty training set) is
    signal_scale**2 + noise_scale**2.

    `cache` maps offset patterns to predictors of `models` (see
    `predictor`); it must only ever be used with one model set.  Each entry
    is a function of its key alone, so a cache can be shared by any number
    of streams.  It holds at most PREDICTOR_CACHE_SIZE entries; a full
    cache drops its least recently used entry for the new one.  Each
    model's mean is c + v·L⁻¹(y - c), solved from the residuals with the
    entry's factor, so a cached prediction equals an uncached one bit for
    bit.
    """
    ts = np.asarray(train_t, dtype=float)
    ys = np.asarray(train_y, dtype=float)
    if ts.shape != ys.shape:
        raise ValueError("train_t and train_y must have the same length")
    offsets = t_star - ts
    if cache is None:
        L, v, var = predictor(offsets, models)
    else:
        key = offsets.tobytes()
        hit = cache.pop(key, None)
        if hit is None:
            if len(cache) >= PREDICTOR_CACHE_SIZE:
                del cache[next(iter(cache))]
            hit = predictor(offsets, models)
        cache[key] = hit
        L, v, var = hit
    c = mean.constant
    if ts.size == 0:
        return np.full(var.size, c), var
    r = ys - c
    z = np.array([solve_triangular(Lm, r, lower=True, check_finite=False) for Lm in L])
    return c + np.vecdot(v, z), var


def log_marginal_likelihood(
    hyper: Hyperparameters,
    mean: MeanFunction,
    ts,
    ys,
) -> float:
    """Log marginal likelihood of the observations under the GP model.

    The quadratic form is evaluated on the mean-centered observations.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size == 0:
        raise ValueError("log_marginal_likelihood requires at least one data point")
    V = noisy_covariance(hyper.kernel, ts, hyper.noise_scale)
    L = chol_with_jitter(V)
    resid = ys - mean.constant
    alpha = cho_solve((L, True), resid, check_finite=False)
    return float(
        -0.5 * resid @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * ts.size * _LOG_2PI
    )


def _dK_dlog_length(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """Derivative of the kernel matrix w.r.t. log length_scale."""
    sf2 = spec.signal_scale * spec.signal_scale
    if spec.kind is KernelKind.MATERN52:
        u = np.minimum((math.sqrt(5.0) / spec.length_scale) * d, _MAX_SCALED_DIST)
        return sf2 * (u * u * (1.0 + u) / 3.0) * np.exp(-u)
    if spec.kind is KernelKind.SQUARED_EXPONENTIAL:
        s = np.minimum((d / spec.length_scale) ** 2, _MAX_SCALED_DIST)
        return sf2 * np.exp(-s) * 2.0 * s
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def lml_gradient(
    hyper: Hyperparameters,
    mean: MeanFunction,
    ts,
    ys,
) -> np.ndarray:
    """Gradient of the log marginal likelihood in log-parameter space.

    Components are ordered (log signal_scale, log length_scale,
    log noise_scale), matching Hyperparameters.to_log_vector.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size == 0:
        raise ValueError("lml_gradient requires at least one data point")
    spec = hyper.kernel
    d = np.abs(ts[:, None] - ts[None, :])
    noise2 = hyper.noise_scale * hyper.noise_scale
    K = _kernel_of_dist(spec, d)
    V = K + noise2 * np.eye(ts.size)
    L = chol_with_jitter(V)
    resid = ys - mean.constant
    alpha = cho_solve((L, True), resid, check_finite=False)
    V_inv = cho_solve((L, True), np.eye(ts.size), check_finite=False)
    B = np.outer(alpha, alpha) - V_inv
    dV_sig = 2.0 * K
    dV_len = _dK_dlog_length(spec, d)
    dV_noise = 2.0 * noise2 * np.eye(ts.size)
    return 0.5 * np.array(
        [np.sum(B * dV_sig), np.sum(B * dV_len), np.sum(B * dV_noise)]
    )
