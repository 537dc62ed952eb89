"""GP core tests against independent oracles.

The conditioning oracle below rebuilds the joint observation covariance
from a direct transcription of the kernel formulas and conditions it with
a full matrix inverse, so it shares no code with the Cholesky-based
prediction path it checks.
"""

import dataclasses
import itertools
import logging
import math
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.stats import multivariate_normal

from intelgp import gp
from intelgp.gp import (
    VAR_FLOOR,
    Hyperparameters,
    KernelKind,
    NumericalError,
    PredictiveDistribution,
    chol_with_jitter,
    distance_table,
    gp_predict,
    lml_gradient,
    log_marginal_likelihood,
    noisy_covariance,
    precision_table,
    predictive_distribution,
)


def predictor(offsets, table):
    """A window's predictor as its miss computes it: per model, the mean
    weights and the floored variance (`gp._window_index`)."""
    index, precision_side = gp._window_index(offsets, table.shape[-1])
    return gp._solve_windows(index, table, precision_side)


# Frozen from a 30-digit evaluation of (1 + sqrt(5) + 5/3) * exp(-sqrt(5)).
MATERN_AT_UNIT_DISTANCE = 0.5239941088318203


def oracle_kernel(hyper: Hyperparameters, a: float, b: float) -> float:
    """Direct transcription of the kernel formulas, independent of gp.py."""
    sf = hyper.signal_scale
    sl = hyper.length_scale
    r = abs(a - b)
    if hyper.kind is KernelKind.MATERN52:
        u = math.sqrt(5.0) * r / sl
        return sf * sf * (1.0 + u + u * u / 3.0) * math.exp(-u)
    return sf * sf * math.exp(-((r / sl) ** 2))


def oracle_predict(hyper, mean_const, ts, ys, t_star):
    """Condition the joint observation Gaussian by full-matrix inversion."""
    xs = list(ts) + [t_star]
    n = len(ts)
    joint = np.empty((n + 1, n + 1))
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            joint[i, j] = oracle_kernel(hyper, a, b)
    joint[np.diag_indices_from(joint)] += hyper.noise_scale**2
    if n == 0:
        return mean_const, joint[0, 0]
    V = joint[:n, :n]
    k = joint[:n, n]
    V_inv = np.linalg.inv(V)
    m = mean_const + k @ V_inv @ (np.asarray(ys) - mean_const)
    var = joint[n, n] - k @ V_inv @ k
    return float(m), float(var)


def kernel_values(hyper: Hyperparameters, d) -> np.ndarray:
    """The model's kernel at distances `d`, through the package's kernel."""
    return gp._kernel_values(hyper.kind, hyper.signal_scale, hyper.length_scale, d)


def kernel_eval(hyper: Hyperparameters, xi: float, xj: float) -> float:
    """The kernel at a pair of scalar inputs, through the package's kernel."""
    return float(kernel_values(hyper, np.abs(np.asarray(xi - xj, dtype=float))))


def kernel_row(hyper: Hyperparameters, span: int) -> np.ndarray:
    """The model's noisy kernel at the integer distances 0..span, through
    the package's kernel: entry 0 holds signal_scale**2 + noise_scale**2,
    the variance of one observation.  A covariance over the inputs 0..span
    gathers its entries from it."""
    row = kernel_values(hyper, np.arange(span + 1.0))
    row[0] += hyper.noise_scale * hyper.noise_scale
    return row


def oracle_dk_dlog_length(hyper: Hyperparameters, d) -> np.ndarray:
    """The kernel's derivative w.r.t. log length_scale at distances `d`,
    in closed form: sf²·u²(1+u)/3·e^(-u) with u = √5·d/ℓ for Matérn 5/2,
    2·s·sf²·e^(-s) with s = (d/ℓ)² for SE.  It differs from the package's
    only where the package flushes the SE kernel to 0, by under 1e-146·sf²
    (`TestOracleDerivative` checks it against central differences)."""
    sf2 = hyper.signal_scale**2
    if hyper.kind is KernelKind.MATERN52:
        u = math.sqrt(5.0) * np.asarray(d) / hyper.length_scale
        return sf2 * u**2 * (1.0 + u) / 3.0 * np.exp(-u)
    s = (np.asarray(d) / hyper.length_scale) ** 2
    return 2.0 * s * sf2 * np.exp(-s)


def oracle_lml_gradient(hyper: Hyperparameters, mean, ts, ys) -> np.ndarray:
    """The LML gradient from the full-matrix formula tr(B dV)/2, with
    B = ααᵀ - V⁻¹, V⁻¹ from the Cholesky factor, and every dV built as an
    n x n matrix, the length derivative's from `oracle_dk_dlog_length`."""
    ts = np.asarray(ts, dtype=float)
    d = np.abs(ts[:, None] - ts[None, :])
    noise2 = hyper.noise_scale**2
    K = kernel_values(hyper, d)
    L = chol_with_jitter(K + noise2 * np.eye(ts.size))
    alpha = cho_solve((L, True), np.asarray(ys) - mean)
    B = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(ts.size))
    dV = (2.0 * K, oracle_dk_dlog_length(hyper, d), 2.0 * noise2 * np.eye(ts.size))
    return 0.5 * np.array([np.sum(B * dv) for dv in dV])


def gradient(hyper: Hyperparameters, mean, ts, ys) -> np.ndarray:
    """The package's LML gradient at the inputs `ts`."""
    return lml_gradient(hyper, mean, distance_table(ts), ys)[1]


def table_for(models, ts, t_star):
    """The models' precision table over every distance between the times."""
    return precision_table(models, int(np.ptp(np.append(ts, t_star))))


def predict(ts, ys, mean, models, t_star):
    """The models' predictive means and variances, uncached."""
    offsets = tuple(np.subtract(t_star, ts).tolist())
    return gp_predict(offsets, ys, mean, table_for(models, ts, t_star), {})


def predict_one(ts, ys, mean, hyper, t_star):
    """One model's predictive (mean, variance) from the batched predictor."""
    means, variances = predict(ts, ys, mean, (hyper,), t_star)
    return float(means[0]), float(variances[0])


def random_hyper(rng) -> Hyperparameters:
    kind = KernelKind.MATERN52 if rng.random() < 0.5 else KernelKind.SQUARED_EXPONENTIAL
    return Hyperparameters(
        kind,
        signal_scale=math.exp(rng.uniform(-1.5, 1.5)),
        length_scale=math.exp(rng.uniform(-1.0, 2.0)),
        noise_scale=math.exp(rng.uniform(-3.0, 0.0)),
    )


class TestPredictiveDistribution:
    def test_numpy_scalars_stored_as_python_floats(self):
        pred = PredictiveDistribution(np.float64(0.25), np.float32(2.0))
        assert (type(pred.mean), type(pred.variance)) == (float, float)
        assert (pred.mean, pred.variance, pred.std) == (0.25, 2.0, math.sqrt(2.0))

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, np.float64(math.nan)])
    def test_non_positive_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="variance must be positive"):
            PredictiveDistribution(0.0, variance)

    def test_slot_built_equals_constructed(self):
        pred = predictive_distribution(-0.5, 2.0)
        assert type(pred) is PredictiveDistribution
        assert pred == PredictiveDistribution(-0.5, 2.0)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan])
    def test_slot_built_rejects_non_positive_variance(self, variance):
        with pytest.raises(ValueError, match="variance must be positive"):
            predictive_distribution(0.0, variance)


class TestKernelEval:
    def test_matern_zero_distance_is_signal_variance(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 2.0, 1.0, 0.1)
        assert kernel_eval(hyper, 5.0, 5.0) == 4.0

    def test_se_unit_distance(self):
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1.0, 0.1)
        assert kernel_eval(hyper, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_matern_unit_distance_frozen_value(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.1)
        assert kernel_eval(hyper, 0.0, 1.0) == pytest.approx(
            MATERN_AT_UNIT_DISTANCE, abs=1e-15
        )

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            hyper = random_hyper(rng)
            a, b = rng.uniform(-50, 50, size=2)
            k_ab = kernel_eval(hyper, a, b)
            k_ba = kernel_eval(hyper, b, a)
            assert k_ab == k_ba
            assert abs(k_ab) <= hyper.signal_scale**2

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError, match="signal_scale"):
            Hyperparameters(KernelKind.MATERN52, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="length_scale"):
            Hyperparameters(KernelKind.MATERN52, 1.0, -2.0, 0.1)

    def test_kind_that_is_not_a_kernel_kind_rejected(self):
        with pytest.raises(ValueError, match="KernelKind"):
            Hyperparameters("se", 1.0, 1.0, 1.0)


class TestCovarianceMatrix:
    def test_single_point(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 2.0, 1.0, 0.5)
        np.testing.assert_allclose(noisy_covariance(hyper, [3.0]), [[4.25]])

    def test_off_diagonal_matches_kernel_eval(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.1)
        V = noisy_covariance(hyper, [0.0, 1.0])
        assert V[0, 1] == kernel_eval(hyper, 0.0, 1.0)
        assert V[1, 0] == V[0, 1]

    def test_positive_semidefinite(self):
        # The kernel part is positive semidefinite, so no eigenvalue falls
        # below the noise variance.
        rng = np.random.default_rng(1)
        for _ in range(20):
            hyper = random_hyper(rng)
            xs = np.sort(rng.uniform(0, 30, size=6))
            eigs = np.linalg.eigvalsh(noisy_covariance(hyper, xs))
            assert eigs.min() >= hyper.noise_scale**2 - 1e-10


class TestNoisyCovariance:
    def test_scalar_case(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.5)
        np.testing.assert_allclose(noisy_covariance(hyper, [0.0]), [[1.25]])

    def test_diagonal_shift_is_noise_variance(self):
        rng = np.random.default_rng(2)
        hyper = random_hyper(rng)
        xs = rng.uniform(0, 20, size=7)
        K = kernel_values(hyper, np.abs(xs[:, None] - xs[None, :]))
        V = noisy_covariance(dataclasses.replace(hyper, noise_scale=0.3), xs)
        np.testing.assert_allclose(np.diag(V) - np.diag(K), 0.09, atol=1e-15)
        off = ~np.eye(7, dtype=bool)
        np.testing.assert_allclose(V[off], K[off])

    def test_cholesky_succeeds_on_random_windows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            hyper = random_hyper(rng)
            xs = np.sort(rng.uniform(0, 100, size=20))
            V = noisy_covariance(hyper, xs)
            L = chol_with_jitter(V)
            assert np.all(np.isfinite(L))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_scale"):
            Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.0)


class TestGpPredict:
    def test_empty_training_set_returns_prior(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.1)
        mean, var = predict_one([], [], 0.0, hyper, 7.0)
        assert mean == 0.0
        assert var == pytest.approx(1.01, abs=1e-15)

    def test_matches_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            hyper = random_hyper(rng)
            n = rng.integers(1, 6)
            ts = np.sort(rng.choice(21, size=n, replace=False)).astype(float)
            ys = rng.normal(size=n)
            c = rng.normal()
            t_star = float(ts[-1] + rng.integers(1, 4))
            mean, var = predict_one(ts, ys, c, hyper, t_star)
            m_ref, v_ref = oracle_predict(hyper, c, ts, ys, t_star)
            assert mean == pytest.approx(m_ref, abs=1e-8)
            assert var == pytest.approx(v_ref, abs=1e-8)

    def test_variance_monotone_in_training_points(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            hyper = random_hyper(rng)
            n = rng.integers(2, 9)
            ts = np.sort(rng.choice(16, size=n, replace=False)).astype(float)
            ys = rng.normal(size=n)
            t_star = float(ts[-1] + 1.0)
            mean = 0.0
            _, var_subset = predict_one(ts[:-1], ys[:-1], mean, hyper, t_star)
            _, var_full = predict_one(ts, ys, mean, hyper, t_star)
            assert var_full <= var_subset + 1e-10

    def test_variance_floor(self):
        # At a length scale of 1e7 one step ahead is nearly the training
        # point itself: the computed variance, about 2e-14, is floored.
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e7, 1e-9)
        _, var = predict_one([0.0], [0.5], 0.0, hyper, 1.0)
        assert var >= VAR_FLOOR

    def test_length_mismatch_rejected(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            gp_predict((2.0, 1.0), [0.5], 0.0, precision_table((hyper,), 2), {})

    def test_mixed_kernel_kinds_rejected(self):
        models = (
            Hyperparameters(KernelKind.MATERN52, 1.0, 1.0, 0.1),
            Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1.0, 0.1),
        )
        with pytest.raises(ValueError, match="share a kernel kind"):
            precision_table(models, 2)

    def test_an_empty_model_set_rejected(self):
        with pytest.raises(ValueError, match="at least one model"):
            precision_table((), 2)


@st.composite
def batched_cases(draw):
    """A model set of one kernel kind, a window of up to 20 of the 40 times
    before t* = 1000 (so it can have gaps), its values, a mean constant and
    an integer time shift."""
    kind = draw(st.sampled_from(list(KernelKind)))
    n_models = draw(st.sampled_from([1, 2, 8, 27]))
    log_scales = st.tuples(
        st.floats(-1.5, 1.5), st.floats(-1.0, 2.0), st.floats(-3.0, 0.0)
    )
    models = tuple(
        Hyperparameters(kind, math.exp(f), math.exp(l), math.exp(n))
        for f, l, n in draw(st.lists(log_scales, min_size=n_models, max_size=n_models))
    )
    offsets = draw(st.lists(st.integers(1, 40), max_size=20, unique=True))
    ts = np.sort(1000.0 - np.array(offsets, dtype=float))
    ys = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=ts.size, max_size=ts.size)))
    c = draw(st.floats(-2.0, 2.0))
    shift = draw(st.integers(-1_000_000, 1_000_000))
    return models, ts, ys, c, shift


def fixed_case(n_models, offsets):
    """A case of the shape `batched_cases` draws, for window lengths and
    model counts that must always be covered."""
    hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 5.0, 0.1)
    factors = (1.0, 0.2, 5.0)
    models = tuple(
        hyper.scaled(f=f, l=l, n=n) for f in factors for l in factors for n in factors
    )[:n_models]
    ts = np.sort(1000.0 - np.array(list(offsets), dtype=float))
    return models, ts, np.sin(ts), 0.3, 12_345


def as_bytes(prediction):
    means, variances = prediction
    return means.tobytes(), variances.tobytes()


class TestBatchedPredictor:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batched_cases())
    @example(fixed_case(27, []))
    @example(fixed_case(1, [1]))
    @example(fixed_case(2, [3]))
    @example(fixed_case(8, range(1, 21)))
    @example(fixed_case(27, range(1, 40, 2)))
    @example(fixed_case(27, range(1, 37, 2)))
    def test_matches_oracle_cache_and_time_shift(self, case):
        # On the table over 0..40 the window's positions S, the test's and
        # the rest R make 41.  range(1, 40, 2), |S| = |R| = 20, solves a
        # 21x21 system of the precision per model; range(1, 37, 2), |S| =
        # 18, a 19x19 system of the covariance.
        models, ts, ys, mean, shift = case
        table = precision_table(models, 40)
        offsets = tuple((1000.0 - ts).tolist())
        uncached = gp_predict(offsets, ys, mean, table, {})
        means, variances = uncached
        assert means.shape == variances.shape == (len(models),)
        for h, m, v in zip(models, means, variances):
            m_ref, v_ref = oracle_predict(h, mean, ts, ys, 1000.0)
            assert m == pytest.approx(m_ref, abs=1e-8)
            assert v == pytest.approx(v_ref, abs=1e-8)
        cache = {}
        for _ in range(2):  # a miss, then a hit
            cached = gp_predict(offsets, ys, mean, table, cache)
            assert as_bytes(cached) == as_bytes(uncached)
        moved = (1000.0 + shift) - (ts + shift)
        shifted = gp_predict(tuple(moved.tolist()), ys, mean, table, {})
        assert as_bytes(shifted) == as_bytes(uncached)
        # Each model's row is the one its own precision table gives, bit
        # for bit: it does not depend on the other models of the set.
        for m, h in enumerate(models):
            alone = gp_predict(offsets, ys, mean, precision_table((h,), 40), {})
            assert as_bytes(alone) == (means[m:m + 1].tobytes(), variances[m:m + 1].tobytes())

    @pytest.mark.parametrize("order, n", [("C", 1), ("F", 1), ("F", 7)])
    def test_direct_solve_matches_scipy(self, order, n):
        # A single factor comes from `cholesky` (LAPACK potrf) in the jitter
        # ladder, Fortran-ordered; a 1x1 factor is C-ordered as well.
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        L = np.asarray(np.linalg.cholesky(A @ A.T + n * np.eye(n)), order=order)
        b = rng.standard_normal(n)
        want = solve_triangular(L, b, lower=True)
        assert gp.solve_triangular(L, b).tobytes() == want.tobytes()

    def test_predictor_arrays_are_read_only(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 2.0, 0.1)
        a, var = predictor(np.array([3, 2, 1]), precision_table((hyper, hyper.scaled(l=0.2)), 3))
        for x in (a, var):
            assert not x.flags.writeable

    def test_full_cache_holds_no_factors(self):
        # Each entry is the (M, n) mean weights and the (M,) variances.
        # 64 entries of M tau x tau factors would take 64·M·tau²·8 bytes;
        # a full cache of entries without a factor stays below that.
        tau, hyper = 20, Hyperparameters(KernelKind.MATERN52, 1.0, 5.0, 0.1)
        factors = (1.0, 0.5, 2.0)
        models = tuple(
            hyper.scaled(f=f, l=l, n=n) for f in factors for l in factors for n in factors
        )
        table = precision_table(models, 40)
        rng = np.random.default_rng(0)
        cache = {}
        while len(cache) < gp.PREDICTOR_CACHE_SIZE:
            ts = np.sort(1000.0 - rng.choice(np.arange(1.0, 41.0), tau, replace=False))
            gp_predict(tuple((1000.0 - ts).tolist()), np.sin(ts), 0.0, table, cache)
        total = 0
        for a, var in cache.values():
            assert a.shape == (len(models), tau)
            assert var.shape == (len(models),)
            total += a.nbytes + var.nbytes
        assert total < 64 * len(models) * tau**2 * 8


def exact_predictor(kernel_row, offsets, jitter=0.0):
    """Mean weights and predictive variance by Gaussian elimination in
    50-digit decimal arithmetic, on the float covariance entries the
    package works with: `kernel_row` is one model's `kernel_row(hyper, span)`,
    `jitter` is added to the training inputs' diagonal.  Shares no linear
    algebra with the package, and its own rounding is far below a float's."""
    x = [int(o) for o in offsets] + [0]
    n = len(offsets)
    with localcontext() as ctx:
        ctx.prec = 50
        V = [[Decimal(float(kernel_row[abs(p - q)])) for q in x] for p in x]
        for i in range(n):
            V[i][i] += Decimal(jitter)
        A = [row[:n] + [row[n]] for row in V[:n]]  # [V_WW | k*]
        for i in range(n):
            for j in range(i + 1, n):
                f = A[j][i] / A[i][i]
                for k in range(i, n + 1):
                    A[j][k] -= f * A[i][k]
        a = [Decimal(0)] * n
        for i in reversed(range(n)):
            a[i] = (A[i][n] - sum(A[i][k] * a[k] for k in range(i + 1, n))) / A[i][i]
        var = V[n][n] - sum(V[n][i] * a[i] for i in range(n))
    return np.array([float(v) for v in a]), float(var)


def window_condition(kernel_row, span, jitter=0.0):
    """cond(V_F) of one model's noisy covariance over the inputs 0..span."""
    x = np.arange(span + 1)
    return np.linalg.cond(kernel_row[np.abs(x[:, None] - x)] + jitter * np.eye(span + 1))


EPS = np.finfo(float).eps


class TestBadConditioning:
    """Both sides of the predictor lose about cond(V_F)·eps, V_F the
    covariance over the offsets 0..span of the table: a long SE length
    scale with small noise is its worst case.  Checked against the
    50-digit oracle above."""

    # Per window, the span of its table and the offsets.  The window's
    # positions S, the test's and the rest R fill 0..span; the predictor
    # solves with the precision if |R| <= |S|, else with the covariance.
    WINDOWS = {
        "contiguous": (20, 20 - np.arange(20)),
        "gapped": (20, np.array([20, 18, 17, 13, 12, 11, 7, 4, 3, 1])),
        # Training times after t*, so negative offsets: the inputs span
        # -8..12 and sit at positions 0..20 of the table.
        "both_sides": (20, np.array([12, 11, 9, 5, 3, 1, -1, -2, -4, -8])),
        # Right after a change point: the n_outliers = 3 points of the new
        # regime, |R| = 17, so the covariance side.
        "three_points": (20, np.array([3, 2, 1])),
        # |R| = |S| + 1 = 11, the covariance side next to the precision
        # side.  |R| + |S| is the span, so this needs an odd one.
        "one_more_rest": (21, np.array([21, 19, 18, 14, 12, 11, 8, 5, 3, 1])),
    }

    @pytest.mark.parametrize("length, noise, cond", [(20.0, 1e-3, 1.8e7), (50.0, 1e-4, 2.0e9)])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_matches_the_exact_conditioning_within_cond_eps(self, length, noise, cond, window):
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, length, noise)
        row = kernel_row(hyper, 21)  # its first 21 entries are the span-20 row
        assert window_condition(row, 20) == pytest.approx(cond, rel=0.05)
        span, offsets = self.WINDOWS[window]
        measured = window_condition(row, span)
        a, var = predictor(offsets, precision_table((hyper,), span))
        a_ref, var_ref = exact_predictor(row, offsets)
        assert np.abs(a[0] - a_ref).sum() <= measured * EPS
        assert abs(var[0] - var_ref) <= measured * EPS * var_ref


class TestStackedSolve:
    """`solve_triangular` with a matrix right-hand side, a stack of k
    right-hand sides as columns, the way `precision_table` solves for L⁻¹
    with the identity."""

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("n_models", [1, 3])
    def test_each_row_matches_scipy_and_the_inputs_are_kept(self, n, n_models):
        rng = np.random.default_rng([n_models, n])
        A = rng.standard_normal((n, n))
        L = chol_with_jitter(A @ A.T + (n + 1) * np.eye(n))
        b = rng.standard_normal((n, n_models))
        before = L.tobytes(), b.tobytes()
        x = gp.solve_triangular(L, b)
        assert x.shape == (n, n_models)
        want = solve_triangular(L, b, lower=True)
        assert x.tobytes() == want.tobytes()
        assert (L.tobytes(), b.tobytes()) == before

    def test_trtrs_takes_lower_first(self):
        # solve_triangular passes lower positionally; a wrapper that orders
        # its optional arguments otherwise would solve another system
        # without an error.
        signature = gp._trtrs.__doc__.splitlines()[0]
        assert signature.startswith("x,info = dtrtrs(a,b,[lower,"), (
            f"scipy's trtrs wrapper reads {signature!r}: the positional lower "
            "argument of gp.solve_triangular no longer fits it"
        )


class TestBandedStack:
    """`chol_with_jitter` over a stack: the blocks on the band of one
    block-diagonal matrix, factored by one LAPACK pbtrf call, and a miss
    solving with one pbtrs call."""

    @staticmethod
    def stack(n_models, n):
        rng = np.random.default_rng([n_models, n])
        A = rng.standard_normal((n_models, n, n))
        return A @ A.transpose(0, 2, 1) + n * np.eye(n)

    def test_each_block_is_its_own_factor(self):
        V = self.stack(4, 5)
        factor = chol_with_jitter(V)
        assert factor.shape == (5, 25) and factor.flags.f_contiguous
        for m, V_m in enumerate(V):
            L = np.linalg.cholesky(V_m)
            band = np.array([np.append(np.diag(L, -i), np.zeros(i)) for i in range(5)])
            np.testing.assert_allclose(factor[:, 5 * m:5 * m + 5], band, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(factor[:, 20:], np.eye(5, 1).repeat(5, axis=1))

    @pytest.mark.parametrize("m", [0, 2, 4])
    @pytest.mark.parametrize("fault", ["indefinite", "nan_pivot", "nan_below"])
    def test_a_failing_block_names_its_model(self, m, fault):
        V = self.stack(5, 4)
        if fault == "indefinite":
            V[m] = np.diag([1.0, 1.0, -1.0, 1.0])
        elif fault == "nan_pivot":
            V[m, 1, 1] = np.nan
        else:
            V[m, 3, 1] = V[m, 1, 3] = np.nan
        with pytest.raises(NumericalError, match=f"model {m} of a stack of 4x4"):
            chol_with_jitter(V)

    @pytest.mark.parametrize("name, signature", [
        ("_pbtrf", "c,info = dpbtrf(ab,[lower,ldab,"),
        ("_pbtrs", "x,info = dpbtrs(ab,b,[lower,ldab,"),
    ])
    def test_pbtrf_and_pbtrs_take_lower_first(self, name, signature):
        # The miss path passes lower positionally; a wrapper that orders
        # its optional arguments otherwise would read the band as upper
        # storage without an error.
        first = getattr(gp, name).__doc__.splitlines()[0]
        assert first.startswith(signature), (
            f"scipy's {name[1:]} wrapper reads {first!r}: the positional lower "
            "argument of the miss path no longer fits it"
        )

    @pytest.mark.parametrize("n_models", [1, 2, 27])
    @pytest.mark.parametrize("offsets", [[3, 2, 1], [20, 18, 15, 11, 10, 9, 6, 4, 2, 1], []])
    def test_a_miss_factors_and_solves_once_whatever_the_model_count(
        self, monkeypatch, n_models, offsets
    ):
        table = precision_table(fixed_case(n_models, [])[0], 20)
        calls = Counter()
        for name in ("chol_with_jitter", "_pbtrf", "_pbtrs"):
            def counted(*args, _name=name, _original=getattr(gp, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gp, name, counted)
        predictor(np.array(offsets, dtype=np.int64), table)
        assert calls == {"chol_with_jitter": 1, "_pbtrf": 1, "_pbtrs": 1}


class TestWrappedNames:
    """A miss, a fill and `precision_table` call the LAPACK helpers by their
    module-level names, so that code replacing those names (a tracer, say)
    sees every call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("solve_triangular", "chol_with_jitter"):
            def counted(*args, _name=name, _original=getattr(gp, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gp, name, counted)
        return counts

    def test_a_miss_factors_once_and_a_hit_not_at_all(self, calls):
        models = fixed_case(27, [])[0]
        table = precision_table(models, 20)
        calls.clear()
        ts = np.array([981, 982, 984, 985, 988, 990, 991, 995, 996, 999])
        cache = {}
        gp_predict(tuple((1000 - ts).tolist()), np.sin(ts), 0.1, table, cache)
        assert calls == {"chol_with_jitter": 1}
        calls.clear()
        gp_predict(tuple((1007 - (ts + 7)).tolist()), np.cos(ts), 0.1, table, cache)
        assert calls == {}

    def test_a_fill_factors_once_and_its_windows_then_hit(self, calls):
        # At M=2 and tau=20 both gap classes fit, each one batch, and the
        # 17 windows a change point regrows outside them are one each.
        table = precision_table(fixed_case(2, [])[0], 20)
        calls.clear()
        cache = gp.gap_fill(table)
        assert calls == {"chol_with_jitter": 2 + 17} and len(cache) == 20 + 190 + 17
        calls.clear()
        for key in list(cache):
            gp_predict(key, np.cos(key), 0.1, table, cache)
        assert calls == {} and len(cache) == 20 + 190 + 17

    def test_the_build_factors_and_solves_once_per_model(self, calls):
        models = (TestStackFallback.GOOD, TestStackFallback.BAD, TestStackFallback.GOOD)
        precision_table(models, 20)
        assert calls == {"solve_triangular": 3, "chol_with_jitter": 3}


class TestKernelTable:
    MODELS = (
        Hyperparameters(KernelKind.MATERN52, 1.3, 4.0, 0.2),
        Hyperparameters(KernelKind.MATERN52, 0.7, 0.8, 0.05),
    )

    def test_covariance_row_zero_is_the_noisy_kernel_at_integer_distances(self):
        covariance = precision_table(self.MODELS, 6)[1]
        for m, h in enumerate(self.MODELS):
            row = kernel_row(h, 6)
            assert covariance[m, 0].tobytes() == row.tobytes()
            assert row[1:].tobytes() == kernel_values(h, np.arange(1.0, 7.0)).tobytes()
            assert row[0] == h.signal_scale**2 + h.noise_scale**2

    def test_precision_is_the_symmetric_inverse_of_the_window_covariance(self):
        table = precision_table(self.MODELS, 6)
        assert table.shape == (2, 2, 7, 7)
        assert not table.flags.writeable
        precision, covariance = table
        x = np.arange(7)
        for m, h in enumerate(self.MODELS):
            row = kernel_row(h, 6)
            V = row[np.abs(x[:, None] - x)]
            assert covariance[m].tobytes() == V.tobytes()
            assert precision[m].tobytes() == precision[m].T.tobytes()
            cond = window_condition(row, 6)
            np.testing.assert_allclose(precision[m] @ V, np.eye(7), rtol=0, atol=cond * EPS)

    def test_empty_window_predicts_the_prior_from_column_zero(self):
        # The prior is entry 0 of the kernel row, up to the rounding of the
        # precision, which marginalises the inputs 1..span out.
        table = precision_table(self.MODELS, 3)
        rows = [kernel_row(h, 3) for h in self.MODELS]
        prior = np.array([row[0] for row in rows])
        cond = [window_condition(row, 3) for row in rows]
        cache = {}
        for c in ({}, cache, cache):  # uncached, a miss, a hit
            means, variances = gp_predict((), (), 0.4, table, c)
            assert means.tolist() == [0.4, 0.4]
            assert np.all(np.abs(variances - prior) <= np.multiply(cond, EPS) * prior)
        assert list(cache) == [()]

    @pytest.mark.parametrize(
        "offsets",
        [(2.5, 1), (2, np.float64(1.5)), (2, 1.0000001), (2, np.nan), (np.inf, 1), ("3", 1),
         (2, None)],
    )
    def test_non_integer_offsets_rejected(self, offsets):
        table = precision_table(self.MODELS, 5)
        cache = {"x": None}
        with pytest.raises(ValueError, match="integers"):
            gp_predict(offsets, [0.1, 0.2], 0.0, table, cache)
        assert cache == {"x": None}

    def test_offset_beyond_the_span_rejected(self):
        table = precision_table(self.MODELS, 5)
        cache = {b"x": None}
        with pytest.raises(ValueError, match="span 5"):
            gp_predict((6, 5), [0.1, 0.2], 0.0, table, cache)
        with pytest.raises(ValueError, match="span 5"):
            gp_predict((-2, -6), [0.1, 0.2], 0.0, table, {})
        assert list(cache) == [b"x"]  # a failed miss evicts and stores nothing
        gp_predict((5, 4), [0.1, 0.2], 0.0, table, cache)

    @pytest.mark.parametrize("offsets", [(2, 1, 0, -1, -2), (2, 2)])
    def test_repeated_time_rejected(self, offsets):
        # Two inputs on one position would make a singular covariance.
        table = precision_table(self.MODELS, 5)
        with pytest.raises(ValueError, match="distinct"):
            gp_predict(offsets, np.zeros(len(offsets)), 0.0, table, {})

    @pytest.mark.parametrize("first", [int, np.int32, np.uint32, float])
    def test_integer_types_of_one_window_share_one_entry(self, first):
        # Equal keys hash alike: whichever type misses first, the others
        # hit its entry, with the bits of an int window's miss.
        table = precision_table(self.MODELS, 5)
        want = as_bytes(gp_predict((5, 2), [0.1, 0.2], 0.0, table, {}))
        cache = {}
        for cast in (first, int, np.int32, np.uint32, float, np.float64):
            offsets = (cast(5), cast(2))
            assert as_bytes(gp_predict(offsets, [0.1, 0.2], 0.0, table, cache)) == want
        assert list(cache) == [(5, 2)] and type(next(iter(cache))[0]) is first

    @pytest.mark.parametrize("scale", ["f", "n"])
    def test_non_finite_table_raises_without_a_warning(self, scale):
        # A signal or noise variance that overflows to inf.
        huge = self.MODELS[0].scaled(**{scale: 1e200})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                precision_table((self.MODELS[0], huge), 5)

    def test_wider_table_agrees_within_cond_eps(self):
        # A wider table marginalises more inputs out, with other rounding:
        # each is within its cond·eps of the exact predictor.
        models = fixed_case(27, [])[0]
        narrow, wide = precision_table(models, 20), precision_table(models, 40)
        cond = sum(
            np.array([window_condition(kernel_row(h, span), span) for h in models])
            for span in (20, 40)
        )
        rng = np.random.default_rng(7)
        for n in (0, 1, 5, 13, 20):
            offsets = np.sort(rng.choice(np.arange(1, 21), size=n, replace=False))[::-1]
            a_narrow, var_narrow = predictor(offsets, narrow)
            a_wide, var_wide = predictor(offsets, wide)
            assert np.all(np.abs(a_narrow - a_wide).sum(axis=1) <= cond * EPS)
            assert np.all(np.abs(var_narrow - var_wide) <= cond * EPS * var_wide)


@st.composite
def offset_patterns(draw):
    """Two models of one kind, a table span, and window offsets around the
    test time: distinct positions in one stretch of the span, before and
    after the test time, then maybe one fault appended (a repeated time,
    the test time itself, or an offset up to 3 past either end)."""
    kind = draw(st.sampled_from(list(KernelKind)))
    log_scales = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.5), st.floats(-2.5, -0.5))
    models = tuple(
        Hyperparameters(kind, math.exp(f), math.exp(l), math.exp(n))
        for f, l, n in draw(st.lists(log_scales, min_size=2, max_size=2))
    )
    span = draw(st.integers(1, 12))
    low = draw(st.integers(-span, 0))
    positions = draw(st.lists(st.integers(0, span), max_size=span + 1, unique=True))
    offsets = [p + low for p in positions if p + low != 0]
    fault = draw(st.sampled_from(["none", "repeat", "test_time", "beyond"]))
    if fault == "repeat" and offsets:
        offsets.append(draw(st.sampled_from(offsets)))
    elif fault == "test_time":
        offsets.insert(draw(st.integers(0, len(offsets))), 0)
    elif fault == "beyond":
        offsets.append(draw(st.sampled_from([low - 1, low + span + 1])) + draw(st.integers(-1, 3)))
    return models, span, offsets


def pattern(span, offsets):
    """An `offset_patterns` case of Matérn models for shapes that must
    always be covered."""
    models = (TestKernelTable.MODELS[0], TestKernelTable.MODELS[0].scaled(l=0.5))
    return models, span, offsets


class TestMissBookkeeping:
    """A predictor miss over any offsets: the documented ValueError with
    the cache left as it was, or the exact conditioning within cond·eps."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(offset_patterns())
    @example(pattern(6, []))  # empty window
    @example(pattern(6, [3, 2, 1]))  # |R| = 3 > |S|: the covariance side
    @example(pattern(6, [6, 5, 3, 2, 1]))  # |R| = 1 <= |S|: the precision side, paired
    @example(pattern(6, [5, 6, 3, 2, 1]))  # the oldest offset not first: not paired
    @example(pattern(6, [2, 1, -1, -3]))  # training times after the test time
    @example(pattern(6, [-6]))  # the test time at position 6
    @example(pattern(6, [7]))  # one past the span
    @example(pattern(6, [4, -3]))  # both ends inside, their distance past it
    @example(pattern(6, [3, 2, 3]))  # a repeated time
    @example(pattern(6, [2, 0, 1]))  # the test time in the window
    @example(pattern(6, [9, 9]))  # both faults: the span is checked first
    def test_raises_and_keeps_the_cache_or_matches_the_exact_conditioning(self, case):
        models, span, offsets = case
        table = precision_table(models, span)
        offsets = np.array(offsets, dtype=np.int64)
        t_star = 1_000
        ts = t_star - offsets
        key = tuple(offsets.tolist())
        cache = {b"x": None}
        x = [*offsets.tolist(), 0]
        if max(x) - min(x) > span:
            error = f"span {span}"
        elif len(set(x)) < len(x):
            error = "distinct"
        else:
            error = None
        if error is not None:
            with pytest.raises(ValueError, match=error):
                predictor(offsets, table)
            with pytest.raises(ValueError, match=error):
                gp_predict(key, np.sin(ts), 0.2, table, cache)
            assert cache == {b"x": None}
            return
        a, var = predictor(offsets, table)
        assert a.shape == (len(models), offsets.size) and var.shape == (len(models),)
        for m, h in enumerate(models):
            row = kernel_row(h, span)
            assert table[1, m, 0, 0] == row[0]  # no jitter: the oracle needs none
            # Well-conditioned tables leave a few roundings, not cond·eps:
            # 3 ulps of the variance at span 1 and cond 1.5.  The bound
            # allows one cond·eps per input for the table's inverse and for
            # the miss's solve.
            tolerance = 2 * (span + 1) * window_condition(row, span) * EPS
            a_ref, var_ref = exact_predictor(row, offsets)
            assert np.abs(a[m] - a_ref).sum() <= tolerance
            assert abs(var[m] - var_ref) <= tolerance * var_ref
        means, variances = gp_predict(key, np.sin(ts), 0.2, table, cache)
        # The miss adds its own entry, and its slide's where it pairs.
        slide = paired_slide(key, span)
        assert list(cache) == [b"x", key] + ([slide] if slide else [])
        hit_a, hit_var = cache[key]
        assert (hit_a.tobytes(), hit_var.tobytes()) == (a.tobytes(), var.tobytes())
        assert means.tobytes() == (0.2 + np.vecdot(a, np.sin(ts) - 0.2)).tobytes()
        assert variances.tobytes() == var.tobytes()
        if slide:
            assert_own_miss(cache[slide], slide, table)


def gap_class(span, gaps):
    """The windows of the offsets 1..span less `gaps` of them, as the
    engine keys them: tuples of ints in descending order."""
    full = range(span, 0, -1)
    return {
        tuple(p for p in full if p not in holes)
        for holes in itertools.combinations(full, gaps)
    }


def change_point_windows(span):
    """The windows a change point regrows within the offsets 1..span, the
    newest n..1 for n < span, as the engine keys them."""
    return {tuple(range(n, 0, -1)) for n in range(1, span)}


def gather_floats(span, n):
    """Floats one model's system gathers for a window of n offsets within
    1..span: the span + 1 rows of its gaps and the test position where the
    gaps are no more than the offsets, else its offsets' and the test
    position's n + 1 rows and columns."""
    gaps = span - n
    return (span + 1) * (gaps + 1) if gaps <= n else (n + 1) ** 2


def paired_slide(key, span):
    """The window a miss of the valid window `key` also solves, or None:
    its next slide, the other offsets one older and the new offset 1,
    where the key holds the oldest offset `span` first, has at least one
    gap and no more gaps than offsets, and the two gather no more floats
    per model than the widest window of the span."""
    n = len(key)
    widest = max(gather_floats(span, m) for m in range(span + 1))
    if not (n and key[0] == span and 0 < span - n <= n and 2 * gather_floats(span, n) <= widest):
        return None
    return tuple(x + 1 for x in key[1:]) + (1,)


def assert_own_miss(entry, key, table):
    """A cache entry holds the bits, shapes and flags of its key's miss,
    and read back through `gp_predict` gives the miss's bits: it may be a
    view of a batch's rows."""
    a, var = entry
    assert all(type(v) is int for v in key)
    want_a, want_var = predictor(key, table)
    assert a.shape == want_a.shape and var.shape == want_var.shape
    assert not a.flags.writeable and not var.flags.writeable
    assert a.tobytes() == want_a.tobytes()
    assert var.tobytes() == want_var.tobytes()
    ys = np.sin(np.arange(len(key)) + 0.5)
    assert as_bytes(gp_predict(key, ys, 0.3, table, {key: entry})) == as_bytes(
        (0.3 + np.vecdot(want_a, ys - 0.3), want_var)
    )


class TestGapClassFill:
    """`gap_fill` gives the entries of every window of the offsets 1..span
    less one or two of them, each such class whose gather fits the cap, and
    of every window a change point regrows, and a miss fills no class."""

    @pytest.mark.parametrize("n_models", [1, 2, 8, 27])
    @pytest.mark.parametrize("span, gaps", [
        (span, gaps) for span in (1, 2, 3, 6, 20) for gaps in (1, 2) if gaps <= span
    ])
    def test_every_entry_is_its_own_miss_bit_for_bit(self, monkeypatch, n_models, span, gaps):
        # Spans 1 to 3 take both sides: the empty window, and systems of
        # the covariance where the gaps outnumber the window's offsets.
        # Without the gather cap, every class is filled, in one batch of
        # up to 190 windows of 27 models.
        monkeypatch.setattr(gp, "_FILL_GATHER", 1 << 30)
        table = precision_table(fixed_case(n_models, [])[0], span)
        filled = gp.gap_fill(table)
        assert set(filled) == set().union(
            *(gap_class(span, g) for g in (1, 2) if g <= span), change_point_windows(span)
        )
        for key in gap_class(span, gaps):
            assert_own_miss(filled[key], key, table)

    @pytest.mark.parametrize("n_models", [1, 2, 8, 27])
    @pytest.mark.parametrize("span", range(1, 21))
    def test_every_change_point_entry_is_its_own_miss_bit_for_bit(self, n_models, span):
        # Under the default cap: the windows n..1 that no class holds are
        # solved one by one, each on the side its own miss takes.
        table = precision_table(fixed_case(n_models, [])[0], span)
        filled = gp.gap_fill(table)
        assert change_point_windows(span) <= set(filled)
        assert tuple(range(span, 0, -1)) not in filled  # the full window: the first miss
        for key in change_point_windows(span):
            assert_own_miss(filled[key], key, table)

    @pytest.mark.parametrize("span, gaps", [
        (span, gaps) for span in range(1, 21) for gaps in (1, 2) if gaps <= span
    ])
    def test_a_class_index_is_the_stack_of_its_windows_indices(self, span, gaps):
        # Worked out from the gaps of the whole class, it equals one
        # `_window_index` call per window, stacked, dtype included.
        keys, index, precision_side = gp._gap_class(span, gaps)
        full = range(span, 0, -1)
        assert keys == tuple(
            tuple(p for p in full if p not in holes)
            for holes in itertools.combinations(full, gaps)
        )
        assert all(type(v) is int for key in keys for v in key)
        indices, sides = zip(*(gp._window_index(key, span + 1) for key in keys))
        want = np.array(indices)
        assert (index.dtype, index.shape) == (want.dtype, want.shape)
        assert index.tobytes() == want.tobytes()
        assert set(sides) == {precision_side}
        assert not index.flags.writeable

    @pytest.mark.parametrize("n_models, key, filled", [
        (2, tuple(range(20, 2, -1)), 190),
        (10, tuple(range(20, 2, -1)), 190),
        (27, tuple(range(20, 2, -1)), 1),
        (39, tuple(range(19, 0, -1)), 20),
        (157, tuple(range(19, 0, -1)), 0),
        (11, tuple(range(20, 2, -1)), 1),
        (156, tuple(range(19, 0, -1)), 20),
    ])
    def test_a_class_whose_gather_exceeds_the_cap_is_not_filled(self, n_models, key, filled):
        # A one-gap window gathers 21 x 2 floats per model, a two-gap
        # window 21 x 3, so at tau=20 the 131,072-float cap fills the
        # one-gap class up to M=156 and the two-gap class up to M=10.  A
        # window of a class left out is a single miss, unless it is one a
        # change point regrows: the family, filled up to M=76, then holds
        # 18..1 of the two-gap class.
        table = precision_table((fixed_case(27, [])[0] * 6)[:n_models], 20)
        cache = gp.gap_fill(table)
        windows = gap_class(20, 20 - len(key))
        assert len(set(cache) & windows) == filled
        assert (key in cache) == (filled == len(windows))
        gp_predict(key, np.zeros(len(key)), 0.0, table, cache)
        a, var = cache[key]
        want_a, want_var = predictor(key, table)
        assert (a.tobytes(), var.tobytes()) == (want_a.tobytes(), want_var.tobytes())

    def test_no_starting_cache_exceeds_the_cache_size(self):
        # Few models gather the least, so they fill the most.  One model
        # fills both classes and the change-point family up to tau=43;
        # at tau=44 the family's 41 windows would take the start to 1,031
        # entries, so it is left out.  Two models fill all three up to
        # tau=35.  Then the one-gap class and the family fill to tau=90
        # (M=1) or 71 (M=2), and the one-gap class alone past it.  No fill
        # need drop an entry.
        for n_models in (1, 2):
            models = fixed_case(n_models, [])[0]
            sizes = {span: len(gp.gap_fill(precision_table(models, span))) for span in range(1, 131)}
            assert max(sizes.values()) <= gp.PREDICTOR_CACHE_SIZE
            assert sizes[20] == 20 + 190 + 17
            if n_models == 1:
                assert max(sizes.values()) == sizes[44] == 44 + 946
                assert sizes[43] == 43 + 903 + 40 and sizes[45] == 45 + 43
                assert sizes[90] == 90 + 88 and sizes[91] == 91 and sizes[130] == 130
            else:
                assert max(sizes.values()) == sizes[35] == 35 + 595 + 32
                assert sizes[36] == 36 + 34 and sizes[71] == 71 + 69 and sizes[72] == 72

    @pytest.mark.parametrize("span, built", [(20, [(20, 1)]), (200, [])])
    def test_the_cap_is_checked_before_a_class_index_is_built(self, monkeypatch, span, built):
        # At M=27 the two-gap class at tau=20, and both classes at
        # tau=200, exceed the cap: their indices are never built.
        calls = []

        def counted(*args, _original=gp._gap_class):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(gp, "_gap_class", counted)
        gp.gap_fill(precision_table(fixed_case(27, [])[0], span))
        assert calls == built

    @pytest.mark.parametrize("limit, key", [
        (2, tuple(range(20, 2, -1))),
        (190, tuple(range(20, 2, -1))),
        (2, tuple(range(19, 0, -1))),
        (20, tuple(range(19, 0, -1))),
        (1024, tuple(range(20, 2, -1))),
        (1024, tuple(range(19, 0, -1))),
    ])
    def test_without_room_a_miss_adds_only_its_own_entry(self, monkeypatch, limit, key):
        # Whatever the room, a miss of a gap-class window fills no class:
        # it adds its own entry, and 20..4, 1 where it is 20..3 and pairs,
        # and a full cache drops one of its oldest entries for each.
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", limit)
        table = precision_table(TestKernelTable.MODELS, 20)
        cache = {"held": None}
        gp_predict(key, np.zeros(len(key)), 0.0, table, cache)
        added = [key] if key[0] == 19 else [key, (*range(20, 3, -1), 1)]
        assert list(cache) == (["held"] + added)[-limit:]

    @pytest.mark.parametrize("offsets, error", [
        ((*range(20, 3, -1), 2.5), "integers"),
        ((*range(20, 3, -1), 20), "distinct"),
        ((*range(20, 3, -1), 0), "distinct"),
        ((*range(21, 4, -1), 1), "span 20"),
        ((*range(20, 3, -1), -1), "span 20"),
    ])
    def test_a_rejected_window_leaves_the_cache_as_it_was(self, offsets, error):
        # Windows of 18 offsets, as long as the two-gap class's.
        table = precision_table(TestKernelTable.MODELS, 20)
        cache = {"held": None}
        with pytest.raises(ValueError, match=error):
            gp_predict(offsets, np.zeros(18), 0.0, table, cache)
        assert cache == {"held": None}

    def test_a_window_out_of_order_adds_only_its_own_entry(self):
        # The class's offsets in ascending order: a key of its own.
        table = precision_table(TestKernelTable.MODELS, 20)
        cache = {}
        key = tuple(range(1, 19))
        gp_predict(key, np.zeros(18), 0.0, table, cache)
        assert list(cache) == [key]

    @pytest.mark.parametrize("cast", [np.int32, float])
    def test_a_key_of_another_integer_type_hits_its_class_entry(self, cast):
        # Equal by value to a class key, it is served from the class.
        table = precision_table(TestKernelTable.MODELS, 6)
        cache = gp.gap_fill(table)
        filled = list(cache)
        key = tuple(cast(v) for v in (6, 5, 4, 3, 1))
        ys = np.sin(key)
        got = gp_predict(key, ys, 0.1, table, cache)
        assert list(cache) == filled
        a, var = predictor((6, 5, 4, 3, 1), table)
        assert as_bytes(got) == as_bytes((0.1 + np.vecdot(a, ys - 0.1), var))


def paired_windows(span):
    """Every window of the offsets 1..span that holds span, first, as the
    engine keys it, and pairs, with its slide: each gap set of each
    window length that `paired_slide` pairs."""
    for n in range(1, span + 1):
        if paired_slide(tuple(range(span, span - n, -1)), span) is None:
            continue
        for gaps in itertools.combinations(range(span - 1, 0, -1), span - n):
            key = tuple(p for p in range(span, 0, -1) if p not in gaps)
            yield key, paired_slide(key, span)


class TestSlidePair:
    """A miss of a window that holds the oldest offset and has a few gaps
    solves the window's next slide with it, in one batch, and adds both
    entries, each the bits of its window's own miss."""

    @pytest.mark.parametrize("n_models", [1, 2, 8, 27])
    def test_every_paired_entry_is_its_own_miss_bit_for_bit(self, n_models):
        # Every gap set the bound pairs at spans 1 to 20: 5,035 at span 20
        # (1 to 4 gaps), read back through `gp_predict`.
        models = fixed_case(n_models, [])[0]
        pairs = 0
        for span in range(1, 21):
            table = precision_table(models, span)
            for key, slide in paired_windows(span):
                cache = {}
                gp_predict(key, np.zeros(len(key)), 0.0, table, cache)
                assert list(cache) == [key, slide]
                assert_own_miss(cache[key], key, table)
                assert_own_miss(cache[slide], slide, table)
                pairs += 1
        assert pairs == 14_682

    @pytest.mark.parametrize("span", range(1, 21))
    def test_the_pair_index_is_the_stack_of_both_windows_indices(self, span):
        # One take and one add turn the miss's index into the pair's,
        # dtype included, on the side both windows take.
        for n in range(span + 1):
            held = tuple(range(span, span - n, -1))
            assert (gp._slide_layout(span + 1, n) is None) == (
                not held or paired_slide(held, span) is None)
        for key, slide in paired_windows(span):
            (index, side), (slide_index, slide_side) = (
                gp._window_index(w, span + 1) for w in (key, slide))
            take, add = gp._slide_layout(span + 1, len(key))
            want = np.array([index, slide_index])
            got = index.take(take) + add
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            assert side and slide_side

    def test_at_span_20_windows_of_1_to_4_gaps_pair(self):
        assert [n for n in range(21) if gp._slide_layout(21, n)] == [16, 17, 18, 19]

    @pytest.mark.parametrize("span", range(1, 21))
    def test_the_empty_and_the_full_window_never_pair(self, span):
        # The full window's slide would be itself.
        table = precision_table(TestKernelTable.MODELS, span)
        for key in ((), tuple(range(span, 0, -1))):
            cache = {}
            gp_predict(key, np.zeros(len(key)), 0.0, table, cache)
            assert list(cache) == [key]

    def test_a_miss_whose_slide_is_held_adds_only_its_own_entry(self, monkeypatch):
        solved = []

        def counted(index, *args, _original=gp._solve_windows):
            solved.append(index.shape)
            return _original(index, *args)

        monkeypatch.setattr(gp, "_solve_windows", counted)
        table = precision_table(TestKernelTable.MODELS, 20)
        key, slide = (*range(20, 3, -1), 2), (*range(20, 4, -1), 3, 1)
        cache = {slide: "held"}
        gp_predict(key, np.zeros(len(key)), 0.0, table, cache)
        assert list(cache) == [slide, key] and cache[slide] == "held"
        assert solved == [(21, 3)]

    @pytest.mark.parametrize("limit", [1, 2, 3, 4])
    def test_a_full_cache_drops_one_oldest_entry_per_entry_added(self, monkeypatch, limit):
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", limit)
        table = precision_table(TestKernelTable.MODELS, 20)
        held = [("held", i) for i in range(limit)]
        cache = dict.fromkeys(held)
        key = (*range(20, 3, -1), 2)
        gp_predict(key, np.zeros(len(key)), 0.0, table, cache)
        assert list(cache) == (held + [key, (*range(20, 4, -1), 3, 1)])[-limit:]

    @pytest.mark.parametrize("offsets, error", [
        ((20, *range(18, 3, -1), 2.5), "integers"),
        ((20, *range(18, 3, -1), 18), "distinct"),
        ((20, *range(18, 3, -1), 0), "distinct"),
        ((20, *range(18, 3, -1), -1), "span 20"),
    ])
    def test_a_rejected_window_that_would_pair_leaves_the_cache_as_it_was(self, offsets, error):
        table = precision_table(TestKernelTable.MODELS, 20)
        cache = {"held": None}
        with pytest.raises(ValueError, match=error):
            gp_predict(offsets, np.zeros(17), 0.0, table, cache)
        assert cache == {"held": None}


class TestStackFallback:
    # Tiny noise and a huge length scale: the covariance over 0..20 is
    # numerically rank one, so its unjittered Cholesky fails and the
    # ladder takes over, once, where the precision table is built.
    BAD = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e4, 1e-9)
    GOOD = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 3.0, 0.1)

    def test_failing_model_goes_through_its_own_ladder(self):
        ts = np.arange(20.0)
        ys = np.sin(ts)
        mean = 0.1
        offsets = 20 - np.arange(20)
        bad = self.BAD
        row = kernel_row(bad, 20)
        V = noisy_covariance(bad, np.arange(21))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(V)
        jitter = next(j for j in gp._JITTERS if np.all(np.linalg.eigvalsh(V + j * np.eye(21)) > 0))
        assert jitter > 0
        models = (self.GOOD, bad, self.GOOD.scaled(l=0.5))

        # The table holds the bad model's jittered covariance, and both
        # sides of the predictor condition on it.
        table = precision_table(models, 20)
        assert table[1, 1].tobytes() == (V + jitter * np.eye(21)).tobytes()
        cond = window_condition(row, 20, jitter)
        for window in (offsets, np.array([3, 2, 1])):
            a, var = predictor(window, table)
            a_ref, var_ref = exact_predictor(row, window, jitter)
            assert np.abs(a[1] - a_ref).sum() <= cond * EPS
            assert abs(var[1] - max(var_ref + jitter, VAR_FLOOR)) <= cond * EPS * var[1]

        means, variances = predict(ts, ys, mean, models, 20.0)
        for m, h in enumerate(models):
            alone_means, alone_variances = predict(ts, ys, mean, (h,), 20.0)
            assert means[m].tobytes() == alone_means[0].tobytes()
            assert variances[m].tobytes() == alone_variances[0].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_stack_raises(self):
        with pytest.raises(NumericalError, match="stack of 3x3"):
            chol_with_jitter(np.array([np.eye(3), -np.eye(3)]))
        # A signal scale whose square overflows to inf.
        huge = self.GOOD.scaled(f=1e200)
        with pytest.raises(NumericalError):
            predict([0.0, 1.0], [0.5, 0.2], 0.0, (self.GOOD, huge), 2.0)
        # Scales so small that the precision overflows to inf, or to NaN.
        for scale in (1e-155, 1e-160):
            tiny = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, scale, 1.0, scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="precision table"):
                    precision_table((self.GOOD, tiny), 20)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 3.0, 1.0)
        lml = log_marginal_likelihood(hyper, 0.0, [5.0], [0.0])
        expected = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert lml == pytest.approx(expected, abs=1e-12)

    def test_zero_observations_leave_only_determinant_terms(self):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.2, 2.0, 0.4)
        ts = np.arange(6.0)
        mean = 0.0
        lml = log_marginal_likelihood(hyper, mean, ts, np.zeros(6))
        V = noisy_covariance(hyper, ts)
        expected = -0.5 * np.linalg.slogdet(V)[1] - 3.0 * math.log(2.0 * math.pi)
        assert lml == pytest.approx(expected, abs=1e-10)

    def test_matches_scipy_logpdf(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            hyper = random_hyper(rng)
            ts = np.sort(rng.uniform(0, 25, size=8))
            ys = rng.normal(size=8)
            c = rng.normal()
            V = noisy_covariance(hyper, ts)
            ref = multivariate_normal(mean=np.full(8, c), cov=V).logpdf(ys)
            lml = log_marginal_likelihood(hyper, c, ts, ys)
            assert lml == pytest.approx(ref, abs=1e-8)


class TestLmlGradient:
    @staticmethod
    def finite_difference(hyper, mean, ts, ys, step=1e-5):
        x0 = hyper.to_log_vector()
        kind = hyper.kind
        grad = np.empty(3)
        for i in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += step
            xm[i] -= step
            lp = log_marginal_likelihood(
                Hyperparameters.from_log_vector(kind, xp), mean, ts, ys
            )
            lm = log_marginal_likelihood(
                Hyperparameters.from_log_vector(kind, xm), mean, ts, ys
            )
            grad[i] = (lp - lm) / (2.0 * step)
        return grad

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            hyper = random_hyper(rng)
            n = rng.integers(4, 12)
            ts = np.sort(rng.uniform(0, 30, size=n))
            ys = rng.normal(size=n)
            mean = rng.normal()
            g = gradient(hyper, mean, ts, ys)
            fd = self.finite_difference(hyper, mean, ts, ys)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_single_point_closed_form(self):
        # n=1: lml = -(y-c)^2/(2v) - log(v)/2 - log(2pi)/2 with
        # v = sf^2 + sn^2, so d lml/d log sf = sf^2 ((y-c)^2/v - 1)/v
        # and the length-scale derivative vanishes.
        sf, sn, y, c = 1.3, 0.6, 0.9, 0.2
        hyper = Hyperparameters(KernelKind.MATERN52, sf, 2.0, sn)
        g = gradient(hyper, c, [4.0], [y])
        v = sf**2 + sn**2
        r2 = (y - c) ** 2
        assert g[0] == pytest.approx(sf**2 * (r2 / v - 1.0) / v, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-15)
        assert g[2] == pytest.approx(sn**2 * (r2 / v - 1.0) / v, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(KernelKind),
        log_scales=st.tuples(
            st.floats(-2.0, 2.0), st.floats(-1.5, 3.0), st.floats(-4.0, 0.5)
        ),
        n=st.integers(1, 40),
        grid=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_value_is_the_lml_and_gradient_matches_full_matrix_oracle(
        self, kind, log_scales, n, grid, seed
    ):
        hyper = Hyperparameters.from_log_vector(kind, np.array(log_scales))
        rng = np.random.default_rng(seed)
        ts = np.arange(float(n)) if grid else np.sort(rng.uniform(0.0, 3.0 * n, size=n))
        ys = rng.normal(size=n)
        mean = float(rng.normal())
        value, g = lml_gradient(hyper, mean, distance_table(ts), ys)
        assert value == log_marginal_likelihood(hyper, mean, ts, ys)
        want = oracle_lml_gradient(hyper, mean, ts, ys)
        assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))


class TestOracleDerivative:
    @pytest.mark.parametrize("kind", KernelKind)
    def test_closed_form_matches_central_differences_of_the_kernel(self, kind):
        # Distances out to where the SE kernel is flushed to 0 (d/ℓ > 18.6).
        d = np.linspace(0.0, 60.0, 241)
        step = 1e-5
        for sf, ell in [(1.0, 1.0), (0.3, 3.0), (2.5, 20.0)]:
            hyper = Hyperparameters(kind, sf, ell, 0.1)
            up = kernel_values(hyper.scaled(l=math.exp(step)), d)
            down = kernel_values(hyper.scaled(l=math.exp(-step)), d)
            fd = (up - down) / (2.0 * step)
            np.testing.assert_allclose(
                oracle_dk_dlog_length(hyper, d), fd, rtol=1e-7, atol=1e-10 * sf * sf
            )


def toeplitz_lml_gradient(hyper: Hyperparameters, mean, table, ys):
    """`lml_gradient` on a Toeplitz table, as it was first written: separate
    kernel and derivative passes, V copied C-ordered out of a
    `sliding_window_view` of its diagonals' values, the Gohberg–Semencul
    weights built per call and the log determinant through np.sum and
    np.diag.  The LAPACK calls are the package's, as there."""
    d, _, toeplitz = table
    assert toeplitz
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    noise2 = hyper.noise_scale * hyper.noise_scale
    k = kernel_values(hyper, d)
    sf2 = hyper.signal_scale * hyper.signal_scale
    if hyper.kind is KernelKind.MATERN52:
        u = np.minimum((math.sqrt(5.0) / hyper.length_scale) * d, gp._MAX_SCALED_DIST)
        dk = sf2 * (u * u * (1.0 + u) / 3.0) * np.exp(-u)
    else:
        s = np.minimum((d / hyper.length_scale) ** 2, gp._MAX_SCALED_DIST)
        e = np.exp(-s)
        dk = np.where(e < gp._SE_FLUSH, 0.0, sf2 * e * 2.0 * s)
    resid = ys - mean
    c = np.concatenate((k[:0:-1], k))
    c[n - 1] += noise2
    L = chol_with_jitter(np.ascontiguousarray(sliding_window_view(c, n)[::-1]).T)
    rhs = np.zeros((2, n))
    rhs[0] = resid
    rhs[1, 0] = 1.0
    alpha, x = gp.cho_solve(L, rhs.T).T
    y = np.zeros(n)
    y[1:] = x[:0:-1]
    weights = np.arange(n, 0, -1.0)
    inverse = np.correlate(weights * x, x, "full")[n - 1:]
    inverse -= np.correlate(weights * y, y, "full")[n - 1:]
    inverse /= x[0]
    sums = np.correlate(alpha, alpha, "full")[n - 1:]
    sums -= inverse
    sums[1:] *= 2.0
    grad = np.array([sums @ k, 0.5 * (sums @ dk), noise2 * sums[0]])
    lml = float(-0.5 * resid @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * gp._LOG_2PI)
    return lml, grad


class TestToeplitzEvaluationBits:
    """The Toeplitz branch of `lml_gradient` shares one exponential pass
    between the kernel and its derivative and hands potrf V as a strided
    view of its diagonals' values.  Its value and gradient are those of
    `toeplitz_lml_gradient` bit for bit, so a fit's scales are too."""

    @staticmethod
    def check(hyper, ts, seed):
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=len(ts))
        mean = float(rng.normal())
        table = distance_table(ts)
        value, grad = lml_gradient(hyper, mean, table, ys)
        want_value, want_grad = toeplitz_lml_gradient(hyper, mean, table, ys)
        assert value.hex() == want_value.hex()
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 40, 201])
    @pytest.mark.parametrize("kind", KernelKind)
    def test_drawn_scales(self, kind, n):
        rng = np.random.default_rng(n)
        for draw in range(6):
            log_scales = rng.uniform((-2.0, -1.5, -4.0), (2.0, 5.5, 0.5))
            hyper = Hyperparameters.from_log_vector(kind, log_scales)
            # Exact in binary, so every spacing rounds alike: V is Toeplitz.
            start, spacing = rng.integers(-5, 6), rng.choice([1.0, 2.5, -0.5])
            self.check(hyper, start + spacing * np.arange(n), draw)

    def test_a_jittered_factorization(self):
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e4, 1e-9)
        ts = np.arange(12.0)
        assert chol_with_jitter(noisy_covariance(hyper, ts), return_jitter=True)[1] > 0.0
        self.check(hyper, ts, 0)


class PotriCalled(Exception):
    """Raised by a stand-in for `gp._potri`."""


def refuse_potri(*args, **kwargs):
    raise PotriCalled


class TestToeplitzGradient:
    """Equally spaced sorted inputs make V Toeplitz.  The gradient's
    per-distance sums of B = ααᵀ - V⁻¹ then come from
    `_toeplitz_diagonal_sums`, without forming V⁻¹; any other inputs take
    potri.  Checked against an explicit inverse, within n·cond(V)·eps.
    Which inputs are Toeplitz is `distance_table`'s decision, its third
    value; a table marked otherwise takes potri."""

    @staticmethod
    def check_sums(ts, hyper) -> float:
        """Check the sums against those of the explicit inverse of V, with
        the jitter the ladder added, within 10·n·cond(V)·eps; return that
        jitter."""
        ts = np.asarray(ts)
        n = ts.size
        d, where, toeplitz = distance_table(ts)
        assert toeplitz
        V = noisy_covariance(hyper, ts)
        L, jitter = chol_with_jitter(V, return_jitter=True)
        V[np.diag_indices(n)] += jitter
        alpha = cho_solve((L, True), np.random.default_rng(n).normal(size=n))
        x = cho_solve((L, True), np.eye(n)[0])
        sums = gp._toeplitz_diagonal_sums(x, alpha)
        B = np.outer(alpha, alpha) - np.linalg.inv(V)
        want = np.bincount(where.ravel(), weights=B.ravel(), minlength=n)
        bound = 10 * n * np.linalg.cond(V) * EPS * np.max(np.abs(want))
        assert np.max(np.abs(sums - want)) <= bound
        return jitter

    @pytest.mark.parametrize(
        "ts, length",
        [
            ([3.0], 1.0),
            ([0.0, 1.0], 1.0),
            (np.arange(40.0), 4.0),
            (7.0 + 2.5 * np.arange(30), 10.0),  # non-unit spacing, non-zero start
            (5.0 - 0.5 * np.arange(12), 2.0),  # descending
        ],
    )
    @pytest.mark.parametrize("kind", KernelKind)
    def test_sums_match_the_explicit_inverse(self, ts, length, kind):
        assert self.check_sums(ts, Hyperparameters(kind, 1.3, length, 0.3)) == 0.0

    def test_sums_are_those_of_the_jittered_matrix(self):
        # Unjittered, the 1e-18 noise variance is lost against the unit
        # diagonal and V is numerically singular.
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e4, 1e-9)
        assert self.check_sums(np.arange(12.0), hyper) > 0.0

    @pytest.mark.parametrize(
        "ts",
        [[4.0], np.arange(200.0), 7.0 + 2.5 * np.arange(9), 5.0 - 0.5 * np.arange(12)],
    )
    def test_equally_spaced_inputs_do_not_reach_potri(self, ts, monkeypatch):
        ts = np.asarray(ts)
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 3.0, 0.2)
        ys = np.random.default_rng(2).normal(size=ts.size)
        want = oracle_lml_gradient(hyper, 0.1, ts, ys)
        monkeypatch.setattr(gp, "_potri", refuse_potri)
        table = distance_table(ts)
        assert table[2] is True
        value, g = lml_gradient(hyper, 0.1, table, ys)
        assert value == log_marginal_likelihood(hyper, 0.1, ts, ys)
        assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "ts",
        [
            [0.0, 1.0, 3.0, 4.0],  # gapped
            [0.0, 2.0, 1.0, 3.0],  # unsorted
            [0.0, 1.0, 1.0, 2.0],  # repeated
            # Distances 0, 1e-20 and 1 from the first input, in order,
            # but |1e-20 - 1| rounds to 1: V is not Toeplitz.
            [0.0, 1e-20, 1.0],
        ],
    )
    def test_other_inputs_take_potri(self, ts, monkeypatch):
        hyper = Hyperparameters(KernelKind.MATERN52, 1.0, 3.0, 0.2)
        monkeypatch.setattr(gp, "_potri", refuse_potri)
        table = distance_table(ts)
        assert table[2] is False
        with pytest.raises(PotriCalled):
            lml_gradient(hyper, 0.0, table, np.ones(len(ts)))

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_a_table_marked_not_toeplitz_takes_potri_to_the_same_value(self, n, monkeypatch):
        # The two branches build V differently but factor the same numbers,
        # and the two-column solve's first column is the one-column α.
        ts = np.arange(float(n))
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.1, 4.0, 0.3)
        ys = np.random.default_rng(n).normal(size=n)
        d, where, toeplitz = distance_table(ts)
        value, g = lml_gradient(hyper, 0.2, (d, where, toeplitz), ys)
        dense_value, dense_g = lml_gradient(hyper, 0.2, (d, where, False), ys)
        assert toeplitz and dense_value == value
        np.testing.assert_allclose(dense_g, g, rtol=1e-10, atol=0)
        monkeypatch.setattr(gp, "_potri", refuse_potri)
        with pytest.raises(PotriCalled):
            lml_gradient(hyper, 0.2, (d, where, False), ys)


class TestDistanceTable:
    @pytest.mark.parametrize(
        "xs, n_distinct", [([0.0, 2.5, 1.0, 7.0, 3.5], 8), (np.arange(200.0), 200)]
    )
    def test_distinct_distances_spread_back_to_the_distance_matrix(self, xs, n_distinct):
        xs = np.asarray(xs)
        d, where, _ = distance_table(xs)
        assert d.size == n_distinct and np.all(np.diff(d) > 0)
        assert np.array_equal(d[where], np.abs(xs[:, None] - xs[None, :]))

    @staticmethod
    def counted_unique(monkeypatch):
        """Count the calls of np.unique, the sort of the general path."""
        calls = []

        def counted(*args, _original=np.unique, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        return calls

    @pytest.mark.parametrize("xs", [
        np.arange(200.0),  # the engine's history times
        np.arange(12.0)[::-1],  # descending
        -7.0 + 3.0 * np.arange(30),  # step k, negative start
        [5.0],  # n = 1
        [4.0, -2.0],  # n = 2
        [-(2.0**53 - 1), 2.0**53 - 1],  # a step of 2**54 - 2, still exact
    ])
    def test_equally_spaced_integers_skip_the_sort_to_the_same_bits(self, xs, monkeypatch):
        x = np.asarray(xs, dtype=float)
        n = x.size
        want_d, want_where = np.unique(np.abs(x[:, None] - x[None, :]).ravel(), return_inverse=True)
        want_where = want_where.reshape(n, n)
        calls = self.counted_unique(monkeypatch)
        d, where, toeplitz = distance_table(xs)
        assert calls == [] and toeplitz is True
        for got, want in ((d, want_d), (where, want_where)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("xs, toeplitz", [
        ([0.0, 1.0, 1.0, 2.0], False),  # repeated
        ([0.0, 0.0, 0.0], False),  # a step of 0
        ([0.0, 0.5, 1.0, 1.5], True),  # equally spaced, not integers
        ([0.0, 1e-20, 1.0], False),
        ([0.0, 1.0, 3.0, 4.0], False),  # gapped
        ([0.0, 2.0**53], True),  # beyond 2**53
    ])
    def test_other_inputs_take_the_sort(self, xs, toeplitz, monkeypatch):
        calls = self.counted_unique(monkeypatch)
        assert distance_table(xs)[2] is toeplitz
        assert len(calls) == 1


class TestDirectLapack:
    """`gp.cholesky` and `gp.cho_solve` call LAPACK potrf and potrs
    directly; their bits must be scipy.linalg's."""

    @staticmethod
    def spd(n, seed=0):
        A = np.random.default_rng(seed).standard_normal((n, n))
        return A @ A.T + n * np.eye(n)

    @pytest.mark.parametrize("n", [1, 5, 200])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_cholesky_is_scipys(self, n, order):
        V = np.asarray(self.spd(n, n), order=order)
        before = V.tobytes(order="A")
        L = gp.cholesky(V)
        want = cholesky(V, lower=True)
        assert L.flags.f_contiguous and L.tobytes(order="F") == want.tobytes(order="F")
        assert not np.any(np.triu(L, 1))
        assert V.tobytes(order="A") == before

    def test_cholesky_raises_linalgerror_where_not_positive_definite(self):
        with pytest.raises(LinAlgError):
            gp.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 5, 200])
    def test_cho_solve_is_scipys_column_by_column(self, n):
        rng = np.random.default_rng(n)
        L = gp.cholesky(self.spd(n, n))
        b = rng.standard_normal(n)
        B = np.asfortranarray(rng.standard_normal((n, 2)))
        before = L.tobytes(), b.tobytes(), B.tobytes()
        x = gp.cho_solve(L, b)
        X = gp.cho_solve(L, B)
        assert x.tobytes() == cho_solve((L, True), b).tobytes()
        assert X.tobytes() == cho_solve((L, True), B).tobytes()
        for j in range(2):
            column = gp.cho_solve(L, B[:, j].copy())
            assert X[:, j].tobytes() == column.tobytes()
        assert (L.tobytes(), b.tobytes(), B.tobytes()) == before


class TestOneBlasThread:
    """`one_blas_thread` pins scipy's bundled OpenBLAS, which this suite's
    scipy has, and restores its count; without one it warns once."""

    def test_pins_one_thread_and_restores_the_count(self):
        calls = gp._blas_thread_count_calls()
        assert calls is not None, "no thread-count symbol in scipy's bundled OpenBLAS"
        get, set_ = calls
        before = get()
        set_(2)
        try:
            with gp.one_blas_thread():
                assert get() == 1
            assert get() == 2
        finally:
            set_(before)

    def test_without_a_bundled_openblas_warns_once_and_runs_the_block(
        self, monkeypatch, tmp_path, caplog
    ):
        monkeypatch.setattr(gp, "scipy", SimpleNamespace(__file__=str(tmp_path / "scipy" / "x.py")))
        with caplog.at_level(logging.WARNING, logger="intelgp"):
            assert gp._blas_thread_count_calls.__wrapped__() is None
        assert len(caplog.records) == 1 and "thread" in caplog.text
        monkeypatch.setattr(gp, "_blas_thread_count_calls", lambda: None)
        ran = []
        with gp.one_blas_thread():
            ran.append(True)
        assert ran == [True]


class TestJitterLadder:
    def test_near_singular_matrix_is_rescued(self):
        # Long length scale on close points: unjittered Cholesky fails.
        # The noise variance, 1e-18, is lost against the unit diagonal.
        hyper = Hyperparameters(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e4, 1e-9)
        V = noisy_covariance(hyper, np.linspace(0, 1, 12))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(V)
        L = chol_with_jitter(V)
        assert np.all(np.isfinite(L))

    def test_indefinite_matrix_raises_numerical_error(self):
        M = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError, match="even with diagonal jitter"):
            chol_with_jitter(M)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (3, 3), (5, 5), (3, 1), (5, 0), (5, 4)])
    def test_non_finite_entry_of_the_lower_triangle_is_named(self, value, where):
        # Such an entry either stops potrf at a pivot or passes through it
        # as a non-finite pivot; either way the ladder names it.
        V = TestDirectLapack.spd(6)
        V[where] = value
        with pytest.raises(NumericalError, match="non-finite"):
            chol_with_jitter(V)
