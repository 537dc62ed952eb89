"""GP core tests against independent oracles.

The conditioning oracle below rebuilds the joint observation covariance
from a direct transcription of the kernel formulas and conditions it with
a full matrix inverse, so it shares no code with the Cholesky-based
prediction path it checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from intelgp import gp
from intelgp.gp import (
    VAR_FLOOR,
    Hyperparameters,
    KernelKind,
    KernelSpec,
    MeanFunction,
    NumericalError,
    chol_with_jitter,
    covariance_matrix,
    gp_predict,
    lml_gradient,
    log_marginal_likelihood,
    noisy_covariance,
    predictor,
)

# Frozen from a 30-digit evaluation of (1 + sqrt(5) + 5/3) * exp(-sqrt(5)).
MATERN_AT_UNIT_DISTANCE = 0.5239941088318203


def oracle_kernel(hyper: Hyperparameters, a: float, b: float) -> float:
    """Direct transcription of the kernel formulas, independent of gp.py."""
    sf = hyper.kernel.signal_scale
    sl = hyper.kernel.length_scale
    r = abs(a - b)
    if hyper.kernel.kind is KernelKind.MATERN52:
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


def kernel_eval(spec: KernelSpec, xi: float, xj: float) -> float:
    """The kernel at a pair of scalar inputs, through the package's kernel."""
    return float(gp._kernel_of_dist(spec, np.abs(np.asarray(xi - xj, dtype=float))))


def predict_one(ts, ys, mean, hyper, t_star):
    """One model's predictive (mean, variance) from the batched predictor."""
    means, variances = gp_predict(ts, ys, mean, (hyper,), t_star)
    return float(means[0]), float(variances[0])


def random_hyper(rng) -> Hyperparameters:
    kind = KernelKind.MATERN52 if rng.random() < 0.5 else KernelKind.SQUARED_EXPONENTIAL
    return Hyperparameters(
        kernel=KernelSpec(
            kind,
            signal_scale=math.exp(rng.uniform(-1.5, 1.5)),
            length_scale=math.exp(rng.uniform(-1.0, 2.0)),
        ),
        noise_scale=math.exp(rng.uniform(-3.0, 0.0)),
    )


class TestKernelEval:
    def test_matern_zero_distance_is_signal_variance(self):
        spec = KernelSpec(KernelKind.MATERN52, 2.0, 1.0)
        assert kernel_eval(spec, 5.0, 5.0) == 4.0

    def test_se_unit_distance(self):
        spec = KernelSpec(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1.0)
        assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_matern_unit_distance_frozen_value(self):
        spec = KernelSpec(KernelKind.MATERN52, 1.0, 1.0)
        assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(
            MATERN_AT_UNIT_DISTANCE, abs=1e-15
        )

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            hyper = random_hyper(rng)
            a, b = rng.uniform(-50, 50, size=2)
            k_ab = kernel_eval(hyper.kernel, a, b)
            k_ba = kernel_eval(hyper.kernel, b, a)
            assert k_ab == k_ba
            assert abs(k_ab) <= hyper.kernel.signal_scale**2

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.MATERN52, 0.0, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.MATERN52, 1.0, -2.0)


class TestCovarianceMatrix:
    def test_single_point(self):
        spec = KernelSpec(KernelKind.MATERN52, 2.0, 1.0)
        np.testing.assert_allclose(covariance_matrix(spec, [3.0]), [[4.0]])

    def test_off_diagonal_matches_kernel_eval(self):
        spec = KernelSpec(KernelKind.MATERN52, 1.0, 1.0)
        K = covariance_matrix(spec, [0.0, 1.0])
        assert K[0, 1] == kernel_eval(spec, 0.0, 1.0)
        assert K[1, 0] == K[0, 1]

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            hyper = random_hyper(rng)
            xs = np.sort(rng.uniform(0, 30, size=6))
            eigs = np.linalg.eigvalsh(covariance_matrix(hyper.kernel, xs))
            assert eigs.min() >= -1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            covariance_matrix(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), [])


class TestNoisyCovariance:
    def test_scalar_case(self):
        spec = KernelSpec(KernelKind.MATERN52, 1.0, 1.0)
        np.testing.assert_allclose(noisy_covariance(spec, [0.0], 0.5), [[1.25]])

    def test_diagonal_shift_is_noise_variance(self):
        rng = np.random.default_rng(2)
        hyper = random_hyper(rng)
        xs = rng.uniform(0, 20, size=7)
        K = covariance_matrix(hyper.kernel, xs)
        V = noisy_covariance(hyper.kernel, xs, 0.3)
        np.testing.assert_allclose(np.diag(V) - np.diag(K), 0.09, atol=1e-15)
        off = ~np.eye(7, dtype=bool)
        np.testing.assert_allclose(V[off], K[off])

    def test_cholesky_succeeds_on_random_windows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            hyper = random_hyper(rng)
            xs = np.sort(rng.uniform(0, 100, size=20))
            V = noisy_covariance(hyper.kernel, xs, hyper.noise_scale)
            L = chol_with_jitter(V)
            assert np.all(np.isfinite(L))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            noisy_covariance(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), [0.0], 0.0)


class TestGpPredict:
    def test_empty_training_set_returns_prior(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), 0.1)
        mean, var = predict_one([], [], MeanFunction(0.0), hyper, 7.0)
        assert mean == 0.0
        assert var == pytest.approx(1.01, abs=1e-15)

    def test_interpolation_limit(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 2.0), 1e-6)
        ts = np.arange(5.0)
        ys = np.array([0.3, -0.1, 0.8, 0.2, -0.5])
        mean, _ = predict_one(ts, ys, MeanFunction(0.0), hyper, 2.0)
        assert mean == pytest.approx(0.8, abs=1e-4)

    def test_matches_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            hyper = random_hyper(rng)
            n = rng.integers(1, 6)
            ts = np.sort(rng.uniform(0, 20, size=n))
            ys = rng.normal(size=n)
            c = rng.normal()
            t_star = float(ts[-1] + rng.uniform(0.5, 3.0))
            mean, var = predict_one(ts, ys, MeanFunction(c), hyper, t_star)
            m_ref, v_ref = oracle_predict(hyper, c, ts, ys, t_star)
            assert mean == pytest.approx(m_ref, abs=1e-8)
            assert var == pytest.approx(v_ref, abs=1e-8)

    def test_variance_monotone_in_training_points(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            hyper = random_hyper(rng)
            n = rng.integers(2, 9)
            ts = np.sort(rng.uniform(0, 15, size=n))
            ys = rng.normal(size=n)
            t_star = float(ts[-1] + 1.0)
            mean = MeanFunction(0.0)
            _, var_subset = predict_one(ts[:-1], ys[:-1], mean, hyper, t_star)
            _, var_full = predict_one(ts, ys, mean, hyper, t_star)
            assert var_full <= var_subset + 1e-10

    def test_variance_floor(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), 1e-5)
        _, var = predict_one([0.0], [0.5], MeanFunction(0.0), hyper, 0.0)
        assert var >= VAR_FLOOR

    def test_length_mismatch_rejected(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), 0.1)
        with pytest.raises(ValueError):
            gp_predict([0.0, 1.0], [0.5], MeanFunction(0.0), (hyper,), 2.0)

    def test_mixed_kernel_kinds_rejected(self):
        models = (
            Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), 0.1),
            Hyperparameters(KernelSpec(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1.0), 0.1),
        )
        with pytest.raises(ValueError):
            gp_predict([0.0, 1.0], [0.5, 0.2], MeanFunction(0.0), models, 2.0)


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
        Hyperparameters(KernelSpec(kind, math.exp(f), math.exp(l)), math.exp(n))
        for f, l, n in draw(st.lists(log_scales, min_size=n_models, max_size=n_models))
    )
    offsets = draw(st.lists(st.integers(1, 40), max_size=20, unique=True))
    ts = np.sort(1000.0 - np.array(offsets, dtype=float))
    ys = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=ts.size, max_size=ts.size)))
    c = draw(st.floats(-2.0, 2.0))
    shift = draw(st.integers(-1_000_000, 1_000_000))
    return models, ts, ys, MeanFunction(c), shift


def as_bytes(prediction):
    means, variances = prediction
    return means.tobytes(), variances.tobytes()


class TestBatchedPredictor:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batched_cases())
    def test_matches_oracle_cache_and_time_shift(self, case):
        models, ts, ys, mean, shift = case
        uncached = gp_predict(ts, ys, mean, models, 1000.0)
        means, variances = uncached
        assert means.shape == variances.shape == (len(models),)
        for h, m, v in zip(models, means, variances):
            m_ref, v_ref = oracle_predict(h, mean.constant, ts, ys, 1000.0)
            assert m == pytest.approx(m_ref, abs=1e-8)
            assert v == pytest.approx(v_ref, abs=1e-8)
        cache = {}
        for _ in range(2):  # a miss, then a hit
            cached = gp_predict(ts, ys, mean, models, 1000.0, cache)
            assert as_bytes(cached) == as_bytes(uncached)
        shifted = gp_predict(ts + shift, ys, mean, models, 1000.0 + shift)
        assert as_bytes(shifted) == as_bytes(uncached)

    def test_predictor_arrays_are_read_only(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 2.0), 0.1)
        for a in predictor(np.array([3.0, 2.0, 1.0]), (hyper, hyper.scaled(l=0.2))):
            assert not a.flags.writeable


class TestStackFallback:
    # Tiny noise and a huge length scale: the window matrix is numerically
    # rank one, so its unjittered Cholesky fails and the ladder takes over.
    BAD = Hyperparameters(KernelSpec(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e4), 1e-9)
    GOOD = Hyperparameters(KernelSpec(KernelKind.SQUARED_EXPONENTIAL, 1.0, 3.0), 0.1)

    def test_failing_model_goes_through_its_own_ladder(self):
        ts = np.arange(20.0)
        ys = np.sin(ts)
        mean = MeanFunction(0.1)
        offsets = 20.0 - ts
        bad = self.BAD
        V = noisy_covariance(bad.kernel, offsets, bad.noise_scale)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(V)
        models = (self.GOOD, bad, self.GOOD.scaled(l=0.5))

        L, v, var = predictor(offsets, models)
        L_bad = chol_with_jitter(V)
        k_star = gp._kernel_of_dist(bad.kernel, np.abs(offsets))
        v_bad = solve_triangular(L_bad, k_star, lower=True, check_finite=False)
        prior = bad.kernel.signal_scale**2 + bad.noise_scale**2
        assert L[1].tobytes() == L_bad.tobytes()
        assert v[1].tobytes() == v_bad.tobytes()
        assert var[1] == max(prior - v_bad @ v_bad, VAR_FLOOR)

        means, variances = gp_predict(ts, ys, mean, models, 20.0)
        for m, h in enumerate(models):
            alone_means, alone_variances = gp_predict(ts, ys, mean, (h,), 20.0)
            assert means[m].tobytes() == alone_means[0].tobytes()
            assert variances[m].tobytes() == alone_variances[0].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_stack_raises(self):
        with pytest.raises(NumericalError):
            chol_with_jitter(np.full((2, 3, 3), np.nan))
        # A signal scale whose square overflows to inf.
        huge = self.GOOD.scaled(f=1e200)
        with pytest.raises(NumericalError):
            gp_predict([0.0, 1.0], [0.5, 0.2], MeanFunction(0.0), (self.GOOD, huge), 2.0)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 3.0), 1.0)
        lml = log_marginal_likelihood(hyper, MeanFunction(0.0), [5.0], [0.0])
        expected = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert lml == pytest.approx(expected, abs=1e-12)

    def test_zero_observations_leave_only_determinant_terms(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.2, 2.0), 0.4)
        ts = np.arange(6.0)
        mean = MeanFunction(0.0)
        lml = log_marginal_likelihood(hyper, mean, ts, np.zeros(6))
        V = noisy_covariance(hyper.kernel, ts, hyper.noise_scale)
        expected = -0.5 * np.linalg.slogdet(V)[1] - 3.0 * math.log(2.0 * math.pi)
        assert lml == pytest.approx(expected, abs=1e-10)

    def test_matches_scipy_logpdf(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            hyper = random_hyper(rng)
            ts = np.sort(rng.uniform(0, 25, size=8))
            ys = rng.normal(size=8)
            c = rng.normal()
            V = noisy_covariance(hyper.kernel, ts, hyper.noise_scale)
            ref = multivariate_normal(mean=np.full(8, c), cov=V).logpdf(ys)
            lml = log_marginal_likelihood(hyper, MeanFunction(c), ts, ys)
            assert lml == pytest.approx(ref, abs=1e-8)

    def test_empty_rejected(self):
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, 1.0, 1.0), 0.1)
        with pytest.raises(ValueError):
            log_marginal_likelihood(hyper, MeanFunction(0.0), [], [])


class TestLmlGradient:
    @staticmethod
    def finite_difference(hyper, mean, ts, ys, step=1e-5):
        x0 = hyper.to_log_vector()
        kind = hyper.kernel.kind
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
            mean = MeanFunction(rng.normal())
            g = lml_gradient(hyper, mean, ts, ys)
            fd = self.finite_difference(hyper, mean, ts, ys)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_single_point_closed_form(self):
        # n=1: lml = -(y-c)^2/(2v) - log(v)/2 - log(2pi)/2 with
        # v = sf^2 + sn^2, so d lml/d log sf = sf^2 ((y-c)^2/v - 1)/v
        # and the length-scale derivative vanishes.
        sf, sn, y, c = 1.3, 0.6, 0.9, 0.2
        hyper = Hyperparameters(KernelSpec(KernelKind.MATERN52, sf, 2.0), sn)
        g = lml_gradient(hyper, MeanFunction(c), [4.0], [y])
        v = sf**2 + sn**2
        r2 = (y - c) ** 2
        assert g[0] == pytest.approx(sf**2 * (r2 / v - 1.0) / v, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-15)
        assert g[2] == pytest.approx(sn**2 * (r2 / v - 1.0) / v, abs=1e-12)


class TestJitterLadder:
    def test_near_singular_matrix_is_rescued(self):
        # Long length scale on close points: unjittered Cholesky fails.
        spec = KernelSpec(KernelKind.SQUARED_EXPONENTIAL, 1.0, 1e4)
        xs = np.linspace(0, 1, 12)
        K = covariance_matrix(spec, xs)
        L = chol_with_jitter(K)
        assert np.all(np.isfinite(L))

    def test_indefinite_matrix_raises_numerical_error(self):
        M = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError):
            chol_with_jitter(M)
