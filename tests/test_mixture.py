"""Tests for model-set construction, the weight recursion, and fusion."""

import dataclasses
import math

import numpy as np
import pytest

from intelgp.gp import (
    VAR_FLOOR,
    Hyperparameters,
    KernelKind,
    KernelSpec,
    MeanFunction,
    PredictiveDistribution,
)
from intelgp.mixture import (
    WEIGHT_FLOOR,
    FusedPrediction,
    VariantFactors,
    build_model_set,
    fuse_poe,
    predictive_weights,
    step_likelihoods,
    update_weights,
)

TEMPLATE = Hyperparameters(KernelSpec(KernelKind.MATERN52, 2.0, 5.0), 0.4)
MEAN = MeanFunction(0.0)


def model_log_likelihood(means, variances, y: float):
    """Gaussian log density of the observation under each model's
    predictive; works elementwise on arrays and on scalars."""
    resid = y - means
    return -0.5 * (resid * resid / variances + np.log(variances) + math.log(2.0 * math.pi))


def model_likelihood(means, variances, y: float):
    """Gaussian density of the observation under each model's predictive."""
    return np.exp(model_log_likelihood(means, variances, y))


def fuse_unweighted_poe(means, variances) -> PredictiveDistribution:
    """Plain product-of-experts fusion: precisions add, means are
    precision-weighted.  The reference the weighted form is checked
    against."""
    precisions = 1.0 / np.asarray(variances)
    total = precisions.sum()
    mean = float((np.asarray(means) * precisions).sum() / total)
    return PredictiveDistribution(mean, max(1.0 / total, VAR_FLOOR))


def random_preds(rng, n):
    """Means and variances of n random Gaussian predictions."""
    return rng.normal(size=n), rng.uniform(0.1, 3.0, n)


def random_simplex(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


class TestBuildModelSet:
    def test_two_model_signal_variant(self):
        ms = build_model_set(TEMPLATE, VariantFactors(signal=(1.0, 0.2)), MEAN)
        assert len(ms.models) == 2
        assert ms.models[0] == TEMPLATE
        variant = ms.models[1]
        assert variant.kernel.signal_scale == pytest.approx(0.2 * 2.0)
        assert variant.kernel.length_scale == TEMPLATE.kernel.length_scale
        assert variant.noise_scale == TEMPLATE.noise_scale

    def test_full_product_gives_eight_models(self):
        ms = build_model_set(
            TEMPLATE,
            VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)),
            MEAN,
        )
        assert len(ms.models) == 8
        np.testing.assert_allclose(ms.weights, 1.0 / 8.0)
        assert ms.models[0] == TEMPLATE
        combos = {
            (
                m.kernel.signal_scale / 2.0,
                m.kernel.length_scale / 5.0,
                m.noise_scale / 0.4,
            )
            for m in ms.models
        }
        assert len(combos) == 8

    def test_singleton_factors_reproduce_template(self):
        ms = build_model_set(TEMPLATE, VariantFactors(), MEAN)
        assert ms.models == (TEMPLATE,)
        np.testing.assert_allclose(ms.weights, [1.0])

    def test_template_factor_moved_to_front(self):
        f = VariantFactors(signal=(0.2, 1.0))
        assert f.signal == (1.0, 0.2)

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            VariantFactors(signal=(1.0, -0.5))
        with pytest.raises(ValueError):
            VariantFactors(signal=(0.2, 0.5))  # template combination missing


class TestPredictiveWeights:
    def test_uniform_stays_uniform(self):
        w = np.full(4, 0.25)
        np.testing.assert_allclose(predictive_weights(w, 0.9), 0.25)

    def test_alpha_one_is_exact_identity(self):
        rng = np.random.default_rng(20)
        w = random_simplex(rng, 5)
        out = predictive_weights(w, 1.0)
        assert np.array_equal(out, w)

    def test_two_weight_example(self):
        w = np.array([0.9, 0.1])
        expected = np.array([0.9**0.9, 0.1**0.9])
        expected /= expected.sum()
        np.testing.assert_allclose(predictive_weights(w, 0.9), expected, atol=1e-15)

    def test_forgetting_contracts_weight_ratios(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            w = random_simplex(rng, rng.integers(2, 9))
            alpha = rng.uniform(0.1, 0.999)
            out = predictive_weights(w, alpha)
            assert out.max() / out.min() <= (w.max() / w.min()) ** alpha + 1e-9

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            predictive_weights(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            predictive_weights(np.array([1.0]), 1.5)


class TestUpdateWeights:
    def test_flat_evidence_keeps_weights(self):
        rng = np.random.default_rng(22)
        w = random_simplex(rng, 6)
        out = update_weights(w, np.full(6, 0.3))
        np.testing.assert_allclose(out, w, atol=1e-14)

    def test_degenerate_evidence_hits_floor(self):
        out = update_weights(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert out[1] == pytest.approx(WEIGHT_FLOOR, rel=1e-6)
        assert out[0] == pytest.approx(1.0, abs=1e-9)

    def test_direct_bayes_arithmetic(self):
        out = update_weights(np.array([0.5, 0.5]), np.array([0.2, 0.6]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_all_zero_likelihoods_keep_predictive_weights(self):
        w = np.array([0.7, 0.3])
        out = update_weights(w, np.zeros(2))
        np.testing.assert_array_equal(out, w)

    def test_simplex_preserved_over_random_cycles(self):
        rng = np.random.default_rng(23)
        w = np.full(8, 1.0 / 8.0)
        for _ in range(2000):
            w = predictive_weights(w, rng.uniform(0.5, 1.0))
            lik = rng.uniform(0.0, 1.0, 8) ** rng.integers(1, 40)
            w = update_weights(w, lik)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= WEIGHT_FLOOR)

    def test_negative_likelihood_rejected(self):
        with pytest.raises(ValueError):
            update_weights(np.array([1.0]), np.array([-0.1]))


class TestModelLikelihood:
    def test_density_one_at_mean_with_unit_normalizer(self):
        var = 1.0 / (2.0 * math.pi)
        assert model_likelihood(0.4, var, 0.4) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_about_mean(self):
        assert model_likelihood(1.5, 0.7, 1.5 + 0.3) == pytest.approx(
            model_likelihood(1.5, 0.7, 1.5 - 0.3), abs=1e-15
        )

    def test_standard_normal_at_one(self):
        expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert model_likelihood(0.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_elementwise_over_models(self):
        means, variances = random_preds(np.random.default_rng(27), 5)
        lik = model_likelihood(means, variances, 0.3)
        for m, v, got in zip(means, variances, lik):
            assert got == pytest.approx(model_likelihood(m, v, 0.3), rel=1e-14)

    def test_step_likelihoods_survive_extreme_tails(self):
        # Raw densities underflow to zero this far out; the rescaled form
        # must stay finite with a maximum of one.
        means = np.array([0.0, 0.1])
        variances = np.array([1e-6, 1e-6])
        lik = step_likelihoods(means, variances, 1000.0)
        assert np.all(np.isfinite(lik))
        assert lik.max() == 1.0
        # consistency with the raw log densities
        logs = [model_log_likelihood(m, v, 1000.0) for m, v in zip(means, variances)]
        np.testing.assert_allclose(lik, np.exp(logs - np.max(logs)))


class TestFusePoe:
    def test_one_hot_reproduces_selected_model(self):
        means = np.array([-1.0, 2.0, 0.3])
        variances = np.array([0.5, 3.0, 0.01])
        fused = fuse_poe(means, variances, np.array([0.0, 1.0, 0.0]))
        assert fused.mean == pytest.approx(2.0, abs=1e-12)
        assert fused.variance == pytest.approx(3.0, abs=1e-12)

    def test_identical_inputs_are_idempotent(self):
        fused = fuse_poe(np.full(4, 0.7), np.full(4, 1.3), np.array([0.1, 0.2, 0.3, 0.4]))
        assert fused.mean == pytest.approx(0.7, abs=1e-12)
        assert fused.variance == pytest.approx(1.3, abs=1e-12)

    def test_two_model_worked_example(self):
        fused = fuse_poe(np.array([0.0, 2.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert fused.mean == pytest.approx(1.0, abs=1e-15)
        assert fused.variance == pytest.approx(1.0, abs=1e-15)

    def test_fused_mean_is_convex_combination(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = rng.integers(2, 9)
            means = rng.normal(size=n)
            variances = rng.uniform(0.01, 5.0, n)
            w = random_simplex(rng, n)
            fused = fuse_poe(means, variances, w)
            assert means.min() - 1e-12 <= fused.mean <= means.max() + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        means, variances = random_preds(rng, 6)
        w = random_simplex(rng, 6)
        fused = fuse_poe(means, variances, w)
        perm = rng.permutation(6)
        fused_p = fuse_poe(means[perm], variances[perm], w[perm])
        assert fused_p.mean == pytest.approx(fused.mean, abs=1e-12)
        assert fused_p.variance == pytest.approx(fused.variance, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_poe(np.zeros(2), np.ones(2), np.array([1.0]))


class TestFusedPredictionEquality:
    @staticmethod
    def two_model():
        return FusedPrediction(
            PredictiveDistribution(0.5, 1.0), np.array([0.2, 0.9]),
            np.array([1.0, 2.0]), np.array([0.25, 0.75]),
        )

    def test_arrays_compare_by_value(self):
        a, b = self.two_model(), self.two_model()
        assert a.means is not b.means
        assert a == b
        for name in ("means", "variances", "predictive_weights"):
            changed = getattr(b, name).copy()
            changed[1] += 0.125
            assert a != dataclasses.replace(b, **{name: changed})
        assert a != dataclasses.replace(b, fused=PredictiveDistribution(0.5, 2.0))


class TestFuseUnweighted:
    def test_single_model_identity(self):
        fused = fuse_unweighted_poe([0.9], [2.2])
        assert fused.mean == pytest.approx(0.9)
        assert fused.variance == pytest.approx(2.2)

    def test_two_identical_unit_variances_halve(self):
        assert fuse_unweighted_poe([0.0, 0.0], [1.0, 1.0]).variance == pytest.approx(0.5)

    def test_relation_to_weighted_form(self):
        rng = np.random.default_rng(26)
        n = 5
        means, variances = random_preds(rng, n)
        unweighted = fuse_unweighted_poe(means, variances)
        weighted = fuse_poe(means, variances, np.full(n, 1.0 / n))
        assert weighted.variance == pytest.approx(n * unweighted.variance, rel=1e-12)
        assert weighted.mean == pytest.approx(unweighted.mean, abs=1e-12)
