"""Tests for model-set construction, the weight recursion, and fusion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intelgp.gp import (
    VAR_FLOOR,
    Hyperparameters,
    KernelKind,
    PredictiveDistribution,
)
from intelgp.mixture import (
    NUMPY_FROM,
    WEIGHT_FLOOR,
    VariantFactors,
    add_reduce,
    build_model_set,
    fuse_poe,
    predictive_weights,
    step_likelihoods,
    update_weights,
)

TEMPLATE = Hyperparameters(KernelKind.MATERN52, 2.0, 5.0, 0.4)


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
        models = build_model_set(TEMPLATE, VariantFactors(signal=(1.0, 0.2)))
        assert len(models) == 2
        assert models[0] == TEMPLATE
        variant = models[1]
        assert variant.signal_scale == pytest.approx(0.2 * 2.0)
        assert variant.length_scale == TEMPLATE.length_scale
        assert variant.noise_scale == TEMPLATE.noise_scale

    def test_full_product_gives_eight_models(self):
        models = build_model_set(TEMPLATE, VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)))
        assert len(models) == 8
        assert models[0] == TEMPLATE
        combos = {
            (
                m.signal_scale / 2.0,
                m.length_scale / 5.0,
                m.noise_scale / 0.4,
            )
            for m in models
        }
        assert len(combos) == 8

    def test_singleton_factors_reproduce_template(self):
        assert build_model_set(TEMPLATE, VariantFactors()) == (TEMPLATE,)

    def test_template_factor_moved_to_front(self):
        f = VariantFactors(signal=(0.2, 1.0))
        assert f.signal == (1.0, 0.2)
        # and inserted when absent
        f = VariantFactors(signal=(0.2, 0.5), length=(), noise=[5])
        assert (f.signal, f.length, f.noise) == ((1.0, 0.2, 0.5), (1.0,), (1.0, 5.0))

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            VariantFactors(signal=(1.0, -0.5))

    @pytest.mark.parametrize(
        "values", [(True, 0.2), ("0.2", 1), (1.0, None), (1.0, 0.5j), 0.2, None]
    )
    def test_factor_that_is_not_a_real_number_rejected_by_name(self, values):
        with pytest.raises(ValueError, match="'length' factors must be a sequence of real"):
            VariantFactors(length=values)

    @pytest.mark.parametrize(
        "name, values", [("signal", (1.0, 0.2, 0.2)), ("length", (1.0, 1.0, 0.2)),
                         ("noise", (5.0, 1.0, 5.0))]
    )
    def test_repeated_factor_rejected_by_name(self, name, values):
        # A repeat would build the same model twice, doubling its prior
        # weight, or be merged into the template silently.
        with pytest.raises(ValueError, match=f"'{name}' factors must not repeat"):
            VariantFactors(**{name: values})

    @pytest.mark.parametrize(
        "name, value", [("signal", math.inf), ("length", math.inf), ("noise", math.nan),
                        ("length", -math.inf), ("signal", 10**400)]
    )
    def test_non_finite_factor_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}' factor {value} is not finite"):
            VariantFactors(**{name: (1.0, value)})


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

    @pytest.mark.parametrize("m", [2, 9, 27])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_nan_likelihood_makes_every_weight_nan(self, m, at):
        # As numpy's maximum, the floor keeps a nan rather than flooring it.
        likelihoods = np.ones(m)
        likelihoods[at] = np.nan
        assert np.isnan(update_weights(np.full(m, 1.0 / m), likelihoods)).all()

    def test_simplex_preserved_over_random_cycles(self):
        rng = np.random.default_rng(23)
        w = np.full(8, 1.0 / 8.0)
        for _ in range(2000):
            w = predictive_weights(w, rng.uniform(0.5, 1.0))
            lik = rng.uniform(0.0, 1.0, 8) ** rng.integers(1, 40)
            w = update_weights(w, lik)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= WEIGHT_FLOOR)


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

    @pytest.mark.parametrize("m", [2, 9, 27])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_nan_variance_makes_every_likelihood_nan(self, m, at):
        # As numpy's minimum: the smallest -2 log density is nan wherever
        # the nan sits, so every rescaled likelihood is nan.
        variances = np.ones(m)
        variances[at] = np.nan
        assert np.isnan(step_likelihoods(np.zeros(m), variances, 0.5)).all()


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

    @pytest.mark.parametrize("m", [2, 9, 27])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_nan_variance_rejected(self, m, at):
        # The fused variance is nan wherever the nan sits; the forecast
        # record refuses it.
        variances = np.ones(m)
        variances[at] = np.nan
        with pytest.raises(ValueError, match="variance must be positive, got nan"):
            fuse_poe(np.zeros(m), variances, np.full(m, 1.0 / m))

    def test_single_negative_zero_mean_fuses_to_zero(self):
        # As `means @ wp`, which adds the product to 0: a scalar product
        # alone would keep the sign of -0.0.
        fused = fuse_poe(np.array([-0.0]), np.array([1.0]), np.array([1.0]))
        assert bits(fused.mean) == bits(0.0)

    @settings(deadline=None, derandomize=True)
    @given(
        mean=st.floats(allow_nan=False, allow_infinity=False),
        variance=st.floats(min_value=VAR_FLOOR, allow_infinity=False),
    )
    def test_single_model_comes_back_bit_for_bit(self, mean, variance):
        fused = fuse_poe(np.array([mean]), np.array([variance]), np.array([1.0]))
        assert fused.mean == mean
        assert fused.variance == variance


# The weight recursion and fusion as they were written with the numpy array
# methods and without in-place operations.  The oracle of the property below.
def oracle_predictive_weights(weights, alpha):
    w = np.asarray(weights, dtype=float)
    if alpha == 1.0:
        return w.copy()
    p = w**alpha
    return p / p.sum()


def oracle_fuse_poe(means, variances, pred_weights):
    w = np.asarray(pred_weights, dtype=float)
    r = variances.min()
    wp = w * (r / variances)
    total = wp.sum()
    return PredictiveDistribution(means @ wp / total, max(r / total, VAR_FLOOR))


def oracle_step_likelihoods(means, variances, y):
    resid = y - means
    q = resid * resid / variances + np.log(variances)
    if q.min() == math.inf:  # overflow for every model: flat evidence
        return np.ones_like(q)
    return np.exp(0.5 * (q.min() - q))


def oracle_update_weights(pred_weights, likelihoods):
    w_hat = np.asarray(pred_weights, dtype=float)
    lik = np.asarray(likelihoods, dtype=float)
    top = lik.max()
    if top <= 0.0:
        return w_hat.copy()
    w = w_hat * (lik / top)
    total = w.sum()
    if total <= 0.0:
        return w_hat.copy()
    w /= total
    w = np.maximum(w, WEIGHT_FLOOR)
    w /= w.sum()
    return np.maximum(w, WEIGHT_FLOOR)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def mixture_steps(draw):
    """Weights on the floored simplex, per-model means and variances, an
    observation and a forgetting parameter, for M of 1 to NUMPY_FROM or 27
    models: every size below NUMPY_FROM, where the re-weighting runs on
    Python floats, and two sizes of its numpy code.  Observations of
    +-1e160 overflow (y - mean)^2 for every model; 1e150 overflows it over
    the smaller variances."""
    m = draw(st.sampled_from([*range(1, NUMPY_FROM + 1), 27]))

    def vector(**kw):
        return np.array(draw(st.lists(st.floats(**kw), min_size=m, max_size=m)))

    raw = vector(min_value=0.0, max_value=1.0)
    w = raw / raw.sum() if raw.sum() > 0.0 else np.full(m, 1.0 / m)
    w = np.maximum(w, WEIGHT_FLOOR)
    w /= w.sum()
    means = vector(min_value=-1e6, max_value=1e6)
    variances = vector(min_value=VAR_FLOOR, max_value=1e6)
    y = draw(st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from(list(means)),
        st.sampled_from([1e160, -1e160, 1e150]),
    ))
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return w, means, variances, y, alpha


class TestLeanStepComposition:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(mixture_steps())
    def test_step_matches_the_plain_composition_bit_for_bit(self, case):
        w, means, variances, y, alpha = case
        w_hat_want = oracle_predictive_weights(w, alpha)
        fused_want = oracle_fuse_poe(means, variances, w_hat_want)
        # As step runs the likelihoods of an observation that is not an inlier
        with np.errstate(over="ignore"):
            after_want = oracle_update_weights(
                w_hat_want, oracle_step_likelihoods(means, variances, y)
            )

        w_hat = predictive_weights(w, alpha)
        fused = fuse_poe(means, variances, w_hat)
        with np.errstate(over="ignore"):
            after = update_weights(w_hat, step_likelihoods(means, variances, y))

        assert w_hat.tobytes() == w_hat_want.tobytes()
        assert bits(fused.mean) == bits(fused_want.mean)
        assert bits(fused.variance) == bits(fused_want.variance)
        assert after.tobytes() == after_want.tobytes()


def sums_to_check(n: int) -> list[list[float]]:
    """Lists of n floats whose sum changes with the order of the additions
    or with their start, and sums drawn over 60 decades: 2,000 at each
    length below 8, 300 at each longer one.  Grouped from the
    right, [1e16, 1, 1] gives 1e16 + 2; [-0.0] summed from its first value
    gives -0.0, from 0 it gives 0.  A 1e16 in each of the 8 lanes in turn,
    a cancelling pair across two lanes and values near 1e-300 make the
    lane sums and their combination differ from any other grouping; a nan
    or an infinity sits first, in the middle or last."""
    adversarial = [
        [1e16] + [1.0] * (n - 1),
        [1.0] * (n - 1) + [1e16],
        ([1.0, 1e16, -1e16] + [0.0] * n)[:n],
        ([1e16, 1.0, 1.0, -1e16] * n)[:n],
        [-0.0] * n,
        [(-1.0) ** i * 1e-300 * (i + 1) for i in range(n)],
        [(i % 3 - 1) * 2.0 ** (i % 60) for i in range(n)],
    ]
    for lane in range(min(n, 8)):
        adversarial.append([1e16 if i == lane else 1.0 for i in range(n)])
    for special in (math.nan, math.inf, -math.inf):
        for at in (0, n // 2, n - 1):
            values = [1.0] * n
            values[at] = special
            adversarial.append(values)
    if n > 1:
        adversarial.append([math.inf] + [1.0] * (n - 2) + [-math.inf])
    rng = np.random.default_rng(n)
    shape = (2000 if n < 8 else 300, n)
    drawn = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-30, 30, shape)
    return adversarial + drawn.tolist()


class TestPairwiseBlock:
    """The Python-float sum of the re-weighting against the installed
    numpy's: `add_reduce` adds fewer than 8 values left to right, up to 128
    in 8 lanes with the rest after them, and more than 128 in halves."""

    @pytest.mark.parametrize("n", range(1, 301))
    def test_add_reduce_matches_numpy_bit_for_bit(self, n):
        with np.errstate(invalid="ignore"):
            for values in sums_to_check(n):
                want = bits(np.add.reduce(np.array(values)))
                assert bits(add_reduce(values)) == want, values
                assert bits(add_reduce(tuple(values))) == want, values


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
