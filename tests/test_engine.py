"""Tests for the streaming engine state machine."""

import copy
import dataclasses
import math
import pickle
import struct
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import flat_stream, shift_stream, spike_stream
from test_gp import change_point_windows, gap_class, oracle_predict, paired_slide

from intelgp import fit, gp
from intelgp.engine import (
    EngineConfig,
    StepOutput,
    Verdict,
    _mean,
    classify,
    initialize,
    predict_next,
    step,
)
from intelgp.gp import NumericalError, PredictiveDistribution, gp_predict
from intelgp.mixture import (
    VariantFactors,
    fuse_poe,
    predictive_weights,
    update_weights,
)

SINGLETON = EngineConfig(init_count=60, factors=VariantFactors(), seed=0)
EIGHT_MODEL = EngineConfig(
    init_count=60, factors=VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)), seed=0
)


def gapped_shift_stream(seed: int):
    """Flat stream with two isolated spikes three rows apart (two gaps in
    one window) and a sustained shift later on (a change point)."""
    history, stream = flat_stream(seed)
    stream = stream.copy()
    stream[[30, 33]] += 3.0
    stream[70:] += 3.0
    return history, stream


def window_offsets(state):
    """The offsets t* - t_i of the state's window from the next time."""
    t_star = state.current_t + 1
    return tuple(t_star - t for t in state.window.times)


def stream_through(state, values):
    outputs = []
    for y in values:
        state, out = step(state, y)
        outputs.append(out)
    return state, outputs


class TestClassify:
    def test_center_is_inlier(self):
        assert classify(PredictiveDistribution(0.0, 1.0), 0.0) is True

    def test_boundary_is_excluded(self):
        assert classify(PredictiveDistribution(0.0, 1.0), 3.0) is False
        assert classify(PredictiveDistribution(0.0, 1.0), -3.0) is False

    def test_three_point_two_sigma_is_candidate(self):
        assert classify(PredictiveDistribution(0.0, 0.25), -1.6) is False

    def test_just_inside_is_inlier(self):
        assert classify(PredictiveDistribution(0.0, 1.0), 2.999999) is True


class TestInitialize:
    def test_window_holds_last_tau_points(self):
        rng = np.random.default_rng(30)
        history = rng.uniform(-0.1, 0.1, 200)
        config = EngineConfig(init_count=200, factors=VariantFactors(), seed=0)
        state = initialize(np.arange(200), history, config)
        assert len(state.window) == 20
        assert state.window.times == tuple(range(180, 200))
        np.testing.assert_array_equal(state.window.values, history[-20:])
        assert state.current_t == 199
        assert len(state.bucket) == 0

    def test_short_history_fills_window_partially(self):
        history, _ = flat_stream(31, n_history=12)
        config = EngineConfig(init_count=12, factors=VariantFactors(), seed=0)
        state = initialize(np.arange(12), history, config)
        assert len(state.window) == 12

    def test_mean_and_weights(self):
        history = np.full(50, 3.25)
        history += np.concatenate([np.zeros(49), [1e-9]])  # avoid degenerate fit data
        state = initialize(np.arange(50), history, EIGHT_MODEL)
        assert state.shared_mean == state.fit.mean
        assert state.shared_mean == pytest.approx(3.25, abs=1e-9)
        np.testing.assert_allclose(state.weights, 1.0 / 8.0)

    def test_sintel_mode_forces_singleton(self):
        # SINTEL is the same config with the template model alone
        history, _ = flat_stream(32)
        intel = initialize(np.arange(60), history, EIGHT_MODEL)
        sintel_config = dataclasses.replace(EIGHT_MODEL, factors=VariantFactors())
        sintel = initialize(np.arange(60), history, sintel_config)
        assert len(sintel.models) == 1
        assert sintel.models[0] == intel.models[0]

    def test_integral_float_times_with_gaps_accepted(self):
        history, _ = flat_stream(58)
        times = np.concatenate([np.arange(30.0), np.arange(40.0, 70.0)])
        state = initialize(times, history, SINGLETON)
        assert state.window.times == tuple(range(50, 70))
        assert state.current_t == 69

    def test_fractional_times_rejected(self):
        history, _ = flat_stream(59)
        with pytest.raises(ValueError, match="integers"):
            initialize(np.arange(60) * 0.5, history, SINGLETON)

    def test_decreasing_times_rejected(self):
        history, _ = flat_stream(60)
        with pytest.raises(ValueError, match="increasing"):
            initialize(np.arange(60)[::-1], history, SINGLETON)

    @pytest.mark.parametrize(
        "times", [1e20 + 2.0**20 * np.arange(60), np.arange(2**60, 2**60 + 60)],
        ids=["float-1e20", "int64-2**60"],
    )
    def test_times_float64_cannot_hold_rejected_naming_the_bound(self, times):
        # The fit takes the times as float64: the first history failed only
        # in the first step, the second was refused as not increasing.
        history, _ = flat_stream(61)
        with pytest.raises(ValueError, match=r"between -2\*\*53 and 2\*\*53"):
            initialize(times, history, SINGLETON)

    def test_times_just_below_the_bound_stream(self):
        history, stream = flat_stream(61)
        state = initialize(np.arange(2**53 - 60, 2**53), history, SINGLETON)
        state, out = step(state, stream[0])
        assert out.t == 2**53

    @pytest.mark.parametrize("n_obs, match", [(59, "60 times but 59 observations"),
                                              (61, "60 times but 61 observations")])
    def test_history_lengths_differing_rejected_before_the_fit(self, n_obs, match, monkeypatch):
        evaluations = []
        monkeypatch.setattr(fit, "lml_gradient", lambda *args: evaluations.append(args))
        history = np.random.default_rng(62).normal(size=n_obs)
        with pytest.raises(ValueError, match=match):
            initialize(np.arange(60), history, SINGLETON)
        assert evaluations == []

    @pytest.mark.parametrize("shape", [(60, 1), (6, 10)])
    def test_a_two_d_history_rejected_before_the_fit(self, shape, monkeypatch):
        evaluations = []
        monkeypatch.setattr(fit, "lml_gradient", lambda *args: evaluations.append(args))
        history = np.random.default_rng(64).normal(size=shape)
        with pytest.raises(ValueError, match=rf"shapes \({shape[0]}, {shape[1]}\) and"):
            initialize(np.arange(60).reshape(shape), history, SINGLETON)
        assert evaluations == []

    def test_short_history_rejected_before_the_fit(self, monkeypatch):
        evaluations = []
        monkeypatch.setattr(fit, "lml_gradient", lambda *args: evaluations.append(args))
        history, _ = flat_stream(63, n_history=7)
        with pytest.raises(ValueError, match="at least 8"):
            initialize(np.arange(7), history, SINGLETON)
        assert evaluations == []

    @pytest.mark.parametrize(
        "times, history, match",
        [
            pytest.param([], [], "at least 8", id="empty"),
            pytest.param(np.arange(10), [0.0] * 4 + [np.inf, -np.inf] + [0.0] * 4, "finite",
                         id="both-infinities"),
        ],
    )
    def test_bad_history_raises_the_fits_error_without_a_warning(self, times, history, match):
        # The prior mean is taken after the fit's checks: before them, numpy
        # warns of an empty slice or of inf - inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=match):
                initialize(times, history, EngineConfig(init_count=8))

    def test_overflowing_factor_fails_before_any_step(self):
        # The signal variance of the f=1e200 variant overflows to inf.
        history, _ = flat_stream(61)
        config = dataclasses.replace(SINGLETON, factors=VariantFactors((1.0, 1e200)))
        with pytest.raises(NumericalError, match="non-finite"):
            initialize(np.arange(60), history, config)

    @pytest.mark.parametrize("init_count", [0, -5, 7])
    def test_init_count_below_fit_minimum_rejected(self, init_count):
        with pytest.raises(ValueError, match="'init_count' must be >= 8"):
            EngineConfig(init_count=init_count)


class TestEngineConfig:
    """EngineConfig is where the streaming parameters enter; the mixture
    arithmetic behind it trusts them."""

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"'alpha' must be in \(0, 1\]"):
            EngineConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [True, "0.5", None, 0.5j])
    def test_alpha_not_a_real_number_rejected(self, alpha):
        with pytest.raises(ValueError, match="'alpha' must be a real number"):
            EngineConfig(alpha=alpha)

    @pytest.mark.parametrize(
        "name", ["tau", "n_outliers", "mean_period", "init_count", "seed"]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_integer_field_rejects_other_types_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
            EngineConfig(**{name: value})

    def test_negative_seed_rejected_by_name(self):
        # numpy's generator would reject it only inside the fit, unnamed.
        with pytest.raises(ValueError, match="'seed' must be >= 0"):
            EngineConfig(seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [("kernel_kind", "se"), ("kernel_kind", None), ("factors", {"f": 0.2}),
         ("factors", (1.0, 0.2))],
    )
    def test_object_field_of_the_wrong_type_rejected_by_name(self, name, value):
        # Before initialize, whose fit would otherwise fail on every start.
        with pytest.raises(ValueError, match=f"'{name}' must be a"):
            EngineConfig(**{name: value})

    @pytest.mark.parametrize(
        "tau", [10**400, 2**62, np.int64(2**62)], ids=["10**400", "2**62", "int64(2**62)"]
    )
    def test_tau_beyond_numpy_largest_table_rejected_by_name(self, tau):
        # Before initialize, whose precision table numpy would refuse only
        # after the fit, naming no key.
        with pytest.raises(ValueError, match="'tau' must be <= "):
            EngineConfig(tau=tau)

    @pytest.mark.parametrize(
        "factors, models",
        [(VariantFactors(), 1), (EIGHT_MODEL.factors, 8),
         (VariantFactors((1.0, 0.2, 5.0), (1.0, 0.2, 5.0), (1.0, 0.2, 5.0)), 27)],
    )
    def test_largest_tau_is_that_of_numpy_largest_table(self, factors, models):
        def table_bytes(tau):  # (2, M, tau+1, tau+1) float64
            return 2 * models * (tau + 1) ** 2 * 8

        limit = np.iinfo(np.intp).max
        largest = math.isqrt(limit // (16 * models)) - 1
        assert table_bytes(largest) <= limit < table_bytes(largest + 1)
        assert EngineConfig(tau=largest, factors=factors).tau == largest
        with pytest.raises(ValueError, match=f"'tau' must be <= {largest} for {models} models"):
            EngineConfig(tau=largest + 1, factors=factors)

    def test_numpy_numbers_accepted(self):
        config = EngineConfig(tau=np.int64(5), seed=np.int32(2), alpha=np.float64(0.5))
        assert (config.tau, config.seed, config.alpha) == (5, 2, 0.5)
        assert EngineConfig(alpha=1).alpha == 1


def assert_window_bound(state):
    """The window rule of every state: distinct times in order, all within
    `tau` of the next time, and a precision and covariance table over
    0..tau."""
    tau = state.config.tau
    assert len(state.window) <= tau
    assert all(t > state.current_t - tau for t in state.window.times)
    assert list(state.window.times) == sorted(set(state.window.times))
    assert state.table.shape == (2, len(state.models), tau + 1, tau + 1)


def step_against_oracle(state, y):
    """Step, checking every model's prediction against brute-force
    conditioning on the window it was made from."""
    window, c, t_star = state.window, state.shared_mean, state.current_t + 1
    state, out = step(state, y)
    for h, m, v in zip(state.models, out.means, out.variances):
        m_ref, v_ref = oracle_predict(h, c, window.times, window.values, t_star)
        assert m == pytest.approx(m_ref, abs=1e-8)
        assert v == pytest.approx(v_ref, abs=1e-8)
    return state


class TestGappedHistory:
    # The last 20 history times are 3 apart, 40 through 97: only the 7 of
    # them from 79 on lie within tau = 20 of the next time, 98.
    TIMES = np.concatenate([np.arange(40), 40 + 3 * np.arange(20)])

    def test_first_predictions_match_the_oracle(self):
        history, stream = gapped_shift_stream(62)
        state = initialize(self.TIMES, history, EIGHT_MODEL)
        assert state.window.times == tuple(range(79, 98, 3))
        assert state.window.values == tuple(history[-7:])
        assert state.current_t + 1 - state.window.times[0] == 19
        assert state.table.shape == (2, 8, 21, 21)
        for y in stream[:3]:
            state = step_against_oracle(state, y)

    def test_window_stays_bound_over_a_run(self):
        history, stream = gapped_shift_stream(63)
        state = initialize(self.TIMES, history, EIGHT_MODEL)
        assert_window_bound(state)
        for y in stream[:60]:
            state, _ = step(state, y)
            assert_window_bound(state)

    def test_far_gap_leaves_one_point_and_a_tau_wide_table(self):
        # 40 contiguous points, then one 10^5 steps after the last of them:
        # the table is sized by tau, not by the gap.
        history, stream = flat_stream(64, n_history=41)
        times = np.append(np.arange(40), 39 + 10**5)
        state = initialize(times, history, EIGHT_MODEL)
        assert state.window.times == (39 + 10**5,)
        assert state.window.values == (history[-1],)
        assert state.table.shape == (2, 8, EIGHT_MODEL.tau + 1, EIGHT_MODEL.tau + 1)
        step_against_oracle(state, stream[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_first_window_keeps_the_last_tau_time_steps(self, seed):
        # Random gaps of 1..2·tau: the first window is exactly the history
        # points that step would keep, those after current_t - tau.
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.integers(1, 2 * SINGLETON.tau + 1, size=60))
        history, _ = flat_stream(65 + seed)
        state = initialize(times, history, SINGLETON)
        kept = times > times[-1] - SINGLETON.tau
        assert state.window.times == tuple(int(t) for t in times[kept])
        assert state.window.values == tuple(history[kept])
        assert_window_bound(state)


class TestPredictNext:
    def test_empty_window_fused_mean_is_constant(self):
        history, _ = flat_stream(33)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        state_empty = dataclasses.replace(
            state, window=type(state.window)(), inliers_since_refresh=0
        )
        fused = predict_next(state_empty)
        assert fused.mean == pytest.approx(state.shared_mean, abs=1e-12)

    def test_single_model_fusion_is_identity(self):
        history, _ = flat_stream(34)
        state = initialize(np.arange(60), history, SINGLETON)
        fused = predict_next(state)
        means, variances = gp_predict(
            window_offsets(state), state.window.values, state.shared_mean, state.table, {}
        )
        assert fused.mean == means[0]
        assert fused.variance == variances[0]

    def test_matches_hand_rolled_pipeline(self):
        history, _ = flat_stream(35)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        fused = predict_next(state)
        means, variances = gp_predict(
            window_offsets(state), state.window.values, state.shared_mean, state.table, {}
        )
        w_hat = predictive_weights(state.weights, state.config.alpha)
        ref = fuse_poe(means, variances, w_hat)
        assert fused.mean == pytest.approx(ref.mean, abs=1e-15)
        assert fused.variance == pytest.approx(ref.variance, abs=1e-15)

    def test_pure_no_state_mutation(self):
        history, _ = flat_stream(36)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        weights_before = state.weights.copy()
        predict_next(state)
        np.testing.assert_array_equal(state.weights, weights_before)


class TestStepScenarios:
    def test_clean_stream_has_no_anomalies(self):
        history, stream = flat_stream(37, n_stream=200)
        state = initialize(np.arange(60), history, SINGLETON)
        _, outputs = stream_through(state, stream)
        assert all(o.verdict is Verdict.INLIER for o in outputs)

    def test_isolated_spike_is_single_outlier(self):
        history, stream, at = spike_stream(38)
        state = initialize(np.arange(60), history, SINGLETON)
        _, outputs = stream_through(state, stream)
        counts = Counter(o.verdict for o in outputs)
        assert counts[Verdict.OUTLIER] == 1
        assert counts[Verdict.CHANGE_POINT] == 0
        assert outputs[at].verdict is Verdict.OUTLIER
        assert outputs[at + 1].verdict is Verdict.INLIER

    def test_sustained_shift_becomes_change_point(self):
        history, stream, onset = shift_stream(39)
        state = initialize(np.arange(60), history, SINGLETON)
        _, outputs = stream_through(state, stream)
        counts = Counter(o.verdict for o in outputs)
        assert counts[Verdict.CHANGE_POINT] == 1
        cp = outputs[onset + 2]
        assert cp.verdict is Verdict.CHANGE_POINT
        assert cp.regime_start == 60 + onset
        expected_mean = float(np.mean(stream[onset:onset + 3]))
        assert cp.mean_const == expected_mean

    def test_change_point_captures_bucket_as_window(self):
        history, stream, onset = shift_stream(40)
        state = initialize(np.arange(60), history, SINGLETON)
        for y in stream[: onset + 3]:
            state, out = step(state, y)
        assert out.verdict is Verdict.CHANGE_POINT
        assert len(state.window) == 3
        assert state.window.times == (60 + onset, 61 + onset, 62 + onset)
        np.testing.assert_array_equal(state.window.values, stream[onset:onset + 3])
        assert len(state.bucket) == 0
        assert state.inliers_since_refresh == 0

    def test_bucket_values_discarded_when_inlier_arrives(self):
        history, stream, at = spike_stream(41)
        state = initialize(np.arange(60), history, SINGLETON)
        discarded = set()
        for y in stream:
            bucket_before = set(state.bucket.times)
            state, out = step(state, y)
            if out.verdict is Verdict.INLIER and bucket_before:
                discarded |= bucket_before
            assert not discarded & set(state.window.times)
        assert discarded == {60 + at}
        assert len(state.bucket) == 0


class TestStepInvariants:
    def test_window_and_bucket_bounds(self):
        history, stream, _ = shift_stream(42)
        config = EngineConfig(
            init_count=60, tau=15, n_outliers=3, factors=VariantFactors(), seed=0
        )
        state = initialize(np.arange(60), history, config)
        for y in stream:
            state, out = step(state, y)
            assert len(state.window) <= 15
            assert len(state.bucket) < 3
            assert all(
                t >= state.current_t + 1 - 15 for t in state.window.times
            )
            assert list(state.window.times) == sorted(set(state.window.times))

    def test_verdict_is_exactly_one_of_three(self):
        history, stream, _ = shift_stream(43)
        state = initialize(np.arange(60), history, SINGLETON)
        _, outputs = stream_through(state, stream)
        assert all(isinstance(o.verdict, Verdict) for o in outputs)

    def test_step_is_pure_and_deterministic(self):
        history, stream = flat_stream(44)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        for y in stream[:10]:
            state, _ = step(state, y)
        weights_before = state.weights.copy()
        window_before = state.window
        s1, o1 = step(state, stream[10])
        s2, o2 = step(state, stream[10])
        np.testing.assert_array_equal(state.weights, weights_before)
        assert state.window is window_before
        assert o1.fused == o2.fused
        np.testing.assert_array_equal(o1.weights_after, o2.weights_after)
        assert s1.window == s2.window
        assert o1.verdict == o2.verdict

    def test_prediction_precedes_observation(self):
        history, stream = flat_stream(45)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        _, out_small = step(state, stream[0])
        _, out_large = step(state, 99.0)
        assert out_small.fused == out_large.fused

    def test_weights_update_on_outlier_steps(self):
        history, stream, at = spike_stream(46)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        for y in stream[:at]:
            state, _ = step(state, y)
        before = state.weights.copy()
        state, out = step(state, stream[at])
        assert out.verdict is Verdict.OUTLIER
        assert not np.allclose(out.weights_after, before, atol=1e-12)

    def test_far_out_observation_is_flat_evidence(self):
        # Every model's density underflows at 1e160, so the evidence says
        # nothing and the weights are the floored predictive weights.
        rng = np.random.default_rng(61)
        config = EngineConfig(init_count=60, factors=VariantFactors((1.0, 0.2)), seed=0)
        state = initialize(np.arange(60), rng.normal(size=60), config)
        state, _ = stream_through(state, rng.normal(size=10))
        w_hat = predictive_weights(state.weights, config.alpha)
        after, out = step(state, 1e160)
        assert out.verdict is Verdict.OUTLIER
        assert np.all(np.isfinite(after.weights))
        assert after.weights.tobytes() == update_weights(w_hat, np.ones(2)).tobytes()
        step(after, 0.0)

    def test_non_finite_observation_rejected(self):
        history, stream = flat_stream(47)
        state = initialize(np.arange(60), history, SINGLETON)
        with pytest.raises(ValueError):
            step(state, float("nan"))


class TestHostileStreams:
    def test_invariants_hold_under_heavy_tails_and_jumps(self):
        # Heavy-tailed noise, huge spikes, a sustained jump, and edge
        # configurations: N down to 1, tau down to 1, N and L above tau,
        # and alpha at 1 (no forgetting).
        from intelgp.mixture import WEIGHT_FLOOR

        factors = VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0))
        for seed, tau, n_out, mean_period, alpha in [
            (1000, 5, 1, 2, 0.9),
            (1001, 12, 3, 7, 0.9),
            (1002, 25, 4, 14, 0.9),
            (1003, 20, 2, 10, 0.9),
            (1004, 1, 1, 1, 0.9),
            (1005, 3, 5, 2, 0.9),
            (1006, 5, 2, 12, 0.9),
            (1007, 20, 3, 10, 1.0),
        ]:
            rng = np.random.default_rng(seed)
            history = rng.normal(0, 1.0, 60)
            stream = rng.standard_t(2, 250) * 0.5
            stream[rng.integers(0, 250, 4)] += rng.choice([-1, 1], 4) * 30
            stream[125:] += 15
            config = EngineConfig(
                init_count=60,
                tau=tau,
                n_outliers=n_out,
                mean_period=mean_period,
                alpha=alpha,
                factors=factors,
                seed=seed,
            )
            state = initialize(np.arange(60), history, config)
            for y in stream:
                state, out = step(state, y)
                w = state.weights
                assert abs(w.sum() - 1.0) < 1e-12
                assert np.all(w >= WEIGHT_FLOOR)
                assert len(state.window) <= tau
                assert all(t > state.current_t - tau for t in state.window.times)
                assert len(state.bucket) < n_out
                assert out.fused.variance > 0
                assert np.isfinite(out.fused.mean)


class TestMeanRefresh:
    def test_refresh_after_mean_period_inliers(self):
        history, stream = flat_stream(48)
        offset = 0.05
        config = EngineConfig(
            init_count=60, mean_period=10, factors=VariantFactors(), seed=0
        )
        state = initialize(np.arange(60), history, config)
        c0 = state.shared_mean
        shifted = stream[:10] + offset
        for i, y in enumerate(shifted):
            state, out = step(state, y)
            if i < 9:
                assert out.mean_const == c0
        assert out.mean_const == float(np.mean(shifted))
        assert state.inliers_since_refresh == 0

    def test_refresh_mean_of_equal_values(self):
        # The history ends on a 1e-9 bump, so the initial mean is not 1.75;
        # the 10th streamed 1.75 sets it to the average of the last ten
        # window values, which is 1.75 exactly.  One more value in the
        # slice would take in the bump.
        history = np.full(60, 1.75)
        history[-1] += 1e-9
        state = initialize(np.arange(60), history, SINGLETON)
        assert state.config.mean_period == 10
        assert state.shared_mean != 1.75
        _, outputs = stream_through(state, [1.75] * 10)
        assert all(o.verdict is Verdict.INLIER for o in outputs)
        assert outputs[-2].mean_const != 1.75
        assert outputs[-1].mean_const == 1.75

    def test_refresh_two_values(self):
        history, _ = flat_stream(50)
        config = EngineConfig(
            init_count=60, mean_period=2, factors=VariantFactors(), seed=0
        )
        state = initialize(np.arange(60), history, config)
        state, _ = step(state, 0.01)
        state, out = step(state, 0.03)
        assert out.mean_const == pytest.approx(0.02, abs=1e-15)
        assert out.mean_const == float(np.mean([0.01, 0.03]))

    def test_refresh_matches_independent_mean(self):
        history, stream = flat_stream(51, n_stream=30)
        config = EngineConfig(
            init_count=60, mean_period=10, factors=VariantFactors(), seed=0
        )
        state = initialize(np.arange(60), history, config)
        _, outputs = stream_through(state, stream)
        assert all(o.verdict is Verdict.INLIER for o in outputs)
        # refreshes land on the 10th, 20th, 30th inliers
        for k in (9, 19, 29):
            assert outputs[k].mean_const == float(np.mean(stream[k - 9 : k + 1]))

    def test_refresh_longer_than_tau_averages_the_window_before_its_trim(self):
        # With mean_period > tau the refresh takes the whole window with the
        # new value appended: tau + 1 values, one more than the trim keeps.
        history, stream = flat_stream(52, n_stream=12)
        config = EngineConfig(
            init_count=60, tau=5, mean_period=12, factors=VariantFactors(), seed=0
        )
        state = initialize(np.arange(60), history, config)
        _, outputs = stream_through(state, stream)
        assert all(o.verdict is Verdict.INLIER for o in outputs)
        assert outputs[-1].mean_const == float(np.mean(stream[-6:]))
        assert outputs[-1].mean_const != float(np.mean(stream[-5:]))

    def test_mean_is_numpys_bit_for_bit(self):
        # The refresh slices the window's tuple; past 7 values numpy sums
        # in 8 lanes, past 128 in halves.
        rng = np.random.default_rng(61)
        for n in range(1, 301):
            for values in (rng.normal(3.0, 1e3, n), 10.0 ** rng.uniform(-20, 20, n)):
                values = tuple(values.tolist())
                assert bits(_mean(values)) == bits(float(np.mean(values))), values

    @pytest.mark.parametrize("n_outliers", [3, 9])
    def test_change_point_mean_is_the_bucket_mean(self, n_outliers):
        history, stream, _ = shift_stream(58)
        config = EngineConfig(
            init_count=60, n_outliers=n_outliers, factors=VariantFactors(), seed=0
        )
        state = initialize(np.arange(60), history, config)
        declared = 0
        for y in stream:
            bucket = state.bucket.values + (float(y),)
            state, out = step(state, y)
            if out.verdict is Verdict.CHANGE_POINT:
                declared += 1
                assert len(bucket) == n_outliers
                assert out.mean_const == float(np.mean(bucket))
        assert declared >= 1


class TestPredictorCache:
    def test_matches_uncached_gp_predict_at_every_step(self, monkeypatch):
        # A small limit makes the cache evict entries within the stream,
        # and with no gap class filled every window is a single miss.
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", 4)
        monkeypatch.setattr(gp, "_FILL_GATHER", 0)
        history, stream = gapped_shift_stream(52)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        assert len(state.cache) == 0
        verdicts, most_gaps, fullest = [], 0, 0
        for y in stream:
            means, variances = gp_predict(
                window_offsets(state), state.window.values, state.shared_mean, state.table, {}
            )
            times = state.window.times
            most_gaps = max(most_gaps, times[-1] - times[0] + 1 - len(times))
            state, out = step(state, y)
            assert out.means.tobytes() == means.tobytes()
            assert out.variances.tobytes() == variances.tobytes()
            verdicts.append(out.verdict)
            fullest = max(fullest, len(state.cache))
            assert fullest <= gp.PREDICTOR_CACHE_SIZE
        assert most_gaps == 2
        assert verdicts.count(Verdict.OUTLIER) >= 2
        assert Verdict.CHANGE_POINT in verdicts
        assert fullest == gp.PREDICTOR_CACHE_SIZE

    def test_each_distinct_window_key_misses_once(self, monkeypatch):
        # The cache key is the key perfbench/spans.window_keys counts, so no
        # key is computed twice, one `initialize` fills, a miss's own or a
        # slide a miss solves with it, every window solved is stored, and
        # the repeat share is at most the hit share.  Under a quarter of
        # the gather cap the two-gap class is not filled, and its windows'
        # misses pair.
        solved = []

        def counted(index, *args, _original=gp._solve_windows):
            solved.append(1 if index.ndim == 2 else len(index))
            return _original(index, *args)

        class Written(dict):
            """Logs the keys written."""

            def __setitem__(self, key, value):
                computed.append(key)
                super().__setitem__(key, value)

        history, stream = gapped_shift_stream(52)
        for gather in (None, 1 << 15):
            if gather is not None:
                monkeypatch.setattr(gp, "_FILL_GATHER", gather)
            state = initialize(np.arange(60), history, EIGHT_MODEL)
            computed = list(state.cache)
            start = len(computed)
            state = dataclasses.replace(state, cache=Written(state.cache))
            solved.clear()
            monkeypatch.setattr(gp, "_solve_windows", counted)
            keys = set()
            for y in stream:
                keys.add(window_offsets(state))
                state, _ = step(state, y)
            monkeypatch.undo()
            assert len(computed) == len(set(computed)) == len(state.cache) < gp.PREDICTOR_CACHE_SIZE
            assert sum(solved) == len(computed) - start
            assert set(computed) >= keys
            assert len(keys) < len(stream)
            assert (max(solved) == 2) == (gather is not None)

    @pytest.mark.parametrize("gather, classes", [
        (None, (1, 2)), (1 << 30, (1, 2)), (1 << 15, (1,)),
    ])
    def test_matches_uncached_gp_predict_with_gap_class_fills(self, monkeypatch, gather, classes):
        # `initialize` fills the gap classes that fit the gather cap (at
        # M=8 both, as without the cap; one under a quarter of it) and the
        # windows a change point regrows.  The stream's one- and two-gap
        # windows and its regrowing window hit them, or, for the two-gap
        # class left out, the slide a miss solved with it, and every step
        # still gives the bits of an uncached prediction.
        if gather is not None:
            monkeypatch.setattr(gp, "_FILL_GATHER", gather)
        history, stream = gapped_shift_stream(52)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        tau = EIGHT_MODEL.tau
        regrown = change_point_windows(tau)
        filled = set().union(*(gap_class(tau, gaps) for gaps in classes), regrown)
        assert set(state.cache) == filled
        most_gaps, served, slides = 0, Counter(), set()
        for y in stream:
            offsets = window_offsets(state)
            means, variances = gp_predict(
                offsets, state.window.values, state.shared_mean, state.table, {}
            )
            times = state.window.times
            most_gaps = max(most_gaps, times[-1] - times[0] + 1 - len(times))
            before = list(state.cache)
            slide = paired_slide(offsets, tau) if offsets not in state.cache else None
            state, out = step(state, y)
            assert out.means.tobytes() == means.tobytes()
            assert out.variances.tobytes() == variances.tobytes()
            if offsets in before:
                assert list(state.cache) == before
            else:
                added = [offsets] + ([slide] if slide and slide not in before else [])
                assert list(state.cache) == before + added
                slides.update(added[1:])
            if offsets in slides:
                served["slide"] += 1
            elif offsets in regrown:
                served["change point"] += 1
            elif offsets in filled:
                served[tau - len(offsets)] += 1
        assert most_gaps == 2
        assert set(served) == {*classes, "change point"} | ({"slide"} if 2 not in classes else set())
        assert len(state.cache) < gp.PREDICTOR_CACHE_SIZE

    def test_the_step_after_an_isolated_outlier_in_a_3_gap_window_solves_nothing(
            self, monkeypatch):
        # At M=27 the two-gap class is not filled.  Spikes at rows 30, 33
        # and 36 leave gaps at offsets 1, 4 and 7 of the window the next
        # step predicts from, which holds offset 20: its miss also solves
        # the window an inlier moves it to, so the step after that makes
        # no `_solve_windows` call.
        history, stream = flat_stream(52)
        stream = stream.copy()
        stream[[30, 33, 36]] += 3.0
        config = EngineConfig(init_count=60, factors=VariantFactors(
            (1.0, 0.2, 5.0), (1.0, 0.2, 5.0), (1.0, 0.2, 5.0)), seed=0)
        state, outputs = stream_through(initialize(np.arange(60), history, config), stream[:37])
        assert len(state.weights) == 27
        # The window spans rows 17 to 36; an early row may be an outlier.
        assert [i for i, out in enumerate(outputs)
                if i >= 17 and out.verdict is not Verdict.INLIER] == [30, 33, 36]
        offsets = window_offsets(state)
        assert offsets == tuple(p for p in range(20, 0, -1) if p not in (1, 4, 7))
        assert offsets not in state.cache
        solved = []

        def counted(index, *args, _original=gp._solve_windows):
            solved.append(index.shape)
            return _original(index, *args)

        monkeypatch.setattr(gp, "_solve_windows", counted)
        state, out = step(state, stream[37])
        assert out.verdict is Verdict.INLIER and solved == [(2, 21, 4)]
        assert window_offsets(state) == tuple(p for p in range(20, 0, -1) if p not in (2, 5, 8))
        state, out = step(state, stream[38])
        assert out.verdict is Verdict.INLIER and solved == [(2, 21, 4)]

    def test_every_initialize_starts_a_new_cache_of_the_classes_that_fit(self):
        # At M=8 and tau=20 both gap classes fit the gather cap, and so do
        # the windows a change point regrows.
        start = gap_class(20, 1) | gap_class(20, 2) | change_point_windows(20)
        history, stream = flat_stream(53)
        first = initialize(np.arange(60), history, EIGHT_MODEL)
        assert set(first.cache) == start
        stream_through(first, stream[:20])
        assert len(first.cache) > len(start)
        second = initialize(np.arange(60), history, EIGHT_MODEL)
        assert set(second.cache) == start
        assert second.cache is not first.cache

    def test_a_change_point_regrows_its_window_without_a_miss(self):
        # From the bucket's 3..1 the window grows one offset a step until
        # it is full again; the full window 20..1 was the first step's
        # miss, and `initialize` filled the others.
        history, stream, onset = shift_stream(57)
        state, outputs = stream_through(initialize(np.arange(60), history, EIGHT_MODEL),
                                        stream[:onset + 3])
        assert [out.verdict for out in outputs[onset:]] == [Verdict.OUTLIER] * 2 + [
            Verdict.CHANGE_POINT]
        entries = len(state.cache)
        for n in range(3, 21):
            assert window_offsets(state) == tuple(range(n, 0, -1))
            state, out = step(state, stream[onset + n])
            assert out.verdict is Verdict.INLIER
            assert len(state.cache) == entries

    def test_full_cache_drops_its_oldest_insertion(self, monkeypatch):
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", 2)
        table = initialize(np.arange(60), flat_stream(56)[0], EIGHT_MODEL).table
        mean = 0.0
        cache = {}
        windows = [tuple(range(20 - n, 0, -1)) for n in (0, 1, 2)]
        for offsets in (windows[0], windows[1], windows[0], windows[2]):
            ys = np.sin(20 - np.array(offsets))
            got = gp_predict(offsets, ys, mean, table, cache)
            want = gp_predict(offsets, ys, mean, table, {})
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert list(cache) == [windows[i] for i in (1, 2)]

    def test_a_hit_never_writes(self):
        class CountingDict(dict):
            """Counts the entries written."""

            writes = 0

            def __setitem__(self, key, value):
                self.writes += 1
                super().__setitem__(key, value)

            def update(self, other):
                self.writes += len(other)
                super().update(other)

        state = initialize(np.arange(60), flat_stream(56)[0], EIGHT_MODEL)
        table = state.table
        cache = CountingDict(state.cache)
        # a is the full window and misses; b lacks offset 20, a window of
        # the one-gap class that `initialize` filled, and hits.
        a, b = tuple(range(20, 0, -1)), tuple(range(19, 0, -1))
        start = set(cache)
        assert b in start and a not in start
        writes = []
        for offsets in (a, b, a, b, *start):
            gp_predict(offsets, np.sin(20 - np.array(offsets)), 0.0, table, cache)
            writes.append(cache.writes)
        assert writes == [1] * len(writes)
        assert set(list(cache)[:-1]) == start and list(cache)[-1] == a

    def test_cache_is_out_of_equality_and_repr(self):
        history, stream = flat_stream(54)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        assert state.weights.size == 8
        predict_next(state)
        assert len(state.cache) > 0
        assert "cache" not in repr(state)
        assert dataclasses.replace(state, cache={}) == state
        # Equal weights held in another array, and different weights.
        assert state == dataclasses.replace(state, weights=state.weights.copy())
        other = np.full(state.weights.size, 0.5 / (state.weights.size - 1))
        other[0] = 0.5
        assert state != dataclasses.replace(state, weights=other)
        # The next state, and a fork, fill the same cache.
        after, _ = step(state, stream[0])
        fork, _ = step(state, stream[0])
        assert after.cache is state.cache
        assert fork.cache is state.cache


def stepped_mid_stream():
    """A state after an outlier, its bucket not empty, and the output and
    state of the step after it."""
    history, stream = gapped_shift_stream(59)
    state, _ = stream_through(initialize(np.arange(60), history, EIGHT_MODEL), stream[:31])
    assert len(state.bucket) == 1
    return state, stream[31:], step(state, stream[31])


def bits(value):
    """A field's value with floats and arrays as their bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


class TestRecords:
    """What `step` returns is immutable, and the records that a run keeps,
    one per step, carry no per-instance `__dict__`."""

    def test_every_field_is_frozen(self):
        _, _, (state, out) = stepped_mid_stream()
        for record in (state, out, out.fused, state.window, state.bucket):
            for f in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))

    def test_replace_and_equality_work(self):
        _, _, (state, out) = stepped_mid_stream()
        for record in (state, out, out.fused, state.window):
            again = dataclasses.replace(record)
            assert again == record and again is not record
        assert dataclasses.replace(state, weights=state.weights + 0.0) == state
        assert dataclasses.replace(state, shared_mean=state.shared_mean + 1.0) != state
        assert dataclasses.replace(out, means=out.means + 0.0) == out
        assert dataclasses.replace(out, t=out.t + 1) != out
        assert dataclasses.replace(out.fused, mean=out.fused.mean + 1.0) != out.fused

    def test_state_from_step_holds_every_field(self):
        _, _, (state, _) = stepped_mid_stream()
        assert list(vars(state)) == [f.name for f in dataclasses.fields(state)]

    def test_outputs_of_step_equal_the_keyword_built_ones(self):
        # step stores an output's slots one by one.  Each is set and
        # frozen, and the output is the one keyword construction builds
        # from the values that the state before and after the step give.
        state, rest, _ = stepped_mid_stream()
        config = state.config
        verdicts = set()
        for y in rest[:45]:
            before = state
            t = before.current_t + 1
            fused = predict_next(before)
            means, variances = gp_predict(
                window_offsets(before), before.window.values, before.shared_mean,
                before.table, before.cache,
            )
            if classify(fused, y):
                verdict, regime_start = Verdict.INLIER, None
            elif len(before.bucket) + 1 >= config.n_outliers:
                verdict, regime_start = Verdict.CHANGE_POINT, (before.bucket.times + (t,))[0]
            else:
                verdict, regime_start = Verdict.OUTLIER, None
            state, out = step(before, y)
            want = StepOutput(
                t=t,
                observation=float(y),
                fused=fused,
                verdict=verdict,
                weights_after=state.weights,
                mean_const=state.shared_mean,
                means=means,
                variances=variances,
                regime_start=regime_start,
            )
            assert out == want
            assert bits(out) == bits(want)
            for f in dataclasses.fields(StepOutput):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(out, f.name, getattr(out, f.name))
            verdicts.add(verdict)
        assert verdicts == set(Verdict)

    def test_kept_records_have_no_instance_dict(self):
        _, _, (_, out) = stepped_mid_stream()
        for record in (out, out.fused):
            assert not hasattr(record, "__dict__")

    def test_output_survives_pickle_and_deepcopy(self):
        _, _, (_, out) = stepped_mid_stream()
        for twin in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
            assert twin == out
            assert bits(twin) == bits(out)


class TestReplay:
    def test_pickled_and_copied_state_steps_bit_for_bit(self):
        # Replayed through outliers and a change point, on caches that the
        # copies no longer share with the original.
        state, rest, _ = stepped_mid_stream()
        twins = [pickle.loads(pickle.dumps(state)), copy.deepcopy(state)]
        verdicts = set()
        for y in rest[:45]:
            for twin in twins:
                assert twin == state
            state, out = step(state, y)
            verdicts.add(out.verdict)
            for i, twin in enumerate(twins):
                twins[i], twin_out = step(twin, y)
                assert bits(twin_out) == bits(out)
        assert verdicts == set(Verdict)


class TestStepOutputEquality:
    def test_arrays_compare_by_value(self):
        history, stream = flat_stream(57)
        two_model = EngineConfig(init_count=60, factors=VariantFactors((1.0, 0.2)), seed=0)
        state = initialize(np.arange(60), history, two_model)
        assert len(state.models) == 2
        _, first = step(state, stream[0])
        _, again = step(state, stream[0])
        assert first.weights_after is not again.weights_after
        assert first == again
        for name in ("weights_after", "means", "variances"):
            changed = getattr(again, name).copy()
            changed[1] *= 0.5
            assert first != dataclasses.replace(again, **{name: changed})


class TestTimeShiftInvariance:
    def test_shifted_history_gives_identical_outputs(self):
        history, stream = gapped_shift_stream(55)
        base = initialize(np.arange(60), history, EIGHT_MODEL)
        _, want = stream_through(base, stream)
        assert {Verdict.OUTLIER, Verdict.CHANGE_POINT} <= {o.verdict for o in want}
        for shift in (10_000, -5_000, 1, 2**40):
            moved = initialize(np.arange(60) + shift, history, EIGHT_MODEL)
            assert moved.models == base.models
            _, got = stream_through(moved, stream)
            for a, b in zip(got, want, strict=True):
                assert a.t == b.t + shift
                assert a.fused == b.fused
                assert a.means.tobytes() == b.means.tobytes()
                assert a.variances.tobytes() == b.variances.tobytes()
                assert a.weights_after.tobytes() == b.weights_after.tobytes()
                assert a.verdict is b.verdict
                # Every field is equal once the times are moved back.
                regime_start = None if a.regime_start is None else a.regime_start - shift
                assert dataclasses.replace(a, t=b.t, regime_start=regime_start) == b
