"""Tests for the streaming engine state machine."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from conftest import flat_stream, shift_stream, spike_stream
from test_gp import oracle_predict

from intelgp import gp
from intelgp.engine import (
    EngineConfig,
    Verdict,
    classify,
    initialize,
    predict_next,
    step,
)
from intelgp.gp import PredictiveDistribution, gp_predict
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


def assert_window_bound(state):
    """The window rule of every state: distinct times in order, all within
    `tau` of the next time, and a kernel table over 0..tau."""
    tau = state.config.tau
    assert len(state.window) <= tau
    assert all(t > state.current_t - tau for t in state.window.times)
    assert list(state.window.times) == sorted(set(state.window.times))
    assert state.table.shape == (len(state.models), tau + 1)


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
        assert state.table.shape == (8, 21)
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
        assert state.table.shape == (8, EIGHT_MODEL.tau + 1)
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
            state.window.times,
            state.window.values,
            state.shared_mean,
            state.table,
            state.current_t + 1,
        )
        assert fused.mean == means[0]
        assert fused.variance == variances[0]

    def test_matches_hand_rolled_pipeline(self):
        history, _ = flat_stream(35)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        fused = predict_next(state)
        means, variances = gp_predict(
            state.window.times,
            state.window.values,
            state.shared_mean,
            state.table,
            state.current_t + 1,
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
        expected = float(np.mean(shifted))
        assert out.mean_const == pytest.approx(expected, abs=1e-12)
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
            expected = float(np.mean(stream[k - 9 : k + 1]))
            assert outputs[k].mean_const == pytest.approx(expected, abs=1e-12)


class TestPredictorCache:
    def test_matches_uncached_gp_predict_at_every_step(self, monkeypatch):
        # A small limit makes the cache evict entries within the stream.
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", 4)
        history, stream = gapped_shift_stream(52)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        assert len(state.cache) == 0
        verdicts, most_gaps, fullest = [], 0, 0
        for y in stream:
            means, variances = gp_predict(
                state.window.times, state.window.values, state.shared_mean, state.table,
                state.current_t + 1,
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

    def test_every_initialize_starts_cold(self):
        history, stream = flat_stream(53)
        first = initialize(np.arange(60), history, EIGHT_MODEL)
        stream_through(first, stream[:20])
        assert len(first.cache) > 0
        second = initialize(np.arange(60), history, EIGHT_MODEL)
        assert len(second.cache) == 0
        assert second.cache is not first.cache

    def test_full_cache_drops_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", 2)
        table = initialize(np.arange(60), flat_stream(56)[0], EIGHT_MODEL).table
        mean = 0.0
        cache = {}
        windows = [np.arange(n, 20) for n in (0, 1, 2)]
        for ts in (windows[0], windows[1], windows[0], windows[2]):
            got = gp_predict(ts, np.sin(ts), mean, table, 20, cache)
            want = gp_predict(ts, np.sin(ts), mean, table, 20)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert list(cache) == [(20 - windows[i]).tobytes() for i in (0, 2)]

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
