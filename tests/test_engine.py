"""Tests for the streaming engine state machine."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from conftest import flat_stream, shift_stream, spike_stream

from intelgp import gp
from intelgp.engine import (
    EngineConfig,
    Mode,
    Verdict,
    classify,
    initialize,
    predict_next,
    refresh_mean_periodic,
    step,
)
from intelgp.gp import PredictiveDistribution, gp_predict
from intelgp.mixture import ModelSet, VariantFactors, fuse_poe, predictive_weights

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
        assert state.model_set.shared_mean.constant == pytest.approx(3.25, abs=1e-9)
        np.testing.assert_allclose(state.model_set.weights, 1.0 / 8.0)

    def test_sintel_mode_forces_singleton(self):
        history, _ = flat_stream(32)
        config = EngineConfig(
            init_count=60,
            factors=VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)),
            mode=Mode.SINTEL,
            seed=0,
        )
        state = initialize(np.arange(60), history, config)
        assert len(state.model_set.models) == 1


class TestPredictNext:
    def test_empty_window_fused_mean_is_constant(self):
        history, _ = flat_stream(33)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        state_empty = type(state)(
            window=type(state.window)((), (), state.window.tau),
            bucket=state.bucket,
            model_set=state.model_set,
            alpha=state.alpha,
            mean_period=state.mean_period,
            inliers_since_refresh=0,
            current_t=state.current_t,
            fit=state.fit,
        )
        fused = predict_next(state_empty)
        assert fused.fused.mean == pytest.approx(
            state.model_set.shared_mean.constant, abs=1e-12
        )

    def test_single_model_fusion_is_identity(self):
        history, _ = flat_stream(34)
        state = initialize(np.arange(60), history, SINGLETON)
        fused = predict_next(state)
        means, variances = gp_predict(
            state.window.times,
            state.window.values,
            state.model_set.shared_mean,
            state.model_set.models,
            state.current_t + 1,
        )
        assert fused.fused.mean == means[0]
        assert fused.fused.variance == variances[0]

    def test_matches_hand_rolled_pipeline(self):
        history, _ = flat_stream(35)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        fused = predict_next(state)
        means, variances = gp_predict(
            state.window.times,
            state.window.values,
            state.model_set.shared_mean,
            state.model_set.models,
            state.current_t + 1,
        )
        w_hat = predictive_weights(state.model_set.weights, state.alpha)
        ref = fuse_poe(means, variances, w_hat)
        assert fused.fused.mean == pytest.approx(ref.mean, abs=1e-15)
        assert fused.fused.variance == pytest.approx(ref.variance, abs=1e-15)

    def test_pure_no_state_mutation(self):
        history, _ = flat_stream(36)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        weights_before = state.model_set.weights.copy()
        predict_next(state)
        np.testing.assert_array_equal(state.model_set.weights, weights_before)


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
        weights_before = state.model_set.weights.copy()
        window_before = state.window
        s1, o1 = step(state, stream[10])
        s2, o2 = step(state, stream[10])
        np.testing.assert_array_equal(state.model_set.weights, weights_before)
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
        before = state.model_set.weights.copy()
        state, out = step(state, stream[at])
        assert out.verdict is Verdict.OUTLIER
        assert not np.allclose(out.weights_after, before, atol=1e-12)

    def test_non_finite_observation_rejected(self):
        history, stream = flat_stream(47)
        state = initialize(np.arange(60), history, SINGLETON)
        with pytest.raises(ValueError):
            step(state, float("nan"))


class TestHostileStreams:
    def test_invariants_hold_under_heavy_tails_and_jumps(self):
        # Heavy-tailed noise, huge spikes, a sustained jump, and edge
        # configurations (N down to 1, tau down to 5, L down to 2).
        from intelgp.mixture import WEIGHT_FLOOR

        factors = VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0))
        for seed, tau, n_out, mean_period in [
            (1000, 5, 1, 2),
            (1001, 12, 3, 7),
            (1002, 25, 4, 14),
            (1003, 20, 2, 10),
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
                factors=factors,
                seed=seed,
            )
            state = initialize(np.arange(60), history, config)
            for y in stream:
                state, out = step(state, y)
                w = state.model_set.weights
                assert abs(w.sum() - 1.0) < 1e-12
                assert np.all(w >= WEIGHT_FLOOR)
                assert len(state.window) <= tau
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
        c0 = state.model_set.shared_mean.constant
        shifted = stream[:10] + offset
        for i, y in enumerate(shifted):
            state, out = step(state, y)
            if i < 9:
                assert out.mean_const == c0
        expected = float(np.mean(shifted))
        assert out.mean_const == pytest.approx(expected, abs=1e-12)
        assert state.inliers_since_refresh == 0

    def test_refresh_mean_of_equal_values(self):
        history, _ = flat_stream(49)
        state = initialize(np.arange(60), history, SINGLETON)
        window = state.window
        for i in range(10):
            window = window.appended(60 + i, 1.75)
        state2 = type(state)(
            window=window,
            bucket=state.bucket,
            model_set=state.model_set,
            alpha=state.alpha,
            mean_period=10,
            inliers_since_refresh=0,
            current_t=69,
            fit=state.fit,
        )
        assert refresh_mean_periodic(state2).constant == 1.75

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
        assert len(state.model_set.cache) == 0
        verdicts, most_gaps, fullest = [], 0, 0
        for y in stream:
            pred = predict_next(state)
            ms = state.model_set
            means, variances = gp_predict(
                state.window.times, state.window.values, ms.shared_mean, ms.models,
                state.current_t + 1,
            )
            assert pred.means.tobytes() == means.tobytes()
            assert pred.variances.tobytes() == variances.tobytes()
            times = state.window.times
            most_gaps = max(most_gaps, times[-1] - times[0] + 1 - len(times))
            state, out = step(state, y)
            verdicts.append(out.verdict)
            fullest = max(fullest, len(state.model_set.cache))
            assert fullest <= gp.PREDICTOR_CACHE_SIZE
        assert most_gaps == 2
        assert verdicts.count(Verdict.OUTLIER) >= 2
        assert Verdict.CHANGE_POINT in verdicts
        assert fullest == gp.PREDICTOR_CACHE_SIZE

    def test_every_initialize_starts_cold(self):
        history, stream = flat_stream(53)
        first = initialize(np.arange(60), history, EIGHT_MODEL)
        stream_through(first, stream[:20])
        assert len(first.model_set.cache) > 0
        second = initialize(np.arange(60), history, EIGHT_MODEL)
        assert len(second.model_set.cache) == 0
        assert second.model_set.cache is not first.model_set.cache

    def test_full_cache_drops_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(gp, "PREDICTOR_CACHE_SIZE", 2)
        models = initialize(np.arange(60), flat_stream(56)[0], EIGHT_MODEL).model_set.models
        mean = gp.MeanFunction(0.0)
        cache = {}
        windows = [np.arange(n, 20.0) for n in (0, 1, 2)]
        for ts in (windows[0], windows[1], windows[0], windows[2]):
            got = gp_predict(ts, np.sin(ts), mean, models, 20.0, cache)
            want = gp_predict(ts, np.sin(ts), mean, models, 20.0)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert list(cache) == [(20.0 - windows[i]).tobytes() for i in (0, 2)]

    def test_cache_is_out_of_equality_and_repr(self):
        history, _ = flat_stream(54)
        state = initialize(np.arange(60), history, EIGHT_MODEL)
        predict_next(state)
        ms = state.model_set
        assert "cache" not in repr(ms)
        assert ModelSet(ms.models, ms.weights, ms.shared_mean) == ms
        assert ms.replace(weights=ms.weights).cache is ms.cache
        # Equal weights held in another array, and different weights.
        assert ms == ms.replace(weights=ms.weights.copy())
        other = np.full(ms.weights.size, 0.5 / (ms.weights.size - 1))
        other[0] = 0.5
        assert ms != ms.replace(weights=other)


class TestStepOutputEquality:
    def test_arrays_compare_by_value(self):
        history, stream = flat_stream(57)
        two_model = EngineConfig(init_count=60, factors=VariantFactors((1.0, 0.2)), seed=0)
        state = initialize(np.arange(60), history, two_model)
        assert len(state.model_set.models) == 2
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
        moved = initialize(np.arange(60) + 10_000, history, EIGHT_MODEL)
        assert moved.model_set.models == base.model_set.models
        _, want = stream_through(base, stream)
        _, got = stream_through(moved, stream)
        assert Verdict.CHANGE_POINT in [o.verdict for o in want]
        for a, b in zip(got, want):
            assert a.t == b.t + 10_000
            assert a.fused == b.fused
            assert a.means.tobytes() == b.means.tobytes()
            assert a.variances.tobytes() == b.variances.tobytes()
            assert a.verdict is b.verdict
            np.testing.assert_array_equal(a.weights_after, b.weights_after)
