"""Tests for normalization statistics and run metrics."""

import math

import numpy as np
import pytest
from conftest import flat_stream

from intelgp.engine import EngineConfig, initialize, step
from intelgp.gp import PredictiveDistribution
from intelgp.metrics import DegenerateDataError, compute_stats, evaluate
from intelgp.mixture import VariantFactors


class FakeOutput:
    """Minimal stand-in carrying just the fused prediction."""

    def __init__(self, mean, variance):
        self.fused = PredictiveDistribution(mean, variance)


def denormalize(stats, zs) -> np.ndarray:
    """The inverse of `stats.normalize`."""
    return np.asarray(zs, dtype=float) * stats.std + stats.mean


class TestComputeStats:
    def test_two_point_formula(self):
        stats = compute_stats([0.0, 2.0])
        assert stats.mean == 1.0
        assert stats.std == pytest.approx(math.sqrt(2.0))

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(60)
        ys = rng.normal(3.0, 2.5, 400)
        stats = compute_stats(ys)
        z = stats.normalize(ys)
        stats2 = compute_stats(z)
        assert stats2.mean == pytest.approx(0.0, abs=1e-12)
        assert stats2.std == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(61)
        ys = rng.uniform(-5, 5, 37)
        stats = compute_stats(ys)
        m = sum(ys) / len(ys)
        s = math.sqrt(sum((y - m) ** 2 for y in ys) / (len(ys) - 1))
        assert stats.mean == pytest.approx(m, abs=1e-12)
        assert stats.std == pytest.approx(s, abs=1e-12)

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(62)
        ys = rng.normal(10, 3, 50)
        stats = compute_stats(ys)
        np.testing.assert_allclose(denormalize(stats, stats.normalize(ys)), ys, atol=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateDataError):
            compute_stats(np.full(10, 4.2))


class TestEvaluate:
    def test_perfect_predictions_with_unit_normalizer(self):
        var = 1.0 / (2.0 * math.pi)
        outputs = [FakeOutput(y, var) for y in (0.1, -0.4, 2.0)]
        m = evaluate(outputs, [0.1, -0.4, 2.0])
        assert m.nll == pytest.approx(0.0, abs=1e-14)
        assert m.mae == 0.0
        assert m.mse == 0.0
        assert m.n_evaluated == 3

    def test_constant_offset(self):
        d = 0.7
        outputs = [FakeOutput(y - d, 1.0) for y in (1.0, 2.0, 3.0)]
        m = evaluate(outputs, [1.0, 2.0, 3.0])
        assert m.mae == pytest.approx(d, abs=1e-14)
        assert m.mse == pytest.approx(d * d, abs=1e-14)

    def test_matches_independent_evaluator(self):
        rng = np.random.default_rng(63)
        actuals = rng.normal(size=40)
        outputs = [
            FakeOutput(rng.normal(), rng.uniform(0.1, 2.0)) for _ in range(40)
        ]
        m = evaluate(outputs, actuals)
        nll_ref = 0.0
        mae_ref = 0.0
        mse_ref = 0.0
        for out, y in zip(outputs, actuals):
            mu, var = out.fused.mean, out.fused.variance
            nll_ref += -(
                -0.5 * math.log(2 * math.pi * var) - (y - mu) ** 2 / (2 * var)
            )
            mae_ref += abs(y - mu)
            mse_ref += (y - mu) ** 2
        n = len(actuals)
        assert m.nll == pytest.approx(nll_ref / n, abs=1e-12)
        assert m.mae == pytest.approx(mae_ref / n, abs=1e-12)
        assert m.mse == pytest.approx(mse_ref / n, abs=1e-12)

    def test_jensen_inequality(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            n = rng.integers(2, 50)
            actuals = rng.normal(size=n)
            outputs = [
                FakeOutput(rng.normal(), rng.uniform(0.05, 3.0)) for _ in range(n)
            ]
            m = evaluate(outputs, actuals)
            assert m.mae**2 <= m.mse + 1e-12

    def test_nll_decomposition(self):
        rng = np.random.default_rng(65)
        n = 30
        actuals = rng.normal(size=n)
        outputs = [FakeOutput(rng.normal(), rng.uniform(0.1, 2.0)) for _ in range(n)]
        m = evaluate(outputs, actuals)
        means = np.array([o.fused.mean for o in outputs])
        variances = np.array([o.fused.variance for o in outputs])
        decomposed = (
            0.5 * np.mean((actuals - means) ** 2 / variances)
            + 0.5 * np.mean(np.log(variances))
            + 0.5 * math.log(2 * math.pi)
        )
        assert m.nll == pytest.approx(decomposed, abs=1e-10)


class TestAffineEquivariance:
    def test_verdicts_invariant_under_affine_map(self):
        # Refitting the template on affinely mapped history makes the
        # 3-sigma rule equivariant; the verdict sequences must agree.
        history, stream = flat_stream(66, n_stream=150)
        stream = stream.copy()
        stream[70] += 3.0  # one outlier to make the sequence non-trivial
        config = EngineConfig(init_count=60, factors=VariantFactors(), seed=0)

        def verdicts(hist, strm):
            state = initialize(np.arange(60), hist, config)
            out = []
            for y in strm:
                state, o = step(state, y)
                out.append(o.verdict)
            return out

        a, b = 2.0, 0.5
        v_raw = verdicts(history, stream)
        v_mapped = verdicts(a * history + b, a * stream + b)
        assert v_raw == v_mapped
