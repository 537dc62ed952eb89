"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE PASS|FAIL <name>` line (run with -s to
stream them).  The two real-dataset reproductions skip with a pointer to
scripts/fetch_datasets.py when data/ has not been populated.

The time bounds are on the process's CPU time (`time.process_time`), the
time the code under test ran, whatever other processes hold the cores.
conftest.py runs BLAS on one thread, so it is not more than the wall time
on an idle machine; BLAS threads of its own would add their time to it.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import DATA_DIR, flat_stream, regime_change_series, shift_stream, spike_stream

from intelgp.engine import EngineConfig, Verdict, initialize, step
from intelgp.fit import fit_template
from intelgp.gp import (
    Hyperparameters,
    KernelKind,
    chol_with_jitter,
    distance_table,
    lml_gradient,
    log_marginal_likelihood,
    noisy_covariance,
)
from intelgp.harness import load_csv, run
from intelgp.mixture import (
    VariantFactors,
    fuse_poe,
    predictive_weights,
    update_weights,
)
from test_gp import oracle_predict, predict_one

WELL_LOG = DATA_DIR / "well_log.csv"
CPU_USAGE = DATA_DIR / "cpu_usage.csv"
FETCH_HINT = "run scripts/fetch_datasets.py on a machine with network access"


@contextmanager
def criterion(name):
    try:
        yield
    except Exception as exc:
        print(f"ACCEPTANCE FAIL {name}: {exc}", flush=True)
        raise
    print(f"ACCEPTANCE PASS {name}", flush=True)


def require_dataset(path, name):
    if not path.is_file():
        print(f"ACCEPTANCE SKIP {name}: {path} missing; {FETCH_HINT}", flush=True)
        pytest.skip(f"{path} missing; {FETCH_HINT}")


def test_gp_correctness_oracle():
    with criterion("gp-correctness-oracle"):
        rng = np.random.default_rng(501)
        t0 = time.process_time()
        for _ in range(200):
            kind = (
                KernelKind.MATERN52
                if rng.random() < 0.5
                else KernelKind.SQUARED_EXPONENTIAL
            )
            hyper = Hyperparameters(
                kind,
                math.exp(rng.uniform(-1.5, 1.5)),
                math.exp(rng.uniform(-1.0, 2.0)),
                math.exp(rng.uniform(-3.0, 0.0)),
            )
            # Distinct integer times, the test time anywhere in 0..28 but
            # not on one of them: after, between or before the window.
            n = rng.integers(1, 11)
            ts = np.sort(rng.choice(26, size=n, replace=False)).astype(float)
            ys = rng.normal(size=n)
            c = rng.normal()
            t_star = float(rng.choice(np.setdiff1d(np.arange(29), ts)))
            mean, var = predict_one(ts, ys, c, hyper, t_star)
            m_ref, v_ref = oracle_predict(hyper, c, ts, ys, t_star)
            assert abs(mean - m_ref) < 1e-8
            assert abs(var - v_ref) < 1e-8
        elapsed = time.process_time() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_gradient_check():
    with criterion("gradient-check"):
        step_size = 1e-5
        rng = np.random.default_rng(2024)
        for _ in range(100):
            kind = (
                KernelKind.MATERN52
                if rng.random() < 0.5
                else KernelKind.SQUARED_EXPONENTIAL
            )
            hyper = Hyperparameters(
                kind,
                math.exp(rng.uniform(-1.0, 1.0)),
                math.exp(rng.uniform(-0.5, 1.5)),
                math.exp(rng.uniform(-2.0, -0.5)),
            )
            n = rng.integers(5, 15)
            ts = np.sort(rng.uniform(0, 30, size=n))
            ys = rng.normal(size=n)
            mean = rng.normal() * 0.3
            _, g = lml_gradient(hyper, mean, distance_table(ts), ys)
            x0 = hyper.to_log_vector()
            for i in range(3):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += step_size
                xm[i] -= step_size
                fd = (
                    log_marginal_likelihood(
                        Hyperparameters.from_log_vector(kind, xp), mean, ts, ys
                    )
                    - log_marginal_likelihood(
                        Hyperparameters.from_log_vector(kind, xm), mean, ts, ys
                    )
                ) / (2.0 * step_size)
                assert abs(g[i] - fd) / abs(fd) < 1e-5


def test_hyperparameter_recovery():
    with criterion("hyperparameter-recovery"):
        t0 = time.process_time()
        true = Hyperparameters(KernelKind.MATERN52, 1.0, 3.0, 0.1)
        ts = np.arange(200.0)
        V = noisy_covariance(true, ts)
        L = chol_with_jitter(V)
        recovered = 0
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            ys = L @ rng.standard_normal(200)
            fit = fit_template(ts, ys, seed=trial)
            err = np.abs(fit.hyper.to_log_vector() - true.to_log_vector())
            recovered += bool(np.all(err < 0.5))
        elapsed = time.process_time() - t0
        assert recovered >= 4, f"recovered {recovered} of 5"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_fusion_identities():
    with criterion("fusion-identities"):
        means = np.array([-1.2, 0.9, 3.1])
        variances = np.array([0.4, 2.5, 0.03])
        for j in range(3):
            one_hot = np.zeros(3)
            one_hot[j] = 1.0
            fused = fuse_poe(means, variances, one_hot)
            assert abs(fused.mean - means[j]) < 1e-12
            assert abs(fused.variance - variances[j]) < 1e-12

        fused = fuse_poe(np.full(5, 0.6), np.full(5, 1.7), np.array([0.05, 0.1, 0.15, 0.3, 0.4]))
        assert abs(fused.mean - 0.6) < 1e-12
        assert abs(fused.variance - 1.7) < 1e-12

        fused = fuse_poe(np.array([0.0, 2.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert fused.mean == 1.0
        assert fused.variance == 1.0


def test_weight_machinery():
    with criterion("weight-machinery"):
        rng = np.random.default_rng(502)
        w = np.full(8, 1.0 / 8.0)
        for _ in range(10_000):
            w = predictive_weights(w, rng.uniform(0.3, 1.0))
            lik = rng.uniform(0.0, 1.0, 8) ** rng.integers(1, 60)
            w = update_weights(w, lik)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 1e-10)

        base = rng.uniform(0.1, 1.0, 8)
        base /= base.sum()
        assert np.array_equal(predictive_weights(base, 1.0), base)

        after = update_weights(base, np.full(8, 0.42))
        np.testing.assert_allclose(after, base, atol=1e-14)


def test_synthetic_anomaly_scenarios():
    with criterion("synthetic-anomaly-scenarios"):
        t0 = time.process_time()
        config = EngineConfig(init_count=60, factors=VariantFactors(), seed=0)

        history, stream, at = spike_stream(38)
        state = initialize(np.arange(60), history, config)
        outputs = []
        for y in stream:
            state, out = step(state, y)
            outputs.append(out)
        counts = Counter(o.verdict for o in outputs)
        assert counts[Verdict.OUTLIER] == 1, f"spike: {counts}"
        assert counts[Verdict.CHANGE_POINT] == 0, f"spike: {counts}"
        assert outputs[at].verdict is Verdict.OUTLIER

        history, stream, onset = shift_stream(39)
        state = initialize(np.arange(60), history, config)
        outputs = []
        for y in stream:
            state, out = step(state, y)
            outputs.append(out)
        counts = Counter(o.verdict for o in outputs)
        assert counts[Verdict.CHANGE_POINT] == 1, f"shift: {counts}"
        cp_idx = next(
            i for i, o in enumerate(outputs) if o.verdict is Verdict.CHANGE_POINT
        )
        assert cp_idx == onset + 2, f"declared at {cp_idx}, onset {onset}"
        # the engine state right after the declaration held exactly the
        # three bucket points; re-derive it to check the capture
        state2 = initialize(np.arange(60), history, config)
        for y in stream[: onset + 3]:
            state2, out2 = step(state2, y)
        assert out2.verdict is Verdict.CHANGE_POINT
        assert len(state2.window) == 3
        np.testing.assert_array_equal(state2.window.values, stream[onset:onset + 3])
        assert out2.mean_const == float(np.mean(stream[onset:onset + 3]))

        history, stream = flat_stream(11, n_stream=500)
        state = initialize(np.arange(60), history, config)
        verdicts = []
        for y in stream:
            state, out = step(state, y)
            verdicts.append(out.verdict)
        assert all(v is Verdict.INLIER for v in verdicts)

        elapsed = time.process_time() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_paper_reproduction_well_log():
    require_dataset(WELL_LOG, "paper-reproduction-well-log")
    with criterion("paper-reproduction-well-log"):
        series = load_csv(WELL_LOG, "value")
        assert len(series) == 4050, f"expected 4050 rows, got {len(series)}"
        # initialization rows 100..300 inclusive; streaming starts at row 301
        sliced = series[100:]
        base = dict(
            init_count=201,
            factors=VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)),
            seed=0,
        )
        t0 = time.process_time()
        r_intel = run(EngineConfig(**base), sliced, normalization="full")
        elapsed = time.process_time() - t0
        r_sintel = run(
            EngineConfig(**{**base, "factors": VariantFactors()}), sliced, normalization="full"
        )
        mae, mse = r_intel.metrics.mae, r_intel.metrics.mse
        assert 0.75 * 0.2129 <= mae <= 1.25 * 0.2129, f"mae={mae:.4f}"
        assert 0.75 * 0.0706 <= mse <= 1.25 * 0.0706, f"mse={mse:.4f}"
        assert r_intel.metrics.nll <= r_sintel.metrics.nll + 0.05, (
            f"nll intel={r_intel.metrics.nll:.4f} sintel={r_sintel.metrics.nll:.4f}"
        )
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_paper_reproduction_cpu_usage():
    require_dataset(CPU_USAGE, "paper-reproduction-cpu-usage")
    with criterion("paper-reproduction-cpu-usage"):
        series = load_csv(CPU_USAGE, "value")
        config = EngineConfig(
            init_count=200,
            factors=VariantFactors(signal=(1.0, 0.2)),
            seed=0,
        )
        t0 = time.process_time()
        result = run(config, series, normalization="full")
        elapsed = time.process_time() - t0
        # records are indexed by t; the regime shift lands at t=2971
        by_t = {r["t"]: r for r in result.records}
        hit = None
        for t in range(2971, 2982):
            rec = by_t.get(t)
            if rec is not None and rec["weights"][1] > 0.5:
                hit = t
                break
        assert hit is not None, "variant weight never exceeded 0.5 near t=2971"
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_ablation_dominance():
    with criterion("ablation-dominance"):
        series, init_count = regime_change_series()
        base = dict(init_count=init_count // 2, seed=0)
        r_intel = run(
            EngineConfig(
                factors=VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)),
                **base,
            ),
            series,
        )
        r_sintel = run(EngineConfig(factors=VariantFactors(), **base), series)
        assert r_intel.metrics.nll <= r_sintel.metrics.nll, (
            f"nll intel={r_intel.metrics.nll:.4f} sintel={r_sintel.metrics.nll:.4f}"
        )


def test_complexity_sanity():
    with criterion("complexity-sanity"):
        rng = np.random.default_rng(503)
        history = rng.uniform(-0.1, 0.1, 80)
        stream = rng.uniform(-0.1, 0.1, 120)
        factors = VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0))

        def per_step_seconds(tau):
            config = EngineConfig(init_count=80, tau=tau, factors=factors, seed=0)
            state = initialize(np.arange(80), history, config)
            for y in stream[: tau + 5]:  # fill the window first
                state, _ = step(state, y)
            timed = stream[tau + 5 :]
            t0 = time.perf_counter()
            for y in timed:
                state, _ = step(state, y)
            return (time.perf_counter() - t0) / len(timed)

        ratio = per_step_seconds(40) / per_step_seconds(20)
        assert ratio <= 12.0, f"tau=40/tau=20 per-step ratio {ratio:.2f}"
