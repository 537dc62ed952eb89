"""INTEL end to end against an independent reference implementation.

`reference_run` streams observations through a plain transcription of the
algorithm, as README and the paper state it, sharing no prediction,
fusion or weighting code with the engine.  Per step it conditions each
model's GP on the training window by a dense solve of the noisy kernel
matrix, built from the kernel formulas written out below; flattens the
weights by the forgetting exponent; fuses the models as a product of
experts; classifies the observation by the strict 3-sigma test; and then
updates the window, the outlier bucket, the shared mean and the weights.
It starts from `initialize`'s state: its models, weights, mean and window.

The engine must give every verdict of the reference, and a fused mean and
variance within MEAN_RTOL and VARIANCE_RTOL of it.  On seeds 1 and 7 of
the benchmark workloads (18,158 steps) every verdict was equal, the fused
mean was within 1.4e-11 of the reference's, relative to its standard
deviation, and the fused variance within 6.2e-11 relative (Python 3.11,
numpy 2.4, scipy 1.17), both on `glitchy_27m`; on 400 short random
streams as below, within 4e-14 and 2e-14.  The tolerances leave a margin
of more than 30 over those figures.  A change that needs them wider
changes the forecasts: it is to be declared as such, not let through by
loosening them.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intelgp.engine import EngineConfig, Verdict, initialize, step
from intelgp.gp import VAR_FLOOR, KernelKind
from intelgp.metrics import compute_stats
from intelgp.mixture import WEIGHT_FLOOR, VariantFactors

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)

# |engine - reference| / reference standard deviation, for the fused mean
MEAN_RTOL = 5e-10
# |engine - reference| / reference, for the fused variance
VARIANCE_RTOL = 2e-9


def kernel(models, d: np.ndarray) -> np.ndarray:
    """Each model's kernel at the distances `d`: shape (M, *d.shape)."""
    sf = np.array([h.signal_scale for h in models]).reshape(-1, *[1] * d.ndim)
    ell = np.array([h.length_scale for h in models]).reshape(sf.shape)
    if models[0].kind is KernelKind.MATERN52:
        r = math.sqrt(5.0) * d / ell
        return sf**2 * (1.0 + r + r**2 / 3.0) * np.exp(-r)
    return sf**2 * np.exp(-((d / ell) ** 2))


def condition(models, times, values, mean: float, t_star: int):
    """Each model's predictive mean and variance at `t_star`, in
    observation space, given the window: a dense solve of the noisy kernel
    matrix against the centred values and the test point's kernel column."""
    noise = np.array([h.noise_scale**2 for h in models])
    prior = np.array([h.signal_scale**2 for h in models]) + noise
    if not times:
        return np.full(len(models), mean), prior
    x = np.array(times, dtype=float)
    K = kernel(models, np.abs(x[:, None] - x[None, :]))
    K += noise[:, None, None] * np.eye(x.size)
    k = kernel(models, np.abs(x - t_star))
    rhs = np.stack([np.broadcast_to(np.array(values) - mean, k.shape), k], axis=-1)
    solved = np.linalg.solve(K, rhs)
    means = mean + np.einsum("mi,mi->m", k, solved[..., 0])
    variances = prior - np.einsum("mi,mi->m", k, solved[..., 1])
    return means, np.maximum(variances, VAR_FLOOR)


def reference_run(state, observations):
    """The verdict, fused mean and fused variance of each observation,
    streamed from the engine state `state`."""
    config = state.config
    models = state.models
    times, values = list(state.window.times), list(state.window.values)
    bucket = []
    weights = np.array(state.weights, dtype=float)
    mean = state.shared_mean
    inliers = 0
    t = state.current_t
    out = []
    for y in observations:
        t += 1
        means, variances = condition(models, times, values, mean, t)
        flattened = weights**config.alpha
        flattened /= flattened.sum()
        precision = flattened / variances
        fused_var = max(1.0 / precision.sum(), VAR_FLOOR)
        fused_mean = (precision * means).sum() / precision.sum()
        inlier = abs(y - fused_mean) < 3.0 * math.sqrt(fused_var)

        if inlier:
            verdict = Verdict.INLIER
            times.append(t)
            values.append(y)
            bucket = []
            inliers += 1
            if inliers == config.mean_period:
                mean = float(np.mean(values[-config.mean_period:]))
                inliers = 0
        else:
            bucket.append((t, y))
            verdict = Verdict.OUTLIER
            if len(bucket) == config.n_outliers:
                verdict = Verdict.CHANGE_POINT
                times, values = (list(column) for column in zip(*bucket))
                mean = float(np.mean(values))
                bucket = []
                inliers = 0
        kept = [i for i, s in enumerate(times) if s > t - config.tau]
        times, values = [times[i] for i in kept], [values[i] for i in kept]

        log_density = -0.5 * ((y - means) ** 2 / variances + np.log(variances))
        weights = flattened * np.exp(log_density - log_density.max())
        for _ in range(2):
            weights = np.maximum(weights / weights.sum(), WEIGHT_FLOOR)
        out.append((verdict, fused_mean, fused_var))
    return out


def assert_engine_matches_reference(state, observations):
    """Stream `observations` through the engine and the reference from
    `state`; returns the largest mean and variance errors, as the
    tolerances measure them."""
    want = reference_run(state, observations)
    mean_error = variance_error = 0.0
    for k, (y, (verdict, ref_mean, ref_var)) in enumerate(zip(observations, want)):
        state, got = step(state, y)
        assert got.verdict is verdict, f"step {k}: {got.verdict} against {verdict}"
        mean_error = max(mean_error, abs(got.fused.mean - ref_mean) / math.sqrt(ref_var))
        variance_error = max(variance_error, abs(got.fused.variance - ref_var) / ref_var)
    assert mean_error <= MEAN_RTOL
    assert variance_error <= VARIANCE_RTOL
    return mean_error, variance_error


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_matches_the_reference(name):
    # Seed 1, normalised and initialised as `intelgp run` does it.
    workload = workloads.WORKLOADS[name]
    series = workload.series(1)
    init = workload.config.init_count
    stats = compute_stats(series if workload.normalization == "full" else series[:init])
    z = stats.normalize(series)
    state = initialize(np.arange(init), z[:init], workload.config)
    assert_engine_matches_reference(state, z[init:].tolist())


CONFIGS = {
    "eight": EngineConfig(tau=6, init_count=24, factors=VariantFactors((1.0, 0.2), (1.0, 0.2),
                                                                       (1.0, 5.0))),
    "se-three": EngineConfig(tau=4, init_count=16, n_outliers=2, mean_period=3,
                             factors=VariantFactors((1.0,), (1.0, 0.5, 2.0)),
                             kernel_kind=KernelKind.SQUARED_EXPONENTIAL),
    "singleton": EngineConfig(tau=20, alpha=1.0, init_count=16, factors=VariantFactors()),
}


@st.composite
def gapped_streams(draw):
    """A config, a history with gaps in its times, and a short stream of a
    noisy sine with spikes and a level shift."""
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    init = config.init_count
    gaps = draw(st.lists(st.integers(1, 3), min_size=init - 1, max_size=init - 1))
    times = np.cumsum([0, *gaps])
    length = draw(st.integers(1, 40))
    t = np.concatenate((times, times[-1] + 1 + np.arange(length)))
    y = np.sin(t / 5.0) + 0.3 * rng.standard_normal(t.size)
    for at in draw(st.lists(st.integers(init, init + length - 1), max_size=6)):
        y[at] += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2.0, 8.0))
    shift = draw(st.integers(init, init + length))
    y[shift:] += draw(st.floats(-6.0, 6.0))
    return config, times, y[:init], y[init:]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gapped_streams())
def test_short_gapped_streams_match_the_reference(case):
    config, times, history, stream = case
    assert_engine_matches_reference(initialize(times, history, config), stream.tolist())
