"""Tests for the multi-start hyperparameter fit."""

import logging

import numpy as np
import pytest

from intelgp import fit, gp
from intelgp.fit import fit_template, heuristic_hyperparameters
from intelgp.gp import (
    Hyperparameters,
    KernelKind,
    NumericalError,
    chol_with_jitter,
    distance_table,
    lml_gradient,
    log_marginal_likelihood,
    noisy_covariance,
)


def sample_gp(hyper, ts, seed, mean_const=0.0):
    """Draw one path from the GP observation model via the Cholesky factor."""
    V = noisy_covariance(hyper, ts)
    L = chol_with_jitter(V)
    rng = np.random.default_rng(seed)
    return mean_const + L @ rng.standard_normal(len(ts))


def refuse_potri(*args, **kwargs):
    raise AssertionError("the evaluation reached potri")


class TestFitTemplate:
    def test_recovers_known_hyperparameters(self):
        true = Hyperparameters(KernelKind.MATERN52, 1.0, 3.0, 0.1)
        ts = np.arange(150.0)
        ys = sample_gp(true, ts, seed=9)
        fit = fit_template(ts, ys, seed=0)
        err = np.abs(fit.hyper.to_log_vector() - true.to_log_vector())
        assert np.all(err < 0.5)

    def test_constant_data_drives_scales_small(self):
        ts = np.arange(40.0)
        ys = np.full(40, 2.5)
        fit = fit_template(ts, ys, seed=1)
        assert fit.hyper.signal_scale < 1e-3
        assert fit.hyper.noise_scale < 1e-3

    def test_returned_lml_beats_every_start_point(self):
        true = Hyperparameters(KernelKind.MATERN52, 0.8, 4.0, 0.2)
        ts = np.arange(60.0)
        ys = sample_gp(true, ts, seed=10)
        fit = fit_template(ts, ys, seed=2)
        start1 = heuristic_hyperparameters(ts, ys)
        assert fit.lml >= log_marginal_likelihood(start1, fit.mean, ts, ys) - 1e-9
        assert fit.lml >= log_marginal_likelihood(true, fit.mean, ts, ys) - 1e-9

    def test_reported_lml_is_consistent(self):
        ts = np.arange(30.0)
        ys = np.sin(ts / 4.0) + 0.01 * np.cos(7 * ts)
        fit = fit_template(ts, ys, seed=3)
        recomputed = log_marginal_likelihood(fit.hyper, fit.mean, ts, ys)
        assert fit.lml == pytest.approx(recomputed, abs=1e-10)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_reported_lml_is_the_lml_at_the_fit(self, kind):
        ts = np.arange(40.0)
        ys = sample_gp(Hyperparameters(kind, 1.0, 3.0, 0.2), ts, seed=16)
        fit = fit_template(ts, ys, kind=kind, seed=6)
        assert fit.mean == float(np.mean(ys))
        assert fit.lml == log_marginal_likelihood(fit.hyper, fit.mean, ts, ys)

    def test_gradient_norm_small_when_converged(self):
        true = Hyperparameters(KernelKind.MATERN52, 1.2, 5.0, 0.15)
        ts = np.arange(80.0)
        ys = sample_gp(true, ts, seed=11)
        fit = fit_template(ts, ys, seed=4)
        if fit.converged:
            gnorm = np.linalg.norm(
                lml_gradient(fit.hyper, fit.mean, distance_table(ts), ys)[1]
            )
            assert gnorm < 1e-4

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_toeplitz_gradient_fits_the_scales_of_the_potri_gradient(self, kind, monkeypatch):
        # An equally spaced history takes the Toeplitz sums, never potri;
        # with its table's Toeplitz decision turned off, every evaluation
        # takes potri.
        ts = np.arange(200.0)
        ys = sample_gp(Hyperparameters(kind, 1.0, 6.0, 0.2), ts, seed=17)
        with monkeypatch.context() as patch:
            patch.setattr(gp, "_potri", refuse_potri)
            toeplitz = fit_template(ts, ys, kind=kind, seed=7)
        monkeypatch.setattr(fit, "distance_table", lambda xs: distance_table(xs)[:2] + (False,))
        dense = fit_template(ts, ys, kind=kind, seed=7)
        fitted = [
            (f.hyper.signal_scale, f.hyper.length_scale, f.hyper.noise_scale)
            for f in (toeplitz, dense)
        ]
        np.testing.assert_allclose(*fitted, rtol=1e-8, atol=0)

    def test_deterministic_for_fixed_seed(self):
        ts = np.arange(50.0)
        ys = sample_gp(
            Hyperparameters(KernelKind.MATERN52, 1.0, 2.0, 0.3), ts, seed=12
        )
        a = fit_template(ts, ys, seed=77)
        b = fit_template(ts, ys, seed=77)
        assert a.hyper == b.hyper
        assert a.lml == b.lml
        assert a.iterations == b.iterations

    def test_lml_nondecreasing_along_accepted_iterates(self):
        # Re-run a single-start fit with a callback recording the LML at
        # every accepted iterate; the line search must never accept a
        # worse point.
        from scipy.optimize import minimize

        from intelgp.fit import heuristic_hyperparameters

        true = Hyperparameters(KernelKind.MATERN52, 1.0, 4.0, 0.2)
        ts = np.arange(60.0)
        ys = sample_gp(true, ts, seed=13)
        mean = 0.0
        kind = KernelKind.MATERN52

        table = distance_table(ts)

        def objective(x):
            hyper = Hyperparameters.from_log_vector(kind, x)
            value, grad = lml_gradient(hyper, mean, table, ys)
            return -value, -grad

        trace = []

        def record(x):
            hyper = Hyperparameters.from_log_vector(kind, x)
            trace.append(log_marginal_likelihood(hyper, mean, ts, ys))

        x0 = heuristic_hyperparameters(ts, ys).to_log_vector()
        minimize(objective, x0, jac=True, method="L-BFGS-B", callback=record)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-9)

    @pytest.mark.parametrize(
        "n_obs, bad_time, kind, match",
        [
            pytest.param(12, None, KernelKind.MATERN52, "10 times but 12 observations",
                         id="lengths-10-12"),
            pytest.param(10, None, "se", "KernelKind", id="kind-string"),
            pytest.param(10, np.nan, KernelKind.MATERN52, "finite", id="nan-time"),
            pytest.param(10, np.inf, KernelKind.MATERN52, "finite", id="inf-time"),
        ],
    )
    def test_invalid_input_raises_before_any_start(
        self, n_obs, bad_time, kind, match, monkeypatch, caplog
    ):
        evaluations = []

        def counted(*args):
            evaluations.append(args)
            return lml_gradient(*args)

        monkeypatch.setattr(fit, "lml_gradient", counted)
        caplog.set_level(logging.WARNING, logger="intelgp")
        ts = np.arange(10.0)
        ys = np.random.default_rng(18).normal(size=n_obs)
        if bad_time is not None:
            ts[3] = bad_time
        with pytest.raises(ValueError, match=match):
            fit_template(ts, ys, kind=kind)
        assert evaluations == []
        assert "failed on every start" not in caplog.text

    @pytest.mark.parametrize("ts_shape, ys_shape", [
        ((12, 1), (12,)),
        ((12,), (12, 1)),
        ((12, 1), (12, 1)),
        ((3, 4), (3, 4)),
        ((), ()),
    ])
    def test_inputs_not_two_one_d_arrays_rejected_naming_both_shapes(
        self, ts_shape, ys_shape, monkeypatch
    ):
        # Sizes alone do not tell these apart: (12, 1) against (12,) has
        # twelve of each.  Both (12, 1) would fail every start, and (3, 4)
        # would reach an ambiguous truth value in the distance table.
        def refuse(*args, **kwargs):
            raise AssertionError("a start ran")

        monkeypatch.setattr(fit, "minimize", refuse)
        ts = np.arange(float(np.prod(ts_shape, dtype=int))).reshape(ts_shape)
        ys = np.random.default_rng(19).normal(size=ys_shape)
        with pytest.raises(ValueError, match="two 1-D arrays of one length") as error:
            fit_template(ts, ys)
        assert f"shapes {ts_shape} and {ys_shape}" in str(error.value)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_template(np.arange(5.0), np.zeros(5))

    def test_non_finite_observations_rejected(self):
        ys = np.zeros(10)
        ys[3] = np.nan
        with pytest.raises(ValueError):
            fit_template(np.arange(10.0), ys)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_all_starts_failing_raises_fit_error(self):
        # A scale this extreme overflows signal_scale**2 at every start, so
        # each one dies with a numerical failure, and so does the LML of
        # the heuristic fallback.
        ts = np.arange(10.0)
        rng = np.random.default_rng(15)
        ys = 1e200 * rng.normal(size=10)
        with pytest.raises(NumericalError):
            fit_template(ts, ys, seed=5)

    def test_all_starts_failing_falls_back_to_the_heuristic(self, monkeypatch, caplog):
        def fail(*args):
            raise NumericalError("every evaluation fails")

        monkeypatch.setattr(fit, "lml_gradient", fail)
        caplog.set_level(logging.WARNING, logger="intelgp")
        ts = np.arange(40.0)
        ys = np.random.default_rng(16).normal(size=40)
        result = fit_template(ts, ys, seed=5)
        heuristic = heuristic_hyperparameters(ts, ys)
        assert result.hyper == heuristic
        assert result.mean == float(np.mean(ys))
        assert result.lml == log_marginal_likelihood(heuristic, result.mean, ts, ys)
        assert result.iterations == 0
        assert result.converged is False
        assert "using heuristic scales" in caplog.text


class TestHeuristicStart:
    def test_scales_with_data(self):
        ts = np.arange(100.0)
        rng = np.random.default_rng(14)
        ys = rng.normal(0, 2.0, 100)
        h = heuristic_hyperparameters(ts, ys)
        assert h.signal_scale == pytest.approx(np.std(ys, ddof=1))
        assert h.length_scale == pytest.approx(99.0 / 10.0)
        assert h.noise_scale == pytest.approx(0.1 * np.std(ys, ddof=1))

    def test_constant_data_still_positive(self):
        h = heuristic_hyperparameters(np.arange(10.0), np.zeros(10))
        assert h.signal_scale > 0
        assert h.noise_scale > 0
