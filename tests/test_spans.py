"""The benchmark's layer boundaries (perfbench/spans.py) against the program:
every name it wraps must exist and be called by a short stream, or the
benchmark refuses to trace."""

import importlib.util
from pathlib import Path

import numpy as np
from conftest import flat_stream

from intelgp import engine, gp
from intelgp.engine import EngineConfig, Verdict, initialize, step
from intelgp.mixture import VariantFactors

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_every_boundary_fires_on_a_short_stream():
    config = EngineConfig(init_count=60, factors=VariantFactors((1.0, 0.2)), seed=0)
    history, stream = flat_stream(58)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        state = initialize(np.arange(60), history, config)
        for y in stream[:5]:
            state, _ = step(state, y)
    spans.check_all_fired(tracer, "a short flat stream")
    assert engine.gp_predict is gp.gp_predict  # the originals are back


def test_a_miss_on_a_gapped_window_factors_inside_gp_predict():
    # gp.chol_us_p50 is the median, over the engine.gp_predict spans, of
    # their gp.chol_with_jitter children: a miss that factored outside
    # that name would read 0 there on glitchy_27m instead of failing.  At
    # M=2 `initialize` fills the one- and two-gap classes, so the window
    # takes three gaps to miss.
    config = EngineConfig(init_count=60, factors=VariantFactors((1.0, 0.2)), seed=0)
    history, stream = flat_stream(58)
    state = initialize(np.arange(60), history, config)
    for i, y in enumerate(stream[:11]):
        spike = i in (4, 7, 10)
        state, out = step(state, y + 5.0 if spike else y)
        assert (out.verdict is Verdict.OUTLIER) == spike  # kept out of the window: a gap
    t_star = state.current_t + 1
    assert tuple(t_star - t for t in state.window.times) not in state.cache
    tracer = spans.Tracer()
    with spans.installed(tracer):
        step(state, stream[11])
    names = tracer.name
    assert any(
        name == "gp.chol_with_jitter" and parent >= 0 and names[parent] == "engine.gp_predict"
        for name, parent in zip(names, tracer.parent)
    )


def test_one_factorization_per_fit_evaluation():
    # Each evaluation of the fit objective factors the covariance once and
    # solves once; the reported LML at the chosen point is one more
    # covariance, factorization and solve.  The precision table then
    # factors and solves once per model, and the predictor cache's fill
    # factors once per gap class and once per change-point window outside
    # them, with pbtrf, not `gp.cholesky`.  No rung of the jitter ladder is
    # needed here, so each factorization is one `gp.cholesky` call.  The
    # benchmark reads its layers through these names, so a call moved out
    # of them fails here.
    config = EngineConfig(init_count=60, factors=VariantFactors((1.0, 0.2)), seed=0)
    history, _ = flat_stream(58)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        state = initialize(np.arange(60), history, config)
    evaluations = tracer.count("fit.lml_gradient")
    models = len(state.models)
    assert evaluations > 0
    assert models == 2
    classes = 2  # both gap classes fit at M=2, tau=20: 20 + 190 windows
    regrown = 17  # and the windows n..1 a change point regrows, n < 18
    assert len(state.cache) == 20 + 190 + regrown
    assert tracer.count("gp.chol_with_jitter") == evaluations + 1 + models + classes + regrown
    assert tracer.count("gp.cholesky") == evaluations + 1 + models
    assert tracer.count("gp.cho_solve") == evaluations + 1
    assert tracer.count("gp.noisy_covariance") == 1
    assert tracer.count("gp.solve_triangular") == models
    assert tracer.count("fit.log_marginal_likelihood") == 1
