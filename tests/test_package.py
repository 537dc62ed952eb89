"""Tests for the package's public names."""

import intelgp

EXPORTED = {
    "run", "RunResult", "RunMetrics", "bench", "BenchResult", "load_csv",
    "EngineConfig", "VariantFactors", "initialize", "step", "predict_next",
    "EngineState", "StepOutput", "TrainingWindow", "Verdict",
    "fit_template", "FitResult", "build_model_set", "Hyperparameters", "KernelKind",
    "gp_predict", "precision_table", "PredictiveDistribution",
    "InputError", "DegenerateDataError", "NumericalError",
}


def test_exports_are_the_documented_names_and_each_resolves():
    assert len(intelgp.__all__) == len(EXPORTED) == 26
    assert set(intelgp.__all__) == EXPORTED
    for name in intelgp.__all__:
        assert getattr(intelgp, name) is not None
