"""Streaming one-step-ahead prediction with a weighted Gaussian-process
mixture, robust to outliers and change points."""

from .engine import (
    EngineConfig,
    EngineState,
    StepOutput,
    TrainingWindow,
    Verdict,
    classify,
    initialize,
    predict_next,
    step,
)
from .fit import FitResult, fit_template
from .gp import (
    VAR_FLOOR,
    Hyperparameters,
    KernelKind,
    NumericalError,
    PredictiveDistribution,
    distance_table,
    gp_predict,
    lml_gradient,
    log_marginal_likelihood,
    noisy_covariance,
    precision_table,
)
from .harness import BenchResult, InputError, RunResult, bench, load_csv, run
from .metrics import (
    DegenerateDataError,
    NormalizationStats,
    RunMetrics,
    compute_stats,
    evaluate,
)
from .mixture import (
    WEIGHT_FLOOR,
    VariantFactors,
    build_model_set,
    fuse_poe,
    predictive_weights,
    update_weights,
)

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "EngineState",
    "StepOutput",
    "TrainingWindow",
    "Verdict",
    "classify",
    "initialize",
    "predict_next",
    "step",
    "FitResult",
    "fit_template",
    "VAR_FLOOR",
    "Hyperparameters",
    "KernelKind",
    "NumericalError",
    "PredictiveDistribution",
    "distance_table",
    "gp_predict",
    "lml_gradient",
    "log_marginal_likelihood",
    "noisy_covariance",
    "precision_table",
    "BenchResult",
    "InputError",
    "RunResult",
    "bench",
    "load_csv",
    "run",
    "DegenerateDataError",
    "NormalizationStats",
    "RunMetrics",
    "compute_stats",
    "evaluate",
    "WEIGHT_FLOOR",
    "VariantFactors",
    "build_model_set",
    "fuse_poe",
    "predictive_weights",
    "update_weights",
]
