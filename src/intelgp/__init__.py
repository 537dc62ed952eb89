"""Streaming one-step-ahead prediction with a weighted Gaussian-process
mixture, robust to outliers and change points."""

from .engine import (
    EngineConfig,
    EngineState,
    StepOutput,
    TrainingWindow,
    Verdict,
    initialize,
    predict_next,
    step,
)
from .fit import FitResult, fit_template
from .gp import (
    Hyperparameters,
    KernelKind,
    NumericalError,
    PredictiveDistribution,
    gp_predict,
    precision_table,
)
from .harness import BenchResult, InputError, RunResult, bench, load_csv, run
from .metrics import DegenerateDataError, RunMetrics
from .mixture import VariantFactors, build_model_set

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "EngineState",
    "StepOutput",
    "TrainingWindow",
    "Verdict",
    "initialize",
    "predict_next",
    "step",
    "FitResult",
    "fit_template",
    "Hyperparameters",
    "KernelKind",
    "NumericalError",
    "PredictiveDistribution",
    "gp_predict",
    "precision_table",
    "BenchResult",
    "InputError",
    "RunResult",
    "bench",
    "load_csv",
    "run",
    "DegenerateDataError",
    "RunMetrics",
    "VariantFactors",
    "build_model_set",
]
