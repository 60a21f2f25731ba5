"""Experiment harness reproducing every table and figure of the paper.

- :mod:`repro.experiments.config` — the Section 3.2 hyper-parameter
  grids and the SMOKE/DEFAULT/PAPER scale profiles.
- :mod:`repro.experiments.runner` — the model registry (all ten
  classifiers) and the end-to-end tune/train/test pipeline used for
  Tables 2-6 and Figure 1.
- :mod:`repro.experiments.simulation` — Monte Carlo loops over the
  Section 4 scenarios: average test error and Domingos net variance per
  swept parameter (Figures 2-9 and 11).
- :mod:`repro.experiments.reporting` — renders results as the paper's
  tables and figure series.
"""

from repro.experiments.analysis import (
    FkUsageReport,
    fk_usage_across_datasets,
    fk_usage_report,
)
from repro.experiments.config import (
    DEFAULT,
    PAPER,
    SMOKE,
    Scale,
    get_scale,
)
from repro.experiments.fk_experiments import (
    run_compression_experiment,
    run_smoothing_experiment,
)
from repro.experiments.reporting import AccuracyTable, FigureSeries
from repro.experiments.runner import (
    MODEL_REGISTRY,
    STREAMABLE_MODELS,
    FittedPipeline,
    ModelSpec,
    RunResult,
    default_tree_tuner,
    fit_pipeline,
    make_streaming_model,
    run_experiment,
    split_accuracy,
    streaming_model_display,
)
from repro.experiments.simulation import MonteCarloResult, run_monte_carlo, sweep

__all__ = [
    "AccuracyTable",
    "DEFAULT",
    "FigureSeries",
    "FittedPipeline",
    "FkUsageReport",
    "MODEL_REGISTRY",
    "ModelSpec",
    "MonteCarloResult",
    "PAPER",
    "RunResult",
    "SMOKE",
    "STREAMABLE_MODELS",
    "Scale",
    "default_tree_tuner",
    "fit_pipeline",
    "fk_usage_across_datasets",
    "fk_usage_report",
    "get_scale",
    "make_streaming_model",
    "run_compression_experiment",
    "run_experiment",
    "run_monte_carlo",
    "run_smoothing_experiment",
    "split_accuracy",
    "streaming_model_display",
    "sweep",
]
