"""End-to-end tune/train/test pipeline for the real-data study.

One :func:`run_experiment` call reproduces one cell of Tables 2-6: it
materialises a strategy's feature matrices, tunes the model on the
validation split with the Section 3.2 grids, and reports train/
validation/test accuracy plus the end-to-end wall-clock time (the
quantity Figure 1 plots).

The :data:`MODEL_REGISTRY` holds all ten classifiers the paper
evaluates, each wrapped in the tuning procedure the paper used: grid
search for trees/SVMs/ANN, backward feature selection for Naive Bayes,
the glmnet-style lambda path for L1 logistic regression, and no tuning
for 1-NN.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.strategies import JoinStrategy, StrategyMatrices
from repro.data import SourceSpec, source_accuracy
from repro.datasets.splits import SplitDataset
from repro.experiments.config import Scale, get_scale
from repro.ml import (
    CategoricalNB,
    DecisionTreeClassifier,
    GridSearch,
    KernelSVC,
    KNeighborsClassifier,
    MLPClassifier,
)
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression, LogisticRegressionPath
from repro.ml.selection import BackwardSelection
from repro.obs import registry as global_registry
from repro.obs import trace


class PathTuner:
    """Adapts :class:`LogisticRegressionPath` to the tuner protocol."""

    def __init__(self, nlambda: int):
        self.path = LogisticRegressionPath(
            nlambda=nlambda, max_iter=10_000, tol=1e-3
        )

    def fit(
        self,
        X_train: CategoricalMatrix,
        y_train: np.ndarray,
        X_val: CategoricalMatrix,
        y_val: np.ndarray,
    ) -> "PathTuner":
        self.best_model_ = self.path.fit_best(X_train, y_train, X_val, y_val)
        self.best_params_ = {"lam": self.best_model_.lam}
        return self

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        return self.best_model_.predict(X)

    def score(self, X: CategoricalMatrix, y: np.ndarray) -> float:
        return self.best_model_.score(X, y)


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: how to build one paper model's tuner.

    Attributes
    ----------
    key:
        Registry key (``dt_gini``, ``svm_rbf``, ...).
    display:
        Name as it appears in the paper's table headers.
    family:
        Advisor model family (:data:`repro.core.advisor.FAMILY_THRESHOLDS`).
    make_tuner:
        Builds a fresh tuner for a scale profile.  A tuner exposes
        ``fit(X_train, y_train, X_val, y_val)``, ``predict`` and ``score``.
    """

    key: str
    display: str
    family: str
    make_tuner: Callable[[Scale], Any]


def _tree_spec(key: str, display: str, criterion: str) -> ModelSpec:
    def make(scale: Scale):
        return GridSearch(
            DecisionTreeClassifier(
                criterion=criterion, unseen="majority", random_state=0
            ),
            grid=scale.grid_for(key),
        )

    return ModelSpec(key=key, display=display, family="decision_tree", make_tuner=make)


def _svm_spec(key: str, display: str, kernel: str, family: str) -> ModelSpec:
    def make(scale: Scale):
        return GridSearch(
            KernelSVC(
                kernel=kernel,
                degree=2,
                max_passes=scale.svm_max_passes,
                random_state=0,
            ),
            grid=scale.grid_for(key),
        )

    return ModelSpec(key=key, display=display, family=family, make_tuner=make)


def _ann_spec() -> ModelSpec:
    def make(scale: Scale):
        return GridSearch(
            MLPClassifier(
                hidden_sizes=scale.ann_hidden,
                epochs=scale.ann_epochs,
                random_state=0,
            ),
            grid=scale.grid_for("ann"),
        )

    return ModelSpec(key="ann", display="ANN", family="ann", make_tuner=make)


def _nb_spec() -> ModelSpec:
    def make(scale: Scale):
        return BackwardSelection(CategoricalNB(alpha=1.0))

    return ModelSpec(
        key="nb_bfs", display="Naive Bayes (BFS)", family="linear", make_tuner=make
    )


def _lr_spec() -> ModelSpec:
    def make(scale: Scale):
        return PathTuner(nlambda=scale.lr_nlambda)

    return ModelSpec(
        key="lr_l1", display="Logistic Regression (L1)", family="linear",
        make_tuner=make,
    )


def _nn1_spec() -> ModelSpec:
    def make(scale: Scale):
        return GridSearch(KNeighborsClassifier(n_neighbors=1), grid={})

    return ModelSpec(key="nn1", display="1-NN", family="1nn", make_tuner=make)


#: All ten classifiers of the study, keyed as used by the benchmarks.
MODEL_REGISTRY: dict[str, ModelSpec] = {
    spec.key: spec
    for spec in (
        _tree_spec("dt_gini", "Decision Tree (Gini)", "gini"),
        _tree_spec("dt_entropy", "Decision Tree (Information Gain)", "entropy"),
        _tree_spec("dt_gain_ratio", "Decision Tree (Gain Ratio)", "gain_ratio"),
        _nn1_spec(),
        _svm_spec("svm_linear", "SVM (Linear)", "linear", "linear"),
        _svm_spec("svm_quadratic", "SVM (Polynomial)", "poly", "rbf_svm"),
        _svm_spec("svm_rbf", "SVM (RBF)", "rbf", "rbf_svm"),
        _ann_spec(),
        _nb_spec(),
        _lr_spec(),
    )
}


@dataclass
class RunResult:
    """Outcome of one (dataset, model, strategy) experiment cell."""

    dataset: str
    model: str
    strategy: str
    test_accuracy: float
    train_accuracy: float
    validation_accuracy: float
    seconds: float
    n_features: int
    best_params: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"{self.dataset}/{self.model}/{self.strategy}: "
            f"test={self.test_accuracy:.4f} train={self.train_accuracy:.4f} "
            f"({self.seconds:.2f}s, {self.n_features} features)"
        )


@dataclass
class FittedPipeline:
    """A tuned, trained pipeline kept alive after its experiment cell.

    Historically the runner fitted a tuner, scored it and threw it away;
    this container is what the serving layer needs instead: the fitted
    predictor together with the strategy and feature list that define how
    to assemble its inputs.  Build one with :func:`fit_pipeline` and hand
    it to :func:`repro.serving.artifact_from_pipeline` to export it.
    """

    dataset_name: str
    model_key: str
    spec: ModelSpec
    strategy: JoinStrategy
    tuner: Any
    matrices: StrategyMatrices
    fit_seconds: float

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Feature columns the fitted tuner consumes, in matrix order."""
        return self.matrices.feature_names

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        """Predict integer class codes with the tuned model."""
        return self.tuner.predict(X)

    def result(self) -> RunResult:
        """Score the pipeline into the :class:`RunResult` table row."""
        with trace("score", split="test"):
            test_accuracy = self.tuner.score(
                self.matrices.X_test, self.matrices.y_test
            )
        with trace("score", split="train"):
            train_accuracy = self.tuner.score(
                self.matrices.X_train, self.matrices.y_train
            )
        return RunResult(
            dataset=self.dataset_name,
            model=self.spec.display,
            strategy=self.strategy.name,
            test_accuracy=test_accuracy,
            train_accuracy=train_accuracy,
            validation_accuracy=float(
                getattr(self.tuner, "best_validation_accuracy_", np.nan)
            ),
            seconds=self.fit_seconds,
            n_features=self.matrices.X_train.n_features,
            best_params=dict(getattr(self.tuner, "best_params_", {})),
        )


def fit_pipeline(
    dataset: SplitDataset,
    model_key: str,
    strategy: JoinStrategy,
    scale: Scale | None = None,
    matrices: StrategyMatrices | None = None,
) -> FittedPipeline:
    """Materialise, tune and train one pipeline, keeping the fitted model.

    Parameters
    ----------
    dataset:
        A pre-split star-schema dataset.
    model_key:
        Key into :data:`MODEL_REGISTRY`.
    strategy:
        Feature-set strategy (JoinAll / NoJoin / NoFK / NoRi).
    scale:
        Resource profile; ``None`` resolves via ``REPRO_SCALE``.
    matrices:
        Pre-materialised matrices (to share the join across models);
        built from the strategy when omitted.
    """
    try:
        spec = MODEL_REGISTRY[model_key]
    except KeyError:
        raise ValueError(
            f"unknown model {model_key!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None
    scale = scale or get_scale()
    started = time.perf_counter()
    if matrices is None:
        # Materialisation is the paper's join-or-avoid quantity: the
        # KFK join (when the strategy keeps it) plus feature encoding.
        with trace("join", strategy=strategy.name):
            matrices = strategy.matrices(dataset)
    tuner = spec.make_tuner(scale)
    with trace("tune", model=model_key):
        tuner.fit(
            matrices.X_train,
            matrices.y_train,
            matrices.X_validation,
            matrices.y_validation,
        )
    elapsed = time.perf_counter() - started
    return FittedPipeline(
        dataset_name=dataset.name,
        model_key=model_key,
        spec=spec,
        strategy=strategy,
        tuner=tuner,
        matrices=matrices,
        fit_seconds=elapsed,
    )


#: Models with an out-of-core training path (see :mod:`repro.streaming`).
STREAMABLE_MODELS = (
    "lr_l1",
    "ann",
    "nb",
    "dt_gini",
    "dt_entropy",
    "dt_gain_ratio",
)

#: Display names for streamable keys without a same-named registry entry
#: (streaming NB fits a single smoothing configuration, not the
#: backward-feature-selection tuner behind ``nb_bfs``).
_STREAM_DISPLAYS = {"nb": "Naive Bayes"}


def streaming_model_display(model_key: str) -> str:
    """Table-header name of a streamable model configuration."""
    if model_key in _STREAM_DISPLAYS:
        return _STREAM_DISPLAYS[model_key]
    return MODEL_REGISTRY[model_key].display


def make_streaming_model(
    model_key: str,
    scale: Scale | None = None,
    seed: int = 0,
):
    """Build one streaming-capable model at a scale profile.

    The streaming path fits a single configuration rather than a tuning
    grid — hyper-parameter search over larger-than-RAM data would
    multiply full passes by the grid size.  The MLP follows the scale
    profile's topology and epoch budget; the logistic model uses the
    paper's ``maxit=10000`` cap with early stopping at ``tol``; Naive
    Bayes streams its counts and the trees their split histograms
    exactly, so no configuration differs from the in-memory one.
    Every model takes shards of either layout (see
    :func:`repro.data.encoder.factorize_dimension`).
    """
    scale = scale or get_scale()
    if model_key == "lr_l1":
        return L1LogisticRegression(lam=1e-3, max_iter=10_000, tol=1e-5)
    if model_key == "ann":
        return MLPClassifier(
            hidden_sizes=scale.ann_hidden,
            epochs=scale.ann_epochs,
            random_state=seed,
        )
    if model_key == "nb":
        return CategoricalNB(alpha=1.0)
    if model_key in ("dt_gini", "dt_entropy", "dt_gain_ratio"):
        criterion = model_key.removeprefix("dt_")
        return DecisionTreeClassifier(
            criterion=criterion, unseen="majority", random_state=seed
        )
    raise ValueError(
        f"model {model_key!r} has no streaming path; streamable models: "
        f"{list(STREAMABLE_MODELS)}"
    )


def split_accuracy(model, source) -> float:
    """Accuracy of a fitted model over one split's :class:`FeatureSource`.

    The single scoring helper shared by every experiment path (it *is*
    :func:`repro.data.source_accuracy`): hits accumulate shard by
    shard, so scoring an out-of-core split has the same bounded
    footprint as training on it, and scoring an in-memory split is the
    plain full-matrix accuracy.
    """
    return source_accuracy(model, source)


def _run_source_experiment(
    dataset: SplitDataset,
    model_key: str,
    strategy: JoinStrategy,
    spec: SourceSpec,
    scale: Scale | None,
    seed: int,
    mode: str = "exact",
    checkpoint=None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> RunResult:
    """One single-configuration cell over :class:`SourceSpec`-built sources."""
    from repro.streaming import StreamingTrainer

    scale = scale or get_scale()
    model = make_streaming_model(model_key, scale, seed)
    started = time.perf_counter()
    # Source construction resolves the strategy's join plan per split
    # (sharded sources then encode lazily, shard by shard, inside fit
    # and score — those show up as merged ``encode.shard`` spans).
    with trace("join", strategy=strategy.name):
        sources = spec.split_sources(
            dataset, strategy, registry=global_registry()
        )
    try:
        trainer = StreamingTrainer(
            model,
            seed=seed,
            mode=mode,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        trainer.fit(sources["train"])

        def scored(split: str) -> float:
            with trace("score", split=split):
                return split_accuracy(model, sources[split])

        result = RunResult(
            dataset=dataset.name,
            model=streaming_model_display(model_key),
            strategy=strategy.name,
            test_accuracy=scored("test"),
            train_accuracy=scored("train"),
            validation_accuracy=scored("validation"),
            seconds=0.0,
            n_features=sources["train"].n_features,
            best_params={
                **spec.describe(),
                "shard_rows": sources["train"].shard_rows,
                "n_shards": sources["train"].n_shards,
            },
        )
    finally:
        for source in sources.values():
            source.close()
    result.seconds = time.perf_counter() - started
    return result


def run_experiment(
    dataset: SplitDataset,
    model_key: str,
    strategy: JoinStrategy,
    scale: Scale | None = None,
    matrices: StrategyMatrices | None = None,
    source: SourceSpec | None = None,
    seed: int = 0,
    mode: str = "exact",
    checkpoint=None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> RunResult:
    """Run one experiment cell end to end.

    With ``source=None`` (the default) this is the paper's tuned
    harness: a thin wrapper over :func:`fit_pipeline` that immediately
    scores the pipeline and discards it.  The reported time covers
    feature materialisation, the full grid search, refit and test-set
    scoring — the paper's Figure 1 quantity.

    With a :class:`repro.data.SourceSpec`, the cell instead fits the
    single :func:`make_streaming_model` configuration over the spec's
    per-split :class:`~repro.data.FeatureSource`\\ s — in memory for
    ``SourceSpec()``, out of core for a sharded spec, with optional
    prefetch/spill-cache decorators — and scores every split through
    the shared :func:`split_accuracy`.  This subsumes the
    ``run_inmemory_experiment`` / ``run_streaming_experiment`` pair of
    earlier revisions: a sharded spec with a single shard is
    bit-identical to the in-memory spec on the same model.

    ``seed`` feeds the source path's model and shard-order RNGs only.
    The tuned path pins its tuners to the paper's fixed
    ``random_state=0`` grids and ignores ``seed``; vary the dataset
    generation seed to resample a tuned cell.

    ``mode``, ``checkpoint``, ``checkpoint_every`` and ``resume`` are
    forwarded to the source path's
    :class:`~repro.streaming.StreamingTrainer` (checkpoint/resume
    semantics are documented there); the tuned path rejects them via
    the trainer's own validation when combined incorrectly and ignores
    them otherwise.
    """
    if source is not None:
        if matrices is not None:
            raise ValueError(
                "matrices= belongs to the tuned path; a SourceSpec builds "
                "its own per-split sources — pass one or the other"
            )
        return _run_source_experiment(
            dataset, model_key, strategy, source, scale, seed,
            mode=mode, checkpoint=checkpoint,
            checkpoint_every=checkpoint_every, resume=resume,
        )
    started = time.perf_counter()
    pipeline = fit_pipeline(
        dataset, model_key, strategy, scale=scale, matrices=matrices
    )
    result = pipeline.result()
    result.seconds = time.perf_counter() - started
    return result
