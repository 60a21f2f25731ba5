"""Model selection with a dedicated validation split.

The paper's protocol (Section 3.2): each dataset is pre-split
50/25/25 into train/validation/test; hyper-parameters are chosen by grid
search on the validation split; the tuned model (trained on the training
split only) is then scored on the holdout test split.
:class:`BackwardSelection` adds the greedy feature elimination the paper
pairs with Naive Bayes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ModelSelectionError
from repro.ml.base import Estimator, check_fitted
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import gathered


@dataclass
class GridSearchResult:
    """Outcome of one grid point."""

    params: dict[str, Any]
    validation_accuracy: float
    fit_seconds: float


@dataclass
class GridSearch:
    """Exhaustive hyper-parameter search against a validation split.

    Parameters
    ----------
    estimator:
        A template estimator; each grid point clones it with overrides.
    grid:
        ``{param: [values...]}``; the cross product is searched.  An empty
        grid evaluates the template's own parameters once.
    """

    estimator: Estimator
    grid: dict[str, list[Any]] = field(default_factory=dict)

    def candidates(self) -> list[dict[str, Any]]:
        """All grid points as parameter dicts, in deterministic order."""
        if not self.grid:
            return [{}]
        names = list(self.grid)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.grid[n] for n in names))
        ]

    def fit(
        self,
        X_train: CategoricalMatrix,
        y_train: np.ndarray,
        X_val: CategoricalMatrix,
        y_val: np.ndarray,
    ) -> "GridSearch":
        """Search the grid; keeps the best model and the full trace.

        Ties are broken toward the earlier grid point so results are
        reproducible.
        """
        self.results_: list[GridSearchResult] = []
        best_score = -np.inf
        best_model: Estimator | None = None
        best_params: dict[str, Any] = {}
        for params in self.candidates():
            model = self.estimator.clone(**params)
            started = time.perf_counter()
            model.fit(X_train, y_train)
            elapsed = time.perf_counter() - started
            score = model.score(X_val, y_val)
            self.results_.append(
                GridSearchResult(
                    params=params, validation_accuracy=score, fit_seconds=elapsed
                )
            )
            if score > best_score:
                best_score = score
                best_model = model
                best_params = params
        if best_model is None:
            # Every grid point scored NaN (e.g. degenerate fits): `score >
            # best_score` is always false for NaN, so without this check
            # the search would silently keep best_model_ = None and die
            # later with a bare AttributeError in predict().
            failing = ", ".join(
                f"{result.params or '{}'} -> {result.validation_accuracy}"
                for result in self.results_
            )
            raise ModelSelectionError(
                f"grid search found no usable model: every grid point "
                f"produced a non-comparable validation score ({failing})"
            )
        self.best_model_ = best_model
        self.best_params_ = best_params
        self.best_validation_accuracy_ = float(best_score)
        return self

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        """Predict with the best model found."""
        check_fitted(self, "best_model_")
        return self.best_model_.predict(X)

    def score(self, X: CategoricalMatrix, y: np.ndarray) -> float:
        """Accuracy of the best model on ``(X, y)``."""
        check_fitted(self, "best_model_")
        return self.best_model_.score(X, y)


class BackwardSelection:
    """Greedy backward feature elimination on validation accuracy.

    Starting from all features, repeatedly drop the feature whose removal
    most improves (or least degrades, within ``tolerance``) validation
    accuracy, until no removal helps.  This is the "Naive Bayes with
    backward selection" configuration of the original Hamlet study that
    the paper reuses.

    Parameters
    ----------
    estimator:
        Template estimator refitted at every candidate subset.
    tolerance:
        A removal is kept if it does not drop validation accuracy by more
        than this amount (0 keeps only strict non-degradations).
    min_features:
        Stop before going below this many features.
    """

    def __init__(
        self,
        estimator: Estimator,
        tolerance: float = 0.0,
        min_features: int = 1,
    ):
        if min_features < 1:
            raise ValueError(f"min_features must be >= 1, got {min_features}")
        self.estimator = estimator
        self.tolerance = tolerance
        self.min_features = min_features

    def fit(
        self,
        X_train: CategoricalMatrix,
        y_train: np.ndarray,
        X_val: CategoricalMatrix,
        y_val: np.ndarray,
    ) -> "BackwardSelection":
        selected = list(range(X_train.n_features))
        model = self.estimator.clone()
        model.fit(X_train, y_train)
        best_score = model.score(X_val, y_val)
        self.trace_: list[tuple[tuple[str, ...], float]] = [
            (tuple(X_train.names[j] for j in selected), best_score)
        ]
        improved = True
        while improved and len(selected) > self.min_features:
            improved = False
            best_candidate: tuple[float, int] | None = None
            for position, feature in enumerate(selected):
                subset = selected[:position] + selected[position + 1 :]
                candidate = self.estimator.clone()
                candidate.fit(X_train.select_features(subset), y_train)
                score = candidate.score(X_val.select_features(subset), y_val)
                if best_candidate is None or score > best_candidate[0]:
                    best_candidate = (score, position)
            if best_candidate and best_candidate[0] >= best_score - self.tolerance:
                best_score = max(best_score, best_candidate[0])
                del selected[best_candidate[1]]
                self.trace_.append(
                    (tuple(X_train.names[j] for j in selected), best_candidate[0])
                )
                improved = True
        self.selected_indices_ = tuple(selected)
        self.selected_names_ = tuple(X_train.names[j] for j in selected)
        final = self.estimator.clone()
        final.fit(X_train.select_features(selected), y_train)
        self.best_model_ = final
        self.best_validation_accuracy_ = float(best_score)
        return self

    def _project(self, X: CategoricalMatrix) -> CategoricalMatrix:
        # A factorized shard is gathered first: the subset may split a
        # blocked dimension's features.
        return gathered(X).select_features(list(self.selected_indices_))

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        """Predict with the final model on the selected feature subset."""
        check_fitted(self, "best_model_")
        return self.best_model_.predict(self._project(X))

    def score(self, X: CategoricalMatrix, y: np.ndarray) -> float:
        """Accuracy on ``(X, y)`` using the selected feature subset."""
        check_fitted(self, "best_model_")
        return self.best_model_.score(self._project(X), y)
