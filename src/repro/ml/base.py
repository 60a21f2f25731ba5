"""Estimator protocol shared by every learner in the substrate.

Mirrors the conventions that make grid search and cloning generic:
constructor parameters are hyper-parameters, ``fit`` learns state into
trailing-underscore attributes, ``get_params``/``set_params``/``clone``
move hyper-parameters around without copying learned state.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import NotFittedError
from repro.ml.encoding import CategoricalMatrix
from repro.ml.metrics import accuracy


def check_fitted(estimator: "Estimator", attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has ``attribute``."""
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} must be fitted before use "
            f"(missing attribute {attribute!r})"
        )


def check_X_y(X: CategoricalMatrix, y: np.ndarray) -> np.ndarray:
    """Validate a feature matrix / label vector pair, returning clean labels."""
    from repro.ml.sparse import FactorizedMatrix

    if not isinstance(X, (CategoricalMatrix, FactorizedMatrix)):
        raise TypeError(
            f"estimators consume CategoricalMatrix or FactorizedMatrix, "
            f"got {type(X).__name__}"
        )
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got {y.ndim}-D")
    if y.shape[0] != X.n_rows:
        raise ValueError(
            f"X has {X.n_rows} rows but y has {y.shape[0]} labels"
        )
    if y.shape[0] == 0:
        raise ValueError("cannot fit on zero examples")
    if y.min() < 0:
        raise ValueError("labels must be non-negative integer codes")
    return y


class Estimator:
    """Base class for all classifiers.

    Subclasses declare hyper-parameters in ``_param_names`` and store
    them as attributes of the same name in ``__init__``.  A subclass
    whose fitted model yields, through ``prune(value)``, the model a fit
    at any larger value of one hyper-parameter would give names that
    hyper-parameter in ``_prunable_param``.
    """

    _param_names: tuple[str, ...] = ()
    _prunable_param: str | None = None

    def get_params(self) -> dict[str, Any]:
        """Return the hyper-parameters as a name → value dict."""
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params: Any) -> "Estimator":
        """Set hyper-parameters in place; unknown names raise ValueError."""
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(
                    f"{type(self).__name__} has no hyper-parameter {name!r}; "
                    f"valid: {list(self._param_names)}"
                )
            setattr(self, name, value)
        return self

    def clone(self, **overrides: Any) -> "Estimator":
        """A fresh unfitted estimator with the same hyper-parameters.

        Keyword overrides replace individual hyper-parameters, which is
        how grid search instantiates each grid point.
        """
        params = self.get_params()
        params.update(overrides)
        return type(self)(**params)

    # Subclass contract ------------------------------------------------
    def fit(self, X: CategoricalMatrix, y: np.ndarray) -> "Estimator":
        """Learn from ``(X, y)``; returns self."""
        raise NotImplementedError

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        """Predict integer class codes for ``X``."""
        raise NotImplementedError

    def score(self, X: CategoricalMatrix, y: np.ndarray) -> float:
        """Holdout accuracy of ``predict(X)`` against ``y``."""
        return accuracy(np.asarray(y), self.predict(X))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"
