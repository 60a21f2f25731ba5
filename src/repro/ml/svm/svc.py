"""Kernel SVM classifier wrapping the SMO solver.

Consumes a :class:`~repro.ml.encoding.CategoricalMatrix` and one-hot
encodes internally, matching the paper's treatment of categorical
features for SVMs (Section 5 relies on this encoding in its distance
analysis: a foreign key contributes at most 2 to any squared distance).

The Gram matrix comes straight from code-equality counts
(:mod:`repro.ml.sparse`) and the support vectors are kept as an
implicit view over their code rows, so neither training nor prediction
materialises the one-hot encoding.  Gram blocks compare codes row by
row, so a factorized shard is gathered first.
"""

from __future__ import annotations

import numpy as np

from repro.ml import sparse
from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import OneHotMatrix
from repro.ml.svm.kernels import kernel_function
from repro.ml.svm.smo import solve_smo

#: Support-vector multipliers below this threshold are dropped at fit end.
_SUPPORT_THRESHOLD = 1e-8


class KernelSVC(Estimator):
    """Binary soft-margin SVM with linear, polynomial or RBF kernel.

    Parameters
    ----------
    kernel:
        ``'linear'``, ``'poly'`` (degree fixed by ``degree``) or ``'rbf'``.
    C:
        Misclassification cost.
    gamma:
        Kernel bandwidth / scale (ignored by the linear kernel).
    degree:
        Polynomial degree; the paper's quadratic SVM uses 2.
    coef0:
        Polynomial offset.
    tol, max_passes, max_iterations:
        SMO solver controls (see :func:`repro.ml.svm.smo.solve_smo`).
    random_state:
        Seed for the solver's second-choice fallback.
    """

    _param_names = (
        "kernel",
        "C",
        "gamma",
        "degree",
        "coef0",
        "tol",
        "max_passes",
        "max_iterations",
        "random_state",
    )

    def __init__(
        self,
        kernel: str = "rbf",
        C: float = 1.0,
        gamma: float = 0.1,
        degree: int = 2,
        coef0: float = 1.0,
        tol: float = 1e-3,
        max_passes: int = 3,
        max_iterations: int = 20_000,
        random_state: int | None = 0,
    ):
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tol = tol
        self.max_passes = max_passes
        self.max_iterations = max_iterations
        self.random_state = random_state

    def _kernel(self):
        return kernel_function(
            self.kernel, gamma=self.gamma, degree=self.degree, coef0=self.coef0
        )

    def fit(self, X: CategoricalMatrix, y: np.ndarray) -> "KernelSVC":
        y = check_X_y(X, y)
        classes = np.unique(y)
        if classes.size > 2:
            raise ValueError(
                f"KernelSVC is a binary classifier; got {classes.size} classes"
            )
        self.classes_ = classes if classes.size == 2 else np.array([0, 1])
        encoded = sparse.encode_features(sparse.gathered(X))
        if classes.size == 1:
            # Degenerate but legal: everything is one class.  Index with
            # an array (copy, not a slice view) so the one stored row
            # does not pin the whole training encoding.
            self.support_vectors_ = sparse.take_rows(encoded, np.arange(1))
            self.dual_coef_ = np.zeros(1)
            self.bias_ = 1.0 if classes[0] == self.classes_[-1] else -1.0
            self.n_features_ = X.n_features
            return self
        y_signed = np.where(y == self.classes_[1], 1.0, -1.0)
        gram = self._kernel()(encoded, encoded)
        result = solve_smo(
            gram,
            y_signed,
            C=self.C,
            tol=self.tol,
            max_passes=self.max_passes,
            max_iterations=self.max_iterations,
            seed=self.random_state,
        )
        support = result.alpha > _SUPPORT_THRESHOLD
        if not np.any(support):
            # All multipliers at zero: fall back to the majority class via bias.
            support = np.zeros_like(support)
            support[0] = True
        self.support_vectors_ = sparse.take_rows(encoded, support)
        self.dual_coef_ = (result.alpha * y_signed)[support]
        self.bias_ = result.bias
        self.converged_ = result.converged
        self.n_features_ = X.n_features
        return self

    def decision_function(self, X: CategoricalMatrix) -> np.ndarray:
        """Signed distance-like score; positive means the second class."""
        check_fitted(self, "support_vectors_")
        if X.n_features != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.n_features}"
            )
        # Encode like the stored support vectors, so artifacts fitted on
        # the dense one-hot encoding keep working.
        X = sparse.gathered(X)
        if isinstance(self.support_vectors_, OneHotMatrix):
            encoded = OneHotMatrix(X)
        else:
            encoded = X.onehot()
        gram = self._kernel()(encoded, self.support_vectors_)
        return gram @ self.dual_coef_ + self.bias_

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores >= 0, self.classes_[-1], self.classes_[0])
