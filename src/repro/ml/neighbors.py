"""k-nearest neighbours on one-hot encoded categorical features.

The paper's "braindead" 1-NN baseline (Section 3/5).  For one-hot encoded
categorical vectors, the squared Euclidean distance between two examples
is exactly ``2 × (number of mismatching features)``, so neighbours come
from :meth:`repro.ml.sparse.OneHotMatrix.squared_distances` — the
code-equality kernel shared with the SVM Gram computation —
mathematically identical to one-hot Euclidean 1-NN but linear rather
than quadratic in total domain size.  Section 5's analysis of why FK
memorisation does not hurt 1-NN generalisation rests on this distance
structure.  Distances compare codes row by row, so factorized shards
are gathered first.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import OneHotMatrix, gathered


class KNeighborsClassifier(Estimator):
    """k-NN classifier with the one-hot (mismatch-count) metric.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours; the paper uses 1.
    chunk_size:
        Test examples per vectorised distance block, a memory/speed knob
        with no effect on results.
    """

    _param_names = ("n_neighbors", "chunk_size")

    def __init__(self, n_neighbors: int = 1, chunk_size: int = 256):
        self.n_neighbors = n_neighbors
        self.chunk_size = chunk_size

    def fit(self, X: CategoricalMatrix, y: np.ndarray) -> "KNeighborsClassifier":
        y = check_X_y(X, y)
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if self.n_neighbors > X.n_rows:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds training size {X.n_rows}"
            )
        self.X_ = gathered(X)
        self.y_ = y
        self.n_classes_ = max(int(y.max()) + 1, 2)
        return self

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        check_fitted(self, "X_")
        if X.n_features != self.X_.n_features:
            raise ValueError(
                f"expected {self.X_.n_features} features, got {X.n_features}"
            )
        train = OneHotMatrix(self.X_)
        test = OneHotMatrix(gathered(X))
        out = np.empty(X.n_rows, dtype=np.int64)
        k = self.n_neighbors
        for start in range(0, X.n_rows, self.chunk_size):
            block = test.take_rows(slice(start, start + self.chunk_size))
            # One-hot squared distances are a monotone transform of the
            # mismatch counts, and exact small even integers in float64,
            # so ties still break by training order (stable argmin).
            distances = block.squared_distances(train, chunk_size=block.n_rows)
            if k == 1:
                nearest = np.argmin(distances, axis=1)
                out[start : start + block.n_rows] = self.y_[nearest]
            else:
                nearest = np.argpartition(distances, k - 1, axis=1)[:, :k]
                for i in range(block.n_rows):
                    votes = np.bincount(
                        self.y_[nearest[i]], minlength=self.n_classes_
                    )
                    out[start + i] = int(np.argmax(votes))
        return out
