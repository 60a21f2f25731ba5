"""Categorical Naive Bayes with Laplace smoothing.

One of the paper's linear(-capacity) baselines, inherited from the
original Hamlet study.  Works directly on integer codes; Laplace
pseudocounts over the *closed* domain mean prediction is defined for any
valid code, including levels never seen in training.

The sufficient statistics are pure counts, so training streams exactly:
:meth:`CategoricalNB.partial_fit` adds one shard's class and
(feature level, class) counts to running integer accumulators and
re-derives the smoothed log-probabilities, and
:meth:`CategoricalNB.fit_stream` drives it over any
:class:`repro.data.FeatureSource`.  Integer accumulation is associative,
so a shard-streamed fit is **bit-identical** to the in-memory fit for
every shard layout — not merely close — and ``fit`` itself is one
``partial_fit`` call on a fresh model.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import FactorizedMatrix, OneHotMatrix


def _operand(X: "CategoricalMatrix | FactorizedMatrix") -> FactorizedMatrix:
    """A shard of either layout as per-row codes plus blocks: a gathered
    shard is its no-block :class:`~repro.ml.sparse.OneHotMatrix`.

    Not :func:`repro.ml.sparse.encode_features`, which tests substitute
    with the dense one-hot oracle: Naive Bayes counts codes.
    """
    return OneHotMatrix(X) if isinstance(X, CategoricalMatrix) else X


class CategoricalNB(Estimator):
    """Naive Bayes over categorical features.

    Parameters
    ----------
    alpha:
        Laplace pseudocount added to every (feature level, class) cell;
        the paper's standard smoothing (Section 6.2 cites the same idea).
    """

    _param_names = ("alpha",)

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X: CategoricalMatrix, y: np.ndarray) -> "CategoricalNB":
        check_X_y(X, y)
        self._reset()
        return self.partial_fit(X, y)

    def fit_stream(self, source) -> "CategoricalNB":
        """Fit from a :class:`repro.data.FeatureSource`, one shard at a time.

        A label scan fixes ``n_classes`` up front (the same
        ``max(y) + 1`` an in-memory fit sees, even when a shard lacks
        some class), then one pass accumulates counts.  Bit-identical
        to :meth:`fit` on the concatenated data, per the module
        docstring.
        """
        self._reset()
        labels = source.labels()
        if labels.size == 0:
            raise ValueError("cannot fit on zero examples")
        n_classes = max(int(labels.max()) + 1, 2)
        for X, y in source:
            self.partial_fit(X, y, n_classes=n_classes)
        return self

    def partial_fit(
        self,
        X: CategoricalMatrix,
        y: np.ndarray,
        n_classes: int | None = None,
    ) -> "CategoricalNB":
        """Accumulate one shard's counts and refresh the log-probabilities.

        The first call sizes the accumulators (``n_classes`` defaults to
        what ``y`` shows — pass it explicitly when the first shard might
        not contain every class); later calls add counts.  The model is
        usable after every call: the smoothed log-probabilities are
        recomputed from the running totals, so after the final shard
        they equal an in-memory fit's exactly.
        """
        y = check_X_y(X, y)
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not hasattr(self, "class_count_"):
            if n_classes is None:
                n_classes = max(int(y.max()) + 1, 2)
            elif n_classes < 2:
                raise ValueError(f"n_classes must be >= 2, got {n_classes}")
            self.n_classes_ = int(n_classes)
            self.n_levels_ = X.n_levels
            self.feature_names_ = X.names
            self.class_count_ = np.zeros(self.n_classes_, dtype=np.int64)
            self.feature_count_ = [
                np.zeros((self.n_classes_, k), dtype=np.int64)
                for k in X.n_levels
            ]
        else:
            if X.n_levels != self.n_levels_:
                raise ValueError(
                    f"shard has feature levels {X.n_levels}, model was "
                    f"initialised with {self.n_levels_}; shards must share "
                    f"closed domains"
                )
            if n_classes is not None and int(n_classes) != self.n_classes_:
                raise ValueError(
                    f"model was initialised with {self.n_classes_} classes, "
                    f"got n_classes={n_classes}"
                )
        if int(y.max()) >= self.n_classes_:
            raise ValueError(
                f"label {int(y.max())} out of range for "
                f"{self.n_classes_} classes"
            )
        self.class_count_ += np.bincount(y, minlength=self.n_classes_)
        self._accumulate(_operand(X), y)
        self._finalize()
        return self

    def _accumulate(self, X: FactorizedMatrix, y: np.ndarray) -> None:
        """Add a shard's counts without gathering the join.

        Per-row features count their codes directly.  For each blocked
        dimension, one ``bincount`` collapses the shard to a
        ``(n_classes, |D|)`` class-by-dimension-row table, and every
        foreign feature's counts are that table scattered through the
        dimension's code block — ``O(n + |D|·d_R)`` instead of
        ``O(n·d)``.  The per-(class, row) multiplicities are exact
        integers well below 2**53, so the float ``bincount`` weights
        round-trip exactly and the accumulated counts stay
        **bit-identical** to counting gathered codes.
        """
        C = self.n_classes_
        for c, position in enumerate(X.fact_positions):
            k = self.n_levels_[position]
            self.feature_count_[position] += np.bincount(
                y * k + X.fact_codes[:, c], minlength=C * k
            ).reshape(C, k)
        class_index = np.arange(C, dtype=np.int64)
        for group in X.groups:
            n_dim = group.n_dim_rows
            class_by_row = np.bincount(
                y * n_dim + group.dim_rows, minlength=C * n_dim
            ).reshape(C, n_dim)
            weights = class_by_row.astype(np.float64).ravel()
            for c, position in enumerate(group.positions):
                k = self.n_levels_[position]
                flat = (
                    class_index[:, np.newaxis] * k
                    + group.block[np.newaxis, :, c]
                ).ravel()
                counts = np.bincount(flat, weights=weights, minlength=C * k)
                self.feature_count_[position] += counts.reshape(C, k).astype(
                    np.int64
                )

    def _reset(self) -> None:
        """Drop learned state so a new training session starts fresh."""
        for attribute in (
            "class_count_",
            "feature_count_",
            "class_log_prior_",
            "feature_log_prob_",
            "n_classes_",
            "n_levels_",
            "feature_names_",
        ):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def _finalize(self) -> None:
        """Smoothed log-probabilities from the running count totals."""
        class_counts = self.class_count_
        # Uniform prior smoothing keeps empty classes finite.
        self.class_log_prior_ = np.log(
            (class_counts + self.alpha)
            / (class_counts.sum() + self.alpha * self.n_classes_)
        )
        self.feature_log_prob_ = []
        for counts in self.feature_count_:
            smoothed = counts + self.alpha
            denom = smoothed.sum(axis=1, keepdims=True)
            if self.alpha == 0:
                # Avoid log(0): levels with no mass get a tiny floor.
                smoothed = np.maximum(smoothed, 1e-12)
                denom = smoothed.sum(axis=1, keepdims=True)
            self.feature_log_prob_.append(np.log(smoothed / denom))

    def _joint_log_likelihood(self, X: CategoricalMatrix) -> np.ndarray:
        check_fitted(self, "class_log_prior_")
        if X.n_features != len(self.n_levels_):
            raise ValueError(
                f"expected {len(self.n_levels_)} features, got {X.n_features}"
            )
        X = _operand(X)
        jll = np.tile(self.class_log_prior_, (X.n_rows, 1))
        for c, position in enumerate(X.fact_positions):
            jll += self.feature_log_prob_[position][:, X.fact_codes[:, c]].T
        for group in X.groups:
            # Per-dimension-row class scores once over the block, then
            # one gather by resolved row per fact row.
            dim_jll = np.zeros(
                (group.n_dim_rows, self.n_classes_), dtype=np.float64
            )
            for c, position in enumerate(group.positions):
                dim_jll += self.feature_log_prob_[position][
                    :, group.block[:, c]
                ].T
            jll += dim_jll[group.dim_rows]
        return jll

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        return np.argmax(self._joint_log_likelihood(X), axis=1)

    def predict_proba(self, X: CategoricalMatrix) -> np.ndarray:
        """Posterior class probabilities (softmax of the joint log-likelihood)."""
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        p = np.exp(jll)
        return p / p.sum(axis=1, keepdims=True)
