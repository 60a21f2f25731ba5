"""Factorized serving: per-dimension score contributions fixed at load.

A trained linear or NB model's score is *additive over features*, so
each joined dimension's share of the score depends only on which
dimension row a fact row resolves to — never on the fact row itself.
:class:`FactorizedScorer` exploits that at model-load time: for every
joined dimension it folds the model's per-feature weights through the
dimension's ``(|D|, d_R)`` code block once, producing a single
per-dimension-row contribution vector (``(|D|,)`` for the linear score,
``(|D|, C)`` for NB joint log-likelihoods).  A served prediction is
then one table gather per fact feature plus one ``contrib[dim_rows]``
gather per dimension and an add — no per-row dimension-feature work at
all, for any ``d_R`` and any batch size.

This is the serving analogue of the training-side kernel push-down in
:class:`~repro.ml.sparse.FactorizedMatrix`, without its break-even
point: training pays ``O(|D|·d_R)`` per kernel pass, so the encoder
blocks a dimension only when the shard is large enough
(:func:`repro.data.encoder.factorize_dimension`); serving pays it
exactly once per loaded model, so
:class:`~repro.serving.server.PredictionServer` scores through this
whenever the artifact's model supports it.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.ml.encoding import check_code_ranges
from repro.ml.linear.logistic import L1LogisticRegression
from repro.ml.naive_bayes import CategoricalNB

__all__ = ["FactorizedScorer", "supports_factorized_serving"]


def _unwrap(model):
    """Peel tuner wrappers down to the fitted estimator.

    Only a wrapper that holds its own ``best_model_`` is a tuner; one
    that merely delegates attribute lookups (such as the tests'
    fault-injecting model wrapper) changes what ``predict`` does and
    must keep serving through it.
    Feature-selecting wrappers are refused: their best model scores a
    *subset* of the assembled features, so per-dimension contributions
    computed against the full layout would be wrong.
    """
    while "best_model_" in getattr(model, "__dict__", {}):
        if getattr(model, "selected_indices_", None) is not None:
            raise ValueError(
                "factorized serving does not support feature-selected "
                "models: the fitted model consumes a feature subset, not "
                "the assembled layout"
            )
        model = model.best_model_
    return model


def supports_factorized_serving(model) -> bool:
    """Whether an artifact's model can serve through the factorized path."""
    try:
        unwrapped = _unwrap(model)
    except ValueError:
        return False
    return isinstance(unwrapped, (L1LogisticRegression, CategoricalNB))


class FactorizedScorer:
    """Precomputed factorized predictor for one (artifact, encoder) pair.

    Parameters
    ----------
    artifact:
        A loaded :class:`~repro.serving.artifacts.ModelArtifact` whose
        (possibly tuner-wrapped) model is an
        :class:`~repro.ml.linear.logistic.L1LogisticRegression` or a
        :class:`~repro.ml.naive_bayes.CategoricalNB`.
    features:
        The server's :class:`~repro.data.encoder.ShardEncoder`: supplies
        the feature layout, its assembly plan (which code-table columns
        are fact features, which positions each joined dimension fills)
        and each joined dimension's memoised code block.

    Construction walks every joined dimension's block once; afterwards
    :meth:`predict_codes` reads only the batch's fact columns and each
    dimension's resolved rows — it never touches a block.
    """

    def __init__(self, artifact, features):
        model = _unwrap(artifact.model)
        n_levels = tuple(features.n_levels)
        offsets = np.concatenate(([0], np.cumsum(n_levels))).astype(np.int64)

        # Per feature, its score table indexed by code: the coefficient
        # slice of its one-hot block (linear) or its transposed
        # (k, C) log-probabilities (NB).
        if isinstance(model, L1LogisticRegression):
            self._kind = "linear"
            coef = np.asarray(model.coef_, dtype=np.float64)
            self._prior = float(model.intercept_)
            tables = [
                coef[offsets[position] : offsets[position + 1]]
                for position in range(len(n_levels))
            ]
        elif isinstance(model, CategoricalNB):
            self._kind = "nb"
            self._prior = np.asarray(
                model.class_log_prior_, dtype=np.float64
            )
            tables = [
                np.asarray(log_prob).T for log_prob in model.feature_log_prob_
            ]
        else:
            raise ValueError(
                f"factorized serving supports L1 logistic regression and "
                f"categorical naive Bayes; artifact model is "
                f"{type(model).__name__}"
            )
        # The encoder's plan: the fact features are a code table's first
        # columns, and each joined dimension's plan lists the positions
        # of its kept features (its block's column order).
        self._fact_features = tuple(features._fact_features)
        self._fact_levels = tuple(features._fact_levels)
        self._fact_tables = [tables[p] for p in features._fact_positions]
        self._dim_contrib: dict[str, np.ndarray] = {}
        for plan in features._plans:
            block = features.dimension_block(plan.name)
            contrib = np.zeros(
                block.shape[:1] + np.shape(self._prior), dtype=np.float64
            )
            for c, position in enumerate(plan.positions):
                contrib += tables[position][block[:, c]]
            self._dim_contrib[plan.name] = contrib

    def predict_codes(
        self, codes: np.ndarray, dim_rows: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Predict label codes for one batch's ``(n, k)`` code table.

        ``codes`` is the table the encoder assembles from (columns in
        ``required_columns`` order, the fact features first), and
        ``dim_rows`` maps each joined dimension to its resolved row per
        fact row (:meth:`~repro.data.encoder.ShardEncoder.dimension_rows`
        of the same table).  One range check over the table's fact
        columns, which names the first offending feature in column
        order; then per fact feature one score-table gather, and per
        joined dimension one ``contrib[dim_rows]`` gather — the
        per-dimension work was all done at load.
        """
        scores = np.tile(
            self._prior, (codes.shape[0],) + (1,) * np.ndim(self._prior)
        )
        # The fact columns copied feature-major once, so each feature's
        # min/max and gather read contiguous memory.
        fact = codes[:, : len(self._fact_tables)].T.copy()
        check_code_ranges(fact.T, self._fact_levels, self._fact_features)
        for table, feature_codes in zip(self._fact_tables, fact):
            scores += table[feature_codes]
        for name, contrib in self._dim_contrib.items():
            scores += contrib[dim_rows[name]]
        if self._kind == "linear":
            return (scores >= 0).astype(np.int64)
        return np.argmax(scores, axis=1)

    def __repr__(self) -> str:
        return (
            f"FactorizedScorer(kind={self._kind!r}, "
            f"{len(self._fact_tables)} fact features, "
            f"{len(self._dim_contrib)} dimensions)"
        )
