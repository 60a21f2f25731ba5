"""Streaming NB and histogram-streamed trees: exact equivalence.

The equivalence contract for the two model families the unified data
layer brought out of core:

- ``CategoricalNB``: shard-accumulated counts are **bit-identical** to
  the in-memory fit — every learned array compared with
  ``np.array_equal``, for every shard layout.
- ``DecisionTreeClassifier``: per-shard histogram accumulation produces
  **identical splits** — same features, same level partitions, same
  counts, node for node.  ``fit`` is itself a one-shard ``fit_stream``,
  so every tree is checked against an independent reference: the
  depth-first builder below (:func:`depth_first_tree`), which recurses
  over row-index arrays and scores splits with the per-feature scan
  :func:`test_kernel_oracles.reference_best_split`.
"""

import numpy as np
import pytest

from repro.core import (
    avoid_dimensions_strategy,
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.data import MatrixSource, SourceSpec
from repro.data import source as data_source
from repro.datasets import generate_real_world
from repro.ml import CategoricalNB, DecisionTreeClassifier
from repro.ml.tree.cart import TreeNode
from repro.ml.tree.criteria import impurity_function
from repro.rng import ensure_rng
from repro.streaming import StreamingTrainer

from test_kernel_oracles import reference_best_split

STRATEGIES = {
    "JoinAll": join_all_strategy,
    "NoJoin": no_join_strategy,
    "NoFK": no_fk_strategy,
}

#: The trees also run a partial avoidance (Table 4's NoR1 shape).
TREE_STRATEGIES = {
    **STRATEGIES,
    "Nobusinesses": lambda: avoid_dimensions_strategy("businesses"),
}

#: Deep enough trees (6-10 levels on the fixture) that rows move down
#: many levels, and test rows meet unseen levels under the random policy.
TREE_PARAMS = {
    "minsplit": 10, "cp": 0.001, "unseen": "random", "random_state": 0,
}


@pytest.fixture(scope="module")
def yelp():
    return generate_real_world("yelp", n_fact=300, seed=0)


def assert_same_tree(a, b):
    """Node-for-node structural identity of two fitted trees."""
    assert a.n_classes_ == b.n_classes_
    assert a.split_counts_ == b.split_counts_

    def walk(node_a, node_b):
        assert node_a.is_leaf == node_b.is_leaf
        np.testing.assert_array_equal(node_a.counts, node_b.counts)
        assert node_a.prediction == node_b.prediction
        assert node_a.depth == node_b.depth
        if not node_a.is_leaf:
            assert node_a.feature == node_b.feature
            np.testing.assert_array_equal(node_a.goes_left, node_b.goes_left)
            assert node_a.gain == pytest.approx(node_b.gain, abs=0.0)
            walk(node_a.left, node_b.left)
            walk(node_a.right, node_b.right)

    walk(a.root_, b.root_)
    for seen_a, seen_b in zip(a.seen_levels_, b.seen_levels_):
        np.testing.assert_array_equal(seen_a, seen_b)


def depth_first_tree(X, y, **params):
    """The reference tree, grown depth first over one in-memory matrix.

    Recurses over row-index arrays: each node's class counts and
    per-feature ``(levels, classes)`` histograms come straight from its
    rows, its split from the feature-by-feature scan
    (:func:`reference_best_split`), and its children from a boolean
    mask over its rows.  Only the stopping rules (``_splittable``,
    ``_passes_cp``) and the impurity functions are the model's own.
    """
    tree = DecisionTreeClassifier(**params)
    tree._validate_hyperparameters()
    y = np.asarray(y, dtype=np.int64)
    n_classes = max(int(y.max()) + 1, 2)
    tree.n_classes_ = n_classes
    tree.feature_names_ = tuple(X.names)
    tree.n_levels_ = tuple(X.n_levels)
    tree.seen_levels_ = [
        np.isin(np.arange(k), X.codes[:, j]) for j, k in enumerate(X.n_levels)
    ]
    tree._root_impurity = float(
        impurity_function(tree.criterion)(np.bincount(y, minlength=n_classes))
    )
    tree._n_total = X.n_rows

    def build(rows, depth):
        counts = np.bincount(y[rows], minlength=n_classes)
        node = TreeNode(
            counts=counts, prediction=int(np.argmax(counts)), depth=depth
        )
        if not tree._splittable(counts, depth):
            return node
        histograms = [
            np.bincount(
                X.codes[rows, j] * n_classes + y[rows], minlength=k * n_classes
            ).reshape(k, n_classes)
            for j, k in enumerate(X.n_levels)
        ]
        best = reference_best_split(tree, histograms, counts)
        if best is None or not tree._passes_cp(best.weighted_gain):
            return node
        mask = best.goes_left[X.codes[rows, best.feature]]
        node.feature = best.feature
        node.goes_left = best.goes_left
        node.gain = best.weighted_gain
        node.left = build(rows[mask], depth + 1)
        node.right = build(rows[~mask], depth + 1)
        return node

    tree.root_ = build(np.arange(X.n_rows), 0)
    tree.split_counts_ = tree._count_splits()
    return tree


def depth_first_proba(tree, X):
    """``predict_proba`` by recursion over row-index arrays.

    Under ``unseen="random"`` each node draws one uniform per row whose
    level of the split feature was never seen, nodes in depth-first
    order, left subtree before right.
    """
    out = np.zeros((X.n_rows, tree.n_classes_))
    rng = ensure_rng(tree.random_state) if tree.unseen == "random" else None

    def route(node, rows):
        if rows.size == 0:
            return
        if node.is_leaf:
            out[rows] = node.counts / node.counts.sum()
            return
        codes = X.codes[rows, node.feature]
        mask = node.goes_left[codes]
        if rng is not None:
            unseen = ~tree.seen_levels_[node.feature][codes]
            if unseen.any():
                mask[unseen] = rng.random(int(unseen.sum())) < 0.5
        route(node.left, rows[mask])
        route(node.right, rows[~mask])

    route(tree.root_, np.arange(X.n_rows))
    return out


def assert_matches_oracle(tree, oracle, X_test):
    """Same tree as the reference, node by node, and the same
    probabilities as the reference's own depth-first routing."""
    assert_same_tree(oracle, tree)
    np.testing.assert_array_equal(
        tree.predict_proba(X_test), depth_first_proba(oracle, X_test)
    )


@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("shard_rows", [None, 1, 23])
class TestNaiveBayesBitIdentity:
    def test_sharded_fit_bit_identical(self, yelp, strategy_name, shard_rows):
        strategy = STRATEGIES[strategy_name]()
        matrices = strategy.matrices(yelp)
        reference = CategoricalNB(alpha=1.0).fit(
            matrices.X_train, matrices.y_train
        )
        if shard_rows is None:
            source = MatrixSource(matrices.X_train, matrices.y_train)
        else:
            source = strategy.streaming_matrices(yelp, shard_rows=shard_rows)
        model = CategoricalNB(alpha=1.0)
        StreamingTrainer(model).fit(source)
        np.testing.assert_array_equal(
            reference.class_log_prior_, model.class_log_prior_
        )
        np.testing.assert_array_equal(reference.class_count_, model.class_count_)
        assert len(reference.feature_log_prob_) == len(model.feature_log_prob_)
        for ref_logp, stream_logp in zip(
            reference.feature_log_prob_, model.feature_log_prob_
        ):
            np.testing.assert_array_equal(ref_logp, stream_logp)
        np.testing.assert_array_equal(
            reference.predict(matrices.X_test), model.predict(matrices.X_test)
        )


class TestNaiveBayesPartialFit:
    def test_two_halves_equal_one_fit(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        X, y = matrices.X_train, matrices.y_train
        half = X.n_rows // 2
        rows_a, rows_b = np.arange(half), np.arange(half, X.n_rows)
        n_classes = int(y.max()) + 1
        accumulated = CategoricalNB(alpha=1.0)
        accumulated.partial_fit(X.take_rows(rows_a), y[rows_a], n_classes=n_classes)
        accumulated.partial_fit(X.take_rows(rows_b), y[rows_b], n_classes=n_classes)
        reference = CategoricalNB(alpha=1.0).fit(X, y)
        for a, b in zip(reference.feature_log_prob_, accumulated.feature_log_prob_):
            np.testing.assert_array_equal(a, b)

    def test_usable_after_every_shard(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        X, y = matrices.X_train, matrices.y_train
        model = CategoricalNB(alpha=1.0)
        model.partial_fit(X.take_rows(np.arange(10)), y[:10],
                          n_classes=int(y.max()) + 1)
        assert model.predict(X).shape == (X.n_rows,)

    def test_mismatched_domains_rejected(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        X, y = matrices.X_train, matrices.y_train
        model = CategoricalNB().fit(X, y)
        narrower = X.select_features(list(X.names[:-1]))
        with pytest.raises(ValueError, match="closed domains"):
            model.partial_fit(narrower, y)

    def test_label_out_of_range_rejected(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        X, y = matrices.X_train, matrices.y_train
        model = CategoricalNB()
        model.partial_fit(X, y, n_classes=int(y.max()) + 1)
        with pytest.raises(ValueError, match="out of range"):
            model.partial_fit(X, y + 10)

    def test_n_classes_change_rejected(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        X, y = matrices.X_train, matrices.y_train
        model = CategoricalNB()
        model.partial_fit(X, y, n_classes=2)
        with pytest.raises(ValueError, match="initialised with 2"):
            model.partial_fit(X, y, n_classes=3)

    def test_fit_resets_previous_session(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        X, y = matrices.X_train, matrices.y_train
        model = CategoricalNB(alpha=1.0)
        model.fit(X, y)
        model.fit(X, y)  # must not double-count
        reference = CategoricalNB(alpha=1.0).fit(X, y)
        np.testing.assert_array_equal(reference.class_count_, model.class_count_)


@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
@pytest.mark.parametrize("strategy_name", sorted(TREE_STRATEGIES))
class TestTreeIdenticalSplits:
    """Every way of growing a tree equals the depth-first reference."""

    @pytest.fixture
    def case(self, yelp, criterion, strategy_name):
        strategy = TREE_STRATEGIES[strategy_name]()
        matrices = strategy.matrices(yelp)
        params = {"criterion": criterion, **TREE_PARAMS}
        oracle = depth_first_tree(
            matrices.X_train, matrices.y_train, **params
        )
        return strategy, matrices, params, oracle

    def test_histogram_stream_matches_inmemory(self, yelp, case):
        strategy, matrices, params, oracle = case
        streamed = DecisionTreeClassifier(**params)
        StreamingTrainer(streamed).fit(
            strategy.streaming_matrices(yelp, shard_rows=23)
        )
        assert_matches_oracle(streamed, oracle, matrices.X_test)

    def test_fit_matches_oracle(self, case):
        _, matrices, params, oracle = case
        tree = DecisionTreeClassifier(**params).fit(
            matrices.X_train, matrices.y_train
        )
        assert_matches_oracle(tree, oracle, matrices.X_test)

    def test_one_shard_stream_matches_oracle(self, case):
        _, matrices, params, oracle = case
        tree = DecisionTreeClassifier(**params).fit_stream(
            MatrixSource(matrices.X_train, matrices.y_train)
        )
        assert_matches_oracle(tree, oracle, matrices.X_test)

    @pytest.mark.parametrize("cap", [0, 2, 8])
    def test_residency_matches_oracle(self, yelp, case, cap, monkeypatch):
        """Seven 23-row shards: none, some or all of them keep their
        rows' frontier nodes between levels."""
        strategy, matrices, params, oracle = case
        monkeypatch.setattr(data_source, "RESIDENT_SHARDS", cap)
        tree = DecisionTreeClassifier(**params).fit_stream(
            strategy.streaming_matrices(yelp, shard_rows=23)
        )
        assert_matches_oracle(tree, oracle, matrices.X_test)


class TestTreeStreamingBehaviour:
    def test_single_shard_matches_fit(self, yelp):
        matrices = join_all_strategy().matrices(yelp)
        reference = depth_first_tree(
            matrices.X_train, matrices.y_train, unseen="majority"
        )
        streamed = DecisionTreeClassifier(unseen="majority")
        streamed.fit_stream(MatrixSource(matrices.X_train, matrices.y_train))
        assert_same_tree(reference, streamed)

    def test_hyperparameters_respected(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        for kwargs in ({"max_depth": 1}, {"minsplit": 120}, {"cp": 0.5}):
            reference = depth_first_tree(
                matrices.X_train, matrices.y_train, unseen="majority", **kwargs
            )
            streamed = DecisionTreeClassifier(unseen="majority", **kwargs)
            streamed.fit_stream(
                MatrixSource(matrices.X_train, matrices.y_train, shard_rows=31)
            )
            assert_same_tree(reference, streamed)

    def test_empty_source_rejected(self, yelp):
        matrices = no_join_strategy().matrices(yelp)
        empty = MatrixSource(
            matrices.X_train.take_rows(np.arange(0)), matrices.y_train[:0]
        )
        with pytest.raises(ValueError, match="zero examples"):
            DecisionTreeClassifier().fit_stream(empty)

    def test_unseen_error_policy_survives_streaming(self, yelp):
        """seen_levels_ accumulated over shards drives unseen='error'."""
        strategy = no_join_strategy()
        matrices = strategy.matrices(yelp)
        reference = depth_first_tree(
            matrices.X_train, matrices.y_train, unseen="error"
        )
        streamed = DecisionTreeClassifier(unseen="error")
        streamed.fit_stream(
            MatrixSource(matrices.X_train, matrices.y_train, shard_rows=17)
        )
        for seen_a, seen_b in zip(reference.seen_levels_, streamed.seen_levels_):
            np.testing.assert_array_equal(seen_a, seen_b)


class TestRunnerIntegration:
    @pytest.mark.parametrize("model_key", ["nb", "dt_gini"])
    def test_sharded_cell_equals_inmemory_cell(self, yelp, model_key):
        from repro.experiments import SMOKE, run_experiment

        strategy = no_join_strategy()
        inmem = run_experiment(
            yelp, model_key, strategy, scale=SMOKE, source=SourceSpec()
        )
        streamed = run_experiment(
            yelp, model_key, strategy, scale=SMOKE,
            source=SourceSpec(shard_rows=29),
        )
        # Counts and histograms are exact over shards: equality, not
        # approximation — for every split.
        assert streamed.test_accuracy == inmem.test_accuracy
        assert streamed.train_accuracy == inmem.train_accuracy
        assert streamed.validation_accuracy == inmem.validation_accuracy

    def test_streaming_model_displays(self):
        from repro.experiments import STREAMABLE_MODELS, streaming_model_display

        assert streaming_model_display("nb") == "Naive Bayes"
        assert streaming_model_display("dt_gini") == "Decision Tree (Gini)"
        assert set(STREAMABLE_MODELS) == {
            "lr_l1", "ann", "nb", "dt_gini", "dt_entropy", "dt_gain_ratio",
        }
