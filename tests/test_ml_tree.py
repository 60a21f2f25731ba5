"""Tests for the CART decision tree (criteria, fitting, prediction, export)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, UnseenCategoryError
from repro.ml.encoding import CategoricalMatrix
from repro.ml.tree import (
    DecisionTreeClassifier,
    entropy,
    gini,
    render_tree,
    split_information,
    tree_statistics,
)
from repro.ml.tree.criteria import impurity_function


class TestCriteria:
    def test_gini_pure(self):
        assert gini(np.array([10, 0])) == pytest.approx(0.0)

    def test_gini_balanced(self):
        assert gini(np.array([5, 5])) == pytest.approx(0.5)

    def test_entropy_pure(self):
        assert entropy(np.array([10, 0])) == pytest.approx(0.0)

    def test_entropy_balanced_one_bit(self):
        assert entropy(np.array([5, 5])) == pytest.approx(1.0)

    def test_empty_counts_zero(self):
        assert gini(np.array([0, 0])) == pytest.approx(0.0)
        assert entropy(np.array([0, 0])) == pytest.approx(0.0)

    def test_vectorised_rows(self):
        counts = np.array([[5, 5], [10, 0]])
        assert gini(counts).tolist() == pytest.approx([0.5, 0.0])

    def test_split_information_balanced(self):
        assert split_information(np.array([5.0]), np.array([5.0]))[0] == pytest.approx(1.0)

    def test_split_information_degenerate(self):
        assert split_information(np.array([10.0]), np.array([0.0]))[0] == pytest.approx(0.0)

    def test_impurity_function_lookup(self):
        assert impurity_function("gini") is gini
        assert impurity_function("entropy") is entropy
        assert impurity_function("gain_ratio") is entropy
        with pytest.raises(ValueError, match="unknown"):
            impurity_function("nope")

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_gini_bounds(self, a, b):
        value = float(gini(np.array([a, b])))
        assert 0.0 <= value <= 0.5 + 1e-12

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_entropy_bounds(self, a, b):
        value = float(entropy(np.array([a, b])))
        assert 0.0 <= value <= 1.0 + 1e-12


def _xor_data(n=400, seed=0):
    """Deterministic XOR of two binary features — linearly inseparable."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2, size=(n, 2))
    y = codes[:, 0] ^ codes[:, 1]
    return CategoricalMatrix(codes, (2, 2), ("f1", "f2")), y


def _single_feature_data(n=300, k=6, seed=1):
    """y determined by membership of a level subset of one feature."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, k, size=(n, 1))
    y = (codes[:, 0] % 2).astype(np.int64)
    return CategoricalMatrix(codes, (k,), ("f",)), y


CRITERIA = ["gini", "entropy", "gain_ratio"]


class TestFitting:
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_learns_xor(self, criterion):
        X, y = _xor_data()
        tree = DecisionTreeClassifier(criterion=criterion, minsplit=2, cp=0.0)
        tree.fit(X, y)
        assert tree.score(X, y) == 1.0

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_subset_split_on_multilevel_feature(self, criterion):
        X, y = _single_feature_data()
        tree = DecisionTreeClassifier(criterion=criterion, minsplit=2, cp=0.0)
        tree.fit(X, y)
        assert tree.score(X, y) == 1.0
        # The parity concept is a single binary subset split.
        assert tree.depth_ == 1

    def test_pure_node_becomes_leaf(self):
        X = CategoricalMatrix(np.array([[0], [1]]), (2,), ("f",))
        tree = DecisionTreeClassifier(minsplit=1, cp=0.0).fit(X, np.array([1, 1]))
        assert tree.root_.is_leaf
        assert tree.predict(X).tolist() == [1, 1]

    def test_minsplit_blocks_split(self):
        X, y = _xor_data(n=50)
        tree = DecisionTreeClassifier(minsplit=1000, cp=0.0).fit(X, y)
        assert tree.root_.is_leaf

    def test_high_cp_prunes_everything(self):
        X, y = _xor_data()
        tree = DecisionTreeClassifier(minsplit=2, cp=1.0).fit(X, y)
        # XOR's first split yields no impurity gain, so cp=1 keeps a stump.
        assert tree.root_.is_leaf

    def test_cp_zero_grows_deeper_than_cp_large(self):
        X, y = _single_feature_data(n=500, k=12, seed=3)
        noisy = y.copy()
        noisy[::7] = 1 - noisy[::7]
        deep = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, noisy)
        shallow = DecisionTreeClassifier(minsplit=2, cp=0.2).fit(X, noisy)
        assert deep.n_leaves_ >= shallow.n_leaves_

    def test_max_depth(self):
        X, y = _xor_data()
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0, max_depth=1).fit(X, y)
        assert tree.depth_ <= 1

    def test_minbucket_default_is_third_of_minsplit(self):
        tree = DecisionTreeClassifier(minsplit=30)
        assert tree._effective_minbucket == 10

    def test_invalid_hyperparameters(self):
        X, y = _xor_data(n=20)
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="bad").fit(X, y)
        with pytest.raises(ValueError, match="minsplit"):
            DecisionTreeClassifier(minsplit=0).fit(X, y)
        with pytest.raises(ValueError, match="cp"):
            DecisionTreeClassifier(cp=-1).fit(X, y)
        with pytest.raises(ValueError, match="unseen"):
            DecisionTreeClassifier(unseen="bad").fit(X, y)
        with pytest.raises(ValueError, match="minbucket"):
            DecisionTreeClassifier(minbucket=0).fit(X, y)

    @pytest.mark.parametrize(
        "param, value",
        [
            ("max_depth", -1),  # LightGBM's spelling of "no limit"
            ("max_depth", float("nan")),
            ("cp", float("nan")),
            ("minsplit", float("nan")),
            ("minbucket", float("nan")),
        ],
        ids=["max_depth_negative", "max_depth_nan", "cp_nan", "minsplit_nan",
             "minbucket_nan"],
    )
    def test_invalid_value_is_rejected_not_fit_as_one_leaf(self, param, value):
        X, y = _xor_data(n=40)
        params = {"minsplit": 2, "cp": 0.0, param: value}
        tree = DecisionTreeClassifier(**params)
        with pytest.raises(ValueError, match=param):
            tree.fit(X, y)

    def test_predict_before_fit_raises(self):
        X, _ = _xor_data(n=4)
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(X)

    def test_feature_width_mismatch_raises(self):
        X, y = _xor_data(n=40)
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            tree.predict(X.select_features([0]))

    def test_split_counts_track_used_features(self):
        X, y = _single_feature_data()
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        assert tree.split_counts_["f"] >= 1


class TestPrune:
    def _noisy_tree(self, cp=1e-3):
        X, y = _single_feature_data(n=500, k=12, seed=3)
        noisy = y.copy()
        noisy[::7] = 1 - noisy[::7]
        return DecisionTreeClassifier(minsplit=2, cp=cp).fit(X, noisy)

    def test_prune_leaves_its_source_unchanged(self):
        tree = self._noisy_tree()
        tree.predict(CategoricalMatrix(np.arange(12)[:, None], (12,), ("f",)))
        before = pickle.dumps(tree)
        flat = tree._flat
        shallow = tree.prune(0.05)
        assert shallow.n_leaves_ < tree.n_leaves_
        assert shallow.cp == 0.05 and tree.cp == 1e-3
        assert pickle.dumps(tree) == before
        assert tree._flat is flat
        assert not hasattr(shallow, "_flat")

    def test_prune_to_a_smaller_cp_raises(self):
        tree = self._noisy_tree(cp=0.01)
        with pytest.raises(ValueError, match="at least"):
            tree.prune(1e-3)
        with pytest.raises(ValueError, match="cp must be >= 0"):
            tree.prune(float("nan"))
        assert tree.prune(0.01).n_leaves_ == tree.n_leaves_

    def test_prune_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().prune(0.1)

    def test_split_counts_are_recounted(self):
        tree = self._noisy_tree(cp=0.0)
        stump = tree.prune(1.0)
        assert tree.split_counts_["f"] > 0
        assert stump.root_.is_leaf and stump.split_counts_ == {"f": 0}


class TestProject:
    """``project`` keeps a tree's predictions over the columns it reads."""

    def _tree(self, unseen, seed=5):
        rng = np.random.default_rng(seed)
        levels = (3, 6, 4, 9, 5)
        codes = np.stack([rng.integers(0, k - 1, 400) for k in levels], axis=1)
        y = ((codes[:, 1] % 3 == 0) ^ (codes[:, 3] > 4)).astype(np.int64)
        y[::11] = 1 - y[::11]
        X = CategoricalMatrix(codes, levels, [f"f{j}" for j in range(5)])
        tree = DecisionTreeClassifier(
            minsplit=10, cp=0.005, unseen=unseen, random_state=0
        ).fit(X, y)  # splits on f1, f3 and f4
        # Every level, the last of each feature unseen in training.
        grid = np.stack([rng.integers(0, k, 300) for k in levels], axis=1)
        return tree, CategoricalMatrix(grid, levels, X.names)

    @pytest.mark.parametrize("unseen", ["majority", "random", "error"])
    def test_projected_probabilities_are_the_full_trees(self, unseen):
        tree, X = self._tree(unseen)
        if unseen == "error":
            X = X.take_rows(np.flatnonzero(
                (X.codes < np.array(X.n_levels) - 1).all(axis=1)
            ))
        read = [j for j, n in enumerate(tree.split_counts_.values()) if n]
        assert 0 < len(read) < X.n_features
        projected = tree.project(read)
        assert projected.feature_names_ == tuple(X.names[j] for j in read)
        assert projected.n_leaves_ == tree.n_leaves_
        assert projected.depth_ == tree.depth_
        np.testing.assert_array_equal(
            projected.predict_proba(X.select_features(read)).view(np.int64),
            tree.predict_proba(X).view(np.int64),
        )

    def test_project_leaves_its_source_unchanged(self):
        tree, X = self._tree("majority")
        tree.predict(X)
        before = pickle.dumps(tree)
        projected = tree.project(range(X.n_features))
        assert pickle.dumps(tree) == before
        assert not hasattr(projected, "_flat")
        assert projected.split_counts_ == tree.split_counts_

    def test_a_projection_must_keep_every_split_feature(self):
        tree, _ = self._tree("majority")
        read = [j for j, n in enumerate(tree.split_counts_.values()) if n]
        with pytest.raises(ValueError, match="splits on"):
            tree.project(read[1:])
        with pytest.raises(ValueError, match="distinct positions"):
            tree.project(read + read[:1])
        with pytest.raises(ValueError, match="distinct positions"):
            tree.project(read + [5])
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().project([0])


class TestUnseenPolicy:
    def _fit_small(self, unseen):
        # Train with only levels {0,1} of a 3-level domain.
        X = CategoricalMatrix(np.array([[0], [1], [0], [1]]), (3,), ("f",))
        y = np.array([0, 1, 0, 1])
        return DecisionTreeClassifier(
            minsplit=2, cp=0.0, unseen=unseen, random_state=0
        ).fit(X, y)

    def test_error_policy_reproduces_r_crash(self):
        tree = self._fit_small("error")
        X_new = CategoricalMatrix(np.array([[2]]), (3,), ("f",))
        with pytest.raises(UnseenCategoryError) as info:
            tree.predict(X_new)
        assert info.value.feature == "f"
        assert info.value.code == 2

    def test_error_names_the_first_unseen_feature_in_column_order(self):
        """Two features have unseen levels; row 0's unseen ``f2`` comes
        first by row, but ``f1`` comes first by column, so the error
        names ``f1`` with the code of its first offending row (row 1)."""
        X = CategoricalMatrix(
            np.array([[0, 0], [1, 1], [0, 1], [1, 0]] * 3), (4, 4), ("f1", "f2")
        )
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(
            X, np.array([0, 1, 1, 0] * 3)
        )
        X_new = CategoricalMatrix(
            np.array([[0, 3], [3, 0], [2, 2], [1, 1]]), (4, 4), ("f1", "f2")
        )
        with pytest.raises(UnseenCategoryError) as info:
            tree.predict_proba(X_new)
        assert (info.value.feature, info.value.code) == ("f1", 3)

    def test_majority_policy_routes_unseen(self):
        tree = self._fit_small("majority")
        X_new = CategoricalMatrix(np.array([[2]]), (3,), ("f",))
        assert tree.predict(X_new).shape == (1,)

    def test_random_policy_deterministic_given_seed(self):
        tree = self._fit_small("random")
        X_new = CategoricalMatrix(np.array([[2], [2], [2]]), (3,), ("f",))
        first = tree.predict(X_new)
        second = tree.predict(X_new)
        assert np.array_equal(first, second)

    def test_random_policy_draw_order_is_pinned(self):
        """Level 2 of both features is unseen: the root (on f2) and both
        of its children (on f1) draw for the rows they receive.  Draws
        go node by node, depth first and left before right, so any other
        order moves some of these rows to another leaf."""
        # (f1, f2) -> (class-0 rows, class-1 rows)
        cells = {
            (0, 0): (9, 1), (0, 1): (3, 7), (1, 0): (2, 6), (1, 1): (8, 4),
        }
        rows, y = [], []
        for cell, (n0, n1) in cells.items():
            rows += [cell] * (n0 + n1)
            y += [0] * n0 + [1] * n1
        X = CategoricalMatrix(np.array(rows), (3, 3), ("f1", "f2"))
        tree = DecisionTreeClassifier(
            minsplit=2, cp=0.0, unseen="random", random_state=0
        ).fit(X, np.array(y))
        assert tree.n_leaves_ == 4
        X_new = CategoricalMatrix(
            np.array([[2, 0], [2, 1], [0, 2], [1, 2], [2, 2]] * 2),
            (3, 3),
            ("f1", "f2"),
        )
        leaf_counts = np.array(
            [[2, 6], [3, 7], [3, 7], [2, 6], [2, 6],
             [2, 6], [3, 7], [9, 1], [8, 4], [8, 4]]
        )
        np.testing.assert_array_equal(
            tree.predict_proba(X_new),
            leaf_counts / leaf_counts.sum(axis=1, keepdims=True),
        )

    def test_seen_levels_do_not_trigger_error(self):
        tree = self._fit_small("error")
        X_seen = CategoricalMatrix(np.array([[0], [1]]), (3,), ("f",))
        assert tree.predict(X_seen).tolist() == [0, 1]


class TestProbabilities:
    def test_proba_rows_sum_to_one(self):
        X, y = _xor_data(n=100)
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape == (100, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_proba_matches_argmax_predict(self):
        X, y = _xor_data(n=60, seed=5)
        tree = DecisionTreeClassifier(minsplit=10, cp=0.01).fit(X, y)
        assert np.array_equal(
            tree.predict(X), np.argmax(tree.predict_proba(X), axis=1)
        )


class TestExport:
    def test_render_contains_feature_names(self):
        X, y = _single_feature_data()
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        text = render_tree(tree)
        assert "f in {" in text
        assert "leaf" in text

    def test_render_with_level_labels(self):
        X, y = _single_feature_data(k=4)
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        text = render_tree(tree, feature_levels={"f": ["a", "b", "c", "d"]})
        assert any(label in text for label in ("a", "b", "c", "d"))

    def test_render_truncates_large_subsets(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 20, size=(500, 1))
        y = (codes[:, 0] < 10).astype(np.int64)
        X = CategoricalMatrix(codes, (20,), ("fk",))
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        assert "more)" in render_tree(tree)

    def test_render_max_depth_truncation(self):
        X, y = _xor_data()
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        assert "truncated" in render_tree(tree, max_depth=1)

    def test_statistics(self):
        X, y = _xor_data()
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        stats = tree_statistics(tree)
        assert stats.n_splits == stats.n_leaves - 1
        assert stats.most_used_feature() in ("f1", "f2")
        assert 0.0 <= stats.usage_fraction("f1") <= 1.0

    def test_statistics_stump(self):
        X = CategoricalMatrix(np.array([[0], [1]]), (2,), ("f",))
        tree = DecisionTreeClassifier(minsplit=100).fit(X, np.array([0, 1]))
        stats = tree_statistics(tree)
        assert stats.most_used_feature() is None
        assert stats.usage_fraction("f") == 0.0


class TestProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_training_accuracy_beats_majority(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        codes = rng.integers(0, 4, size=(n, 3))
        y = rng.integers(0, 2, size=n)
        X = CategoricalMatrix(codes, (4, 4, 4), ("a", "b", "c"))
        tree = DecisionTreeClassifier(minsplit=2, cp=0.0).fit(X, y)
        majority = max(np.mean(y == 0), np.mean(y == 1))
        assert tree.score(X, y) >= majority - 1e-12

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fd_respecting_predictions(self, seed):
        """Rows identical in all features get identical predictions."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=(60, 2))
        y = rng.integers(0, 2, size=60)
        X = CategoricalMatrix(codes, (3, 3), ("a", "b"))
        tree = DecisionTreeClassifier(minsplit=5, cp=0.01).fit(X, y)
        duplicated = CategoricalMatrix(
            np.vstack([codes[:5], codes[:5]]), (3, 3), ("a", "b")
        )
        preds = tree.predict(duplicated)
        assert np.array_equal(preds[:5], preds[5:])
