"""Cross-cutting property-based tests on the system's core invariants.

These encode the *mechanisms* behind the paper's findings, not just unit
behaviour:

- the FK-dominance property: because ``FK → X_R``, an optimal-subset
  CART never gains by splitting on a foreign feature, which is exactly
  why NoJoin matches JoinAll for trees;
- SMO solves the same dual problem as a reference QP solver;
- the hash join agrees with a naive row-by-row reference;
- the Domingos decomposition identity holds for arbitrary predictions;
- the implicit one-hot engine reproduces the dense encoding's linear
  algebra to 1e-10 on arbitrary shapes and domains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.datasets import OneXrScenario
from repro.core import join_all_strategy, no_join_strategy
from repro.ml import DecisionTreeClassifier
from repro.ml.bias_variance import decompose
from repro.ml.encoding import CategoricalMatrix
from repro.ml.svm.kernels import rbf_kernel
from repro.ml.svm.smo import solve_smo
from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
    kfk_join,
)


class TestFKDominance:
    """FK functionally determines X_R, so FK splits dominate X_R splits."""

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_joinall_tree_never_splits_on_foreign_features(self, seed):
        ds = OneXrScenario(n_train=150, n_r=12, d_s=2, d_r=3).sample(seed=seed)
        matrices = join_all_strategy().matrices(ds)
        tree = DecisionTreeClassifier(
            minsplit=5, cp=0.0, unseen="majority", random_state=0
        ).fit(matrices.X_train, matrices.y_train)
        foreign = [n for n in matrices.X_train.names if n.startswith("Xr")]
        for name in foreign:
            assert tree.split_counts_[name] == 0, tree.split_counts_

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_joinall_and_nojoin_trees_predict_identically(self, seed):
        ds = OneXrScenario(n_train=150, n_r=12, d_s=2, d_r=3).sample(seed=seed)
        join_all = join_all_strategy().matrices(ds)
        no_join = no_join_strategy().matrices(ds)
        params = dict(minsplit=5, cp=0.0, unseen="majority", random_state=0)
        tree_all = DecisionTreeClassifier(**params).fit(
            join_all.X_train, join_all.y_train
        )
        tree_nj = DecisionTreeClassifier(**params).fit(
            no_join.X_train, no_join.y_train
        )
        assert np.array_equal(
            tree_all.predict(join_all.X_test), tree_nj.predict(no_join.X_test)
        )


class TestSMOAgainstReferenceQP:
    """SMO must solve the same dual problem as a generic QP solver."""

    def _dual_objective(self, alpha, gram, y):
        return alpha.sum() - 0.5 * alpha @ ((gram * np.outer(y, y)) @ alpha)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dual_objective_matches_slsqp(self, seed):
        rng = np.random.default_rng(seed)
        n, C = 16, 5.0
        X = rng.normal(size=(n, 3))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
        gram = rbf_kernel(X, X, gamma=0.5)
        result = solve_smo(gram, y, C=C, tol=1e-4, max_passes=20)
        smo_objective = self._dual_objective(result.alpha, gram, y)

        reference = optimize.minimize(
            lambda a: -self._dual_objective(a, gram, y),
            x0=np.zeros(n),
            jac=lambda a: -(np.ones(n) - (gram * np.outer(y, y)) @ a),
            bounds=[(0.0, C)] * n,
            constraints=[{"type": "eq", "fun": lambda a: a @ y}],
            method="SLSQP",
        )
        assert reference.success
        ref_objective = self._dual_objective(reference.x, gram, y)
        # SMO should come within a small gap of the reference optimum.
        assert smo_objective >= ref_objective - 0.05 * max(1.0, abs(ref_objective))

    def test_predictions_match_reference_on_separable_data(self):
        rng = np.random.default_rng(3)
        n, C = 24, 10.0
        X = rng.normal(size=(n, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        gram = X @ X.T
        result = solve_smo(gram, y, C=C, tol=1e-4, max_passes=20)
        scores = gram @ (result.alpha * y) + result.bias
        assert np.mean(np.sign(scores) == y) >= 0.95


class TestJoinAgainstNaiveReference:
    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_hash_join_matches_row_by_row_lookup(self, n_fact, n_dim, seed):
        rng = np.random.default_rng(seed)
        rid_domain = Domain.of_size(n_dim, prefix="k")
        value_domain = Domain.of_size(5, prefix="v")
        dim_perm = rng.permutation(n_dim)
        dim_values = rng.integers(0, 5, size=n_dim)
        dim = Table(
            "D",
            [
                CategoricalColumn("rid", rid_domain, dim_perm),
                CategoricalColumn("attr", value_domain, dim_values),
            ],
        )
        fk_codes = rng.integers(0, n_dim, size=n_fact)
        fact = Table(
            "F",
            [
                CategoricalColumn("y", Domain.boolean(), rng.integers(0, 2, n_fact)),
                CategoricalColumn("fk", rid_domain, fk_codes),
            ],
        )
        schema = StarSchema(
            fact=fact,
            target="y",
            dimensions=[(dim, KFKConstraint("fk", "D", "rid"))],
        )
        joined = kfk_join(schema, "D")
        # Naive reference: scan the dimension per fact row.
        attr_by_rid = {
            int(rid): int(value) for rid, value in zip(dim_perm, dim_values)
        }
        expected = [attr_by_rid[int(code)] for code in fk_codes]
        assert joined.codes("attr").tolist() == expected


class TestDomingosIdentity:
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_loss_equals_bias_plus_net_variance(self, runs, points, seed):
        rng = np.random.default_rng(seed)
        predictions = rng.integers(0, 2, size=(runs, points))
        optimal = rng.integers(0, 2, size=points)
        result = decompose(predictions, optimal)
        loss_vs_optimal = float(np.mean(predictions != optimal[np.newaxis, :]))
        assert result.bias + result.net_variance == pytest.approx(loss_vs_optimal)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_variance_components_partition(self, seed):
        rng = np.random.default_rng(seed)
        predictions = rng.integers(0, 2, size=(7, 20))
        optimal = rng.integers(0, 2, size=20)
        result = decompose(predictions, optimal)
        total_variance = float(
            np.mean(predictions != result.main_predictions[np.newaxis, :])
        )
        assert result.unbiased_variance + result.biased_variance == pytest.approx(
            total_variance
        )


class TestOneHotDistanceStructure:
    """Section 5's distance argument: an FK contributes at most 2 to any
    squared one-hot distance, and equal FKs force equal X_R blocks."""

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=50))
    def test_fk_contribution_bounded_by_two(self, n_levels):
        X = CategoricalMatrix(
            np.array([[0], [min(1, n_levels - 1)]]), (n_levels,), ("fk",)
        )
        hot = X.onehot()
        squared = float(((hot[0] - hot[1]) ** 2).sum())
        assert squared <= 2.0

    def test_equal_fk_means_equal_xr_distance_contribution(self):
        ds = OneXrScenario(n_train=100, n_r=8, d_s=2, d_r=3).sample(seed=0)
        matrices = join_all_strategy().matrices(ds)
        hot = matrices.X_train.onehot()
        codes = matrices.X_train.codes
        fk_col = matrices.X_train.index_of("FK")
        rows = np.flatnonzero(codes[:, fk_col] == codes[0, fk_col])
        if rows.size >= 2:
            xr_cols = [matrices.X_train.index_of(f"Xr{i}") for i in range(3)]
            for j in xr_cols:
                assert codes[rows[0], j] == codes[rows[1], j]

class TestImplicitOneHotEquivalence:
    """The gather/scatter engine must agree with dense one-hot algebra.

    Shapes and domains are drawn adversarially: zero rows, zero
    features, single-level domains (a constant one-hot column) and
    mixed widths all appear.
    """

    @staticmethod
    def _random_case(n_rows, n_features, seed):
        rng = np.random.default_rng(seed)
        levels = tuple(int(k) for k in rng.integers(1, 13, size=n_features))
        if n_features:
            codes = np.column_stack(
                [rng.integers(0, k, size=n_rows) for k in levels]
            )
        else:
            codes = np.zeros((n_rows, 0), dtype=np.int64)
        names = tuple(f"f{j}" for j in range(n_features))
        return CategoricalMatrix(codes, levels, names), rng

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_products_match_dense(self, n_rows, n_features, seed):
        X, rng = self._random_case(n_rows, n_features, seed)
        view = X.onehot_view()
        hot = X.onehot()
        w = rng.normal(size=view.width)
        assert np.allclose(view.matmul(w), hot @ w, rtol=0.0, atol=1e-10)
        W = rng.normal(size=(view.width, 3))
        assert np.allclose(view.matmul(W), hot @ W, rtol=0.0, atol=1e-10)
        v = rng.normal(size=n_rows)
        assert np.allclose(view.rmatmul(v), hot.T @ v, rtol=0.0, atol=1e-10)
        V = rng.normal(size=(n_rows, 2))
        assert np.allclose(view.rmatmul(V), hot.T @ V, rtol=0.0, atol=1e-10)

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_gram_and_distances_match_dense(self, n_a, n_b, n_features, seed):
        A, rng = self._random_case(n_a, n_features, seed)
        levels = A.n_levels
        if n_features:
            codes_b = np.column_stack(
                [rng.integers(0, k, size=n_b) for k in levels]
            )
        else:
            codes_b = np.zeros((n_b, 0), dtype=np.int64)
        B = CategoricalMatrix(codes_b, levels, A.names)
        va, vb = A.onehot_view(), B.onehot_view()
        ha, hb = A.onehot(), B.onehot()
        assert np.allclose(
            va.match_counts(vb), ha @ hb.T, rtol=0.0, atol=1e-10
        )
        expected = (
            (ha**2).sum(axis=1)[:, None]
            + (hb**2).sum(axis=1)[None, :]
            - 2.0 * ha @ hb.T
        )
        assert np.allclose(
            va.squared_distances(vb), expected, rtol=0.0, atol=1e-10
        )

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_toarray_reproduces_dense_exactly(self, n_rows, n_features, seed):
        X, _ = self._random_case(n_rows, n_features, seed)
        assert np.array_equal(X.onehot_view().toarray(), X.onehot())
