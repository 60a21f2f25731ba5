"""Implicit one-hot kernels: every kernel must match the dense path.

The dense ``CategoricalMatrix.onehot()`` encoding is the reference
implementation; :class:`repro.ml.sparse.OneHotMatrix` must reproduce
its linear algebra to 1e-10 — products, gradients, Gram blocks,
distances, column statistics — and the numeric models must agree with
themselves run on the dense oracle (``encode_features`` substituted by
the ``dense_oracle`` fixture).
"""

import numpy as np
import pytest

from repro.ml import sparse
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression, LogisticRegressionPath
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.neural import MLPClassifier
from repro.ml.sparse import FactorizedGroup, FactorizedMatrix, OneHotMatrix
from repro.ml.svm import KernelSVC
from repro.ml.svm.kernels import linear_kernel, polynomial_kernel, rbf_kernel

TOL = dict(rtol=0.0, atol=1e-10)


def _random_matrix(n, levels, seed=0):
    rng = np.random.default_rng(seed)
    codes = np.column_stack(
        [rng.integers(0, k, size=n) for k in levels]
    ) if levels else np.zeros((n, 0), dtype=np.int64)
    names = tuple(f"f{j}" for j in range(len(levels)))
    return CategoricalMatrix(codes, levels, names)


class TestOneHotMatrixKernels:
    def test_matmul_vector_matches_dense(self):
        X = _random_matrix(40, (3, 7, 2), seed=1)
        view = X.onehot_view()
        w = np.random.default_rng(2).normal(size=view.width)
        assert np.allclose(view.matmul(w), X.onehot() @ w, **TOL)

    def test_matmul_matrix_matches_dense(self):
        X = _random_matrix(25, (4, 5), seed=3)
        view = X.onehot_view()
        W = np.random.default_rng(4).normal(size=(view.width, 6))
        assert np.allclose(view.matmul(W), X.onehot() @ W, **TOL)

    def test_rmatmul_vector_matches_dense(self):
        X = _random_matrix(30, (3, 9, 4), seed=5)
        view = X.onehot_view()
        v = np.random.default_rng(6).normal(size=30)
        assert np.allclose(view.rmatmul(v), X.onehot().T @ v, **TOL)

    def test_rmatmul_matrix_matches_dense(self):
        X = _random_matrix(30, (3, 9), seed=7)
        view = X.onehot_view()
        V = np.random.default_rng(8).normal(size=(30, 5))
        assert np.allclose(view.rmatmul(V), X.onehot().T @ V, **TOL)

    def test_match_counts_is_linear_gram(self):
        A = _random_matrix(17, (4, 3, 6), seed=9)
        B = _random_matrix(11, (4, 3, 6), seed=10)
        got = A.onehot_view().match_counts(B.onehot_view(), chunk_size=5)
        assert np.allclose(got, A.onehot() @ B.onehot().T, **TOL)

    def test_squared_distances_match_dense(self):
        A = _random_matrix(13, (5, 2), seed=11)
        B = _random_matrix(9, (5, 2), seed=12)
        hot_a, hot_b = A.onehot(), B.onehot()
        expected = (
            (hot_a**2).sum(axis=1)[:, None]
            + (hot_b**2).sum(axis=1)[None, :]
            - 2.0 * hot_a @ hot_b.T
        )
        got = A.onehot_view().squared_distances(B.onehot_view())
        assert np.allclose(got, expected, **TOL)

    def test_column_means_and_scales(self):
        X = _random_matrix(50, (3, 8), seed=13)
        hot = X.onehot()
        view = X.onehot_view()
        assert np.allclose(view.column_means(), hot.mean(axis=0), **TOL)
        assert np.allclose(view.column_scales(), hot.std(axis=0), **TOL)

    def test_single_level_feature(self):
        """A 1-level domain one-hots to a constant column of ones."""
        X = _random_matrix(12, (1, 4), seed=14)
        view = X.onehot_view()
        w = np.random.default_rng(15).normal(size=view.width)
        assert np.allclose(view.matmul(w), X.onehot() @ w, **TOL)
        assert view.column_means()[0] == 1.0

    def test_empty_features(self):
        X = CategoricalMatrix.empty(6)
        view = X.onehot_view()
        assert view.shape == (6, 0)
        assert view.matmul(np.zeros(0)).shape == (6,)
        assert view.rmatmul(np.ones(6)).shape == (0,)
        assert np.array_equal(
            view.match_counts(view), np.zeros((6, 6))
        )
        assert view.toarray().shape == (6, 0)

    def test_zero_rows(self):
        X = _random_matrix(0, (3, 2), seed=16)
        view = X.onehot_view()
        assert view.matmul(np.zeros(5)).shape == (0,)
        assert view.rmatmul(np.zeros((0, 2))).shape == (5, 2)
        assert view.column_means().shape == (5,)

    def test_take_rows_array_mask_and_slice(self):
        X = _random_matrix(10, (4, 3), seed=17)
        view = X.onehot_view()
        dense = X.onehot()
        idx = np.array([7, 1, 1, 4])
        assert np.array_equal(view.take_rows(idx).toarray(), dense[idx])
        mask = np.arange(10) % 2 == 0
        assert np.array_equal(view.take_rows(mask).toarray(), dense[mask])
        assert np.array_equal(
            view.take_rows(slice(2, 8)).toarray(), dense[2:8]
        )

    def test_shape_errors(self):
        view = _random_matrix(5, (3,), seed=18).onehot_view()
        with pytest.raises(ValueError, match="width"):
            view.matmul(np.zeros(7))
        with pytest.raises(ValueError, match="rows"):
            view.rmatmul(np.zeros(9))
        with pytest.raises(TypeError, match="OneHotMatrix"):
            view.match_counts(np.zeros((2, 3)))
        other = _random_matrix(5, (4,), seed=19).onehot_view()
        with pytest.raises(ValueError, match="domains"):
            view.match_counts(other)


class TestKernelDispatch:
    def test_kernels_match_dense_path(self):
        A = _random_matrix(14, (6, 3), seed=20)
        B = _random_matrix(8, (6, 3), seed=21)
        va, vb = A.onehot_view(), B.onehot_view()
        ha, hb = A.onehot(), B.onehot()
        assert np.allclose(linear_kernel(va, vb), linear_kernel(ha, hb), **TOL)
        assert np.allclose(
            polynomial_kernel(va, vb, gamma=0.5, degree=2, coef0=1.0),
            polynomial_kernel(ha, hb, gamma=0.5, degree=2, coef0=1.0),
            **TOL,
        )
        assert np.allclose(
            rbf_kernel(va, vb, gamma=0.3), rbf_kernel(ha, hb, gamma=0.3), **TOL
        )

    def test_mixed_operands_rejected(self):
        A = _random_matrix(4, (3,), seed=22)
        with pytest.raises(TypeError, match="both"):
            linear_kernel(A.onehot_view(), A.onehot())

    def test_gamma_still_validated(self):
        view = _random_matrix(3, (2,), seed=23).onehot_view()
        with pytest.raises(ValueError, match="gamma"):
            rbf_kernel(view, view, gamma=0.0)


def _factorized(X: CategoricalMatrix, dimension=(1,), n_dim_rows=3):
    """``X`` with the given feature positions moved into one block.

    Dimension row ``r`` holds row ``r``'s codes, and fact row ``i``
    resolves to dimension row ``i % n_dim_rows``, so the gather is
    ``X.codes[i % n_dim_rows]`` on the blocked positions.
    """
    fact = [p for p in range(X.n_features) if p not in dimension]
    rows = np.arange(X.n_rows) % n_dim_rows
    block = X.codes[:n_dim_rows][:, list(dimension)]
    return FactorizedMatrix(
        X.names, X.n_levels, np.asarray(fact), X.codes[:, fact],
        [FactorizedGroup("D", np.asarray(dimension), rows, block)],
    )


class TestEngineDispatch:
    """Layout dispatch: the operand comes from the shard's type."""

    def test_encode_features(self):
        X = _random_matrix(6, (3, 2), seed=24)
        assert isinstance(sparse.encode_features(X), OneHotMatrix)
        assert sparse.gathered(X) is X
        F = _factorized(X)
        assert sparse.encode_features(F) is F
        gathered = sparse.gathered(F)
        assert isinstance(gathered, CategoricalMatrix)
        assert np.array_equal(gathered.codes[:, 0], X.codes[:, 0])
        assert np.array_equal(gathered.codes[:, 1], X.codes[np.arange(6) % 3, 1])

    def test_helpers_dispatch_both_ways(self):
        X = _random_matrix(9, (4,), seed=25)
        view, dense = X.onehot_view(), X.onehot()
        w = np.random.default_rng(26).normal(size=4)
        assert np.allclose(sparse.matmul(view, w), sparse.matmul(dense, w), **TOL)
        v = np.random.default_rng(27).normal(size=9)
        assert np.allclose(
            sparse.rmatmul(view, v), sparse.rmatmul(dense, v), **TOL
        )
        rows = np.array([0, 2])
        assert np.array_equal(
            sparse.take_rows(view, rows).toarray(),
            sparse.take_rows(dense, rows),
        )


def _separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(n, 2))
    y = (codes[:, 0] >= 2).astype(np.int64)
    return CategoricalMatrix(codes, (4, 4), ("f", "noise")), y


class TestModelEngineEquivalence:
    """One model, the sparse and the dense-oracle paths: agreement to
    1e-10 when predicting, and the same fitted model when training."""

    def test_logistic_predict_paths_agree(self, dense_oracle):
        X, y = _separable(seed=1)
        model = L1LogisticRegression(lam=1e-3, max_iter=200).fit(X, y)
        implicit = model.decision_function(X)
        with dense_oracle():
            dense = model.decision_function(X)
        assert np.allclose(implicit, dense, **TOL)

    def test_logistic_trained_engines_agree(self, dense_oracle):
        X, y = _separable(seed=2)
        kwargs = dict(lam=1e-3, max_iter=300, tol=1e-7)
        implicit = L1LogisticRegression(**kwargs).fit(X, y)
        with dense_oracle():
            dense = L1LogisticRegression(**kwargs).fit(X, y)
        assert np.array_equal(implicit.predict(X), dense.predict(X))
        assert np.allclose(implicit.coef_, dense.coef_, rtol=1e-6, atol=1e-8)

    def test_mlp_predict_paths_agree(self, dense_oracle):
        X, y = _separable(seed=3)
        model = MLPClassifier(
            hidden_sizes=(8,), epochs=5, random_state=0
        ).fit(X, y)
        implicit = model.predict_proba(X)
        with dense_oracle():
            dense = model.predict_proba(X)
        assert np.allclose(implicit, dense, **TOL)

    def test_mlp_trained_engines_agree(self, dense_oracle):
        X, y = _separable(n=120, seed=4)
        kwargs = dict(hidden_sizes=(8,), epochs=5, random_state=0)
        implicit = MLPClassifier(**kwargs).fit(X, y)
        with dense_oracle():
            dense = MLPClassifier(**kwargs).fit(X, y)
        assert np.array_equal(implicit.predict(X), dense.predict(X))
        assert np.allclose(
            implicit.predict_proba(X), dense.predict_proba(X),
            rtol=1e-6, atol=1e-8,
        )

    @pytest.mark.parametrize("kernel", ["linear", "poly", "rbf"])
    def test_svc_predict_paths_agree(self, kernel):
        X, y = _separable(n=120, seed=5)
        model = KernelSVC(kernel=kernel, C=1.0, gamma=0.5).fit(X, y)
        implicit = model.decision_function(X)
        assert isinstance(model.support_vectors_, OneHotMatrix)
        model.support_vectors_ = model.support_vectors_.toarray()
        dense = model.decision_function(X)
        assert np.allclose(implicit, dense, **TOL)

    def test_svc_trained_engines_agree(self, dense_oracle):
        X, y = _separable(n=100, seed=6)
        kwargs = dict(kernel="rbf", C=1.0, gamma=0.5, random_state=0)
        implicit = KernelSVC(**kwargs).fit(X, y)
        with dense_oracle():
            dense = KernelSVC(**kwargs).fit(X, y)
        assert isinstance(dense.support_vectors_, np.ndarray)
        assert np.array_equal(implicit.predict(X), dense.predict(X))

    def test_degenerate_svc_does_not_pin_training_codes(self):
        X, y = _separable(n=100, seed=8)
        model = KernelSVC().fit(X, np.ones(100, dtype=np.int64))
        sv_codes = model.support_vectors_.codes
        assert sv_codes.shape[0] == 1
        assert sv_codes.base is None or sv_codes.base is not X.codes

    MODELS = (
        L1LogisticRegression, MLPClassifier, KernelSVC,
        KNeighborsClassifier, LogisticRegressionPath,
    )

    def test_engine_is_not_a_hyper_parameter(self):
        """The layout is read from the data, never set on a model."""
        for cls in self.MODELS:
            model = cls()
            assert not hasattr(model, "engine")
            if hasattr(model, "get_params"):
                assert "engine" not in model.get_params()

    def test_invalid_engine_raises(self):
        """Every engine is invalid now: the keyword itself is refused."""
        for cls in self.MODELS:
            with pytest.raises(TypeError, match="engine"):
                cls(engine="dense")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: L1LogisticRegression(lam=1e-3, max_iter=50),
            lambda: MLPClassifier(hidden_sizes=(6,), epochs=3),
            lambda: KernelSVC(kernel="rbf", gamma=0.5),
            lambda: KNeighborsClassifier(n_neighbors=1),
        ],
        ids=["lr", "mlp", "svc", "knn"],
    )
    def test_factorized_input_fits_and_predicts_like_gathered(self, make):
        X, y = _separable(n=60, seed=9)
        F = _factorized(X, dimension=(1,), n_dim_rows=60)
        gathered = make().fit(X, y)
        factorized = make().fit(F, y)
        assert np.array_equal(gathered.predict(X), factorized.predict(F))


class TestRmatmulScatterPerf:
    """The matrix path's per-column weighted bincount must beat (or at
    worst match) the ``np.add.at`` scatter it replaced, without slowing
    the vector path — a regression micro-bench with generous margins so
    shared CI machines don't flake."""

    @staticmethod
    def _add_at_reference(view, V):
        flat = view.codes + view.offsets[:-1][np.newaxis, :]
        out = np.zeros((view.width,) + V.shape[1:], dtype=np.float64)
        for j in range(flat.shape[1]):
            np.add.at(out, flat[:, j], V)
        return out

    @staticmethod
    def _best_of(fn, repeats=5):
        import time

        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def test_matrix_path_matches_and_beats_add_at(self):
        X = _random_matrix(20_000, (50, 8, 6), seed=21)
        view = X.onehot_view()
        V = np.random.default_rng(22).normal(size=(20_000, 8))
        got = view.rmatmul(V)
        # Disjoint one-hot blocks accumulate in the same row order under
        # both scatters, so the rewrite is bit-identical, not just close.
        assert np.array_equal(got, self._add_at_reference(view, V))
        t_bincount = self._best_of(lambda: view.rmatmul(V))
        t_add_at = self._best_of(lambda: self._add_at_reference(view, V))
        assert t_bincount <= t_add_at * 1.5

    def test_vector_path_did_not_regress(self):
        X = _random_matrix(20_000, (50, 8, 6), seed=23)
        view = X.onehot_view()
        v = np.random.default_rng(24).normal(size=20_000)
        assert np.array_equal(
            view.rmatmul(v), self._add_at_reference(view, v)
        )
        t_vector = self._best_of(lambda: view.rmatmul(v))
        t_matrix = self._best_of(lambda: view.rmatmul(v[:, np.newaxis]))
        # The vector path must stay at least as fast as a one-column
        # matrix call (it skips the reshape/loop machinery).
        assert t_vector <= t_matrix * 1.5
