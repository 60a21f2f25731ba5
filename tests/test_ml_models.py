"""Tests for Naive Bayes, k-NN, SVM, MLP, and L1 logistic regression.

All five numeric/probabilistic models must learn simple separable
concepts, respect the estimator protocol, and behave sensibly on the
categorical encodings the study uses.
"""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml import (
    CategoricalNB,
    KernelSVC,
    KNeighborsClassifier,
    L1LogisticRegression,
    MLPClassifier,
)
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import LogisticRegressionPath
from repro.ml.svm.kernels import linear_kernel, polynomial_kernel, rbf_kernel
from repro.ml.svm.smo import solve_smo


def _separable(n=200, seed=0):
    """One feature whose level parity determines y — linearly separable."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(n, 2))
    y = (codes[:, 0] >= 2).astype(np.int64)
    return CategoricalMatrix(codes, (4, 4), ("f", "noise")), y


def _xor(n=300, seed=0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2, size=(n, 2))
    y = codes[:, 0] ^ codes[:, 1]
    return CategoricalMatrix(codes, (2, 2), ("a", "b")), y


class TestCategoricalNB:
    def test_learns_separable(self):
        X, y = _separable()
        model = CategoricalNB().fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_proba_normalised(self):
        X, y = _separable(n=50)
        proba = CategoricalNB().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_unseen_level_is_fine(self):
        """Laplace smoothing over closed domains handles unseen codes."""
        X = CategoricalMatrix(np.array([[0], [1]]), (3,), ("f",))
        model = CategoricalNB().fit(X, np.array([0, 1]))
        unseen = CategoricalMatrix(np.array([[2]]), (3,), ("f",))
        assert model.predict(unseen).shape == (1,)

    def test_negative_alpha_raises(self):
        X, y = _separable(n=10)
        with pytest.raises(ValueError, match="alpha"):
            CategoricalNB(alpha=-1).fit(X, y)

    def test_alpha_zero_does_not_crash(self):
        X, y = _separable(n=60)
        model = CategoricalNB(alpha=0.0).fit(X, y)
        assert np.isfinite(model.predict_proba(X)).all()

    def test_width_mismatch_raises(self):
        X, y = _separable(n=30)
        model = CategoricalNB().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(X.select_features([0]))


class Test1NN:
    def test_memorises_training_data(self):
        X, y = _xor(n=100)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_k3_majority_vote(self):
        X, y = _separable(n=150, seed=2)
        model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        assert model.score(X, y) >= 0.9

    def test_mismatch_metric_matches_onehot_euclidean(self):
        """Code-mismatch 1-NN equals one-hot Euclidean 1-NN."""
        rng = np.random.default_rng(3)
        train_codes = rng.integers(0, 5, size=(40, 3))
        test_codes = rng.integers(0, 5, size=(10, 3))
        y = rng.integers(0, 2, size=40)
        levels = (5, 5, 5)
        X_train = CategoricalMatrix(train_codes, levels, ("a", "b", "c"))
        X_test = CategoricalMatrix(test_codes, levels, ("a", "b", "c"))
        model = KNeighborsClassifier(n_neighbors=1).fit(X_train, y)
        got = model.predict(X_test)
        hot_train = X_train.onehot()
        hot_test = X_test.onehot()
        d2 = (
            (hot_test**2).sum(axis=1)[:, None]
            + (hot_train**2).sum(axis=1)[None, :]
            - 2 * hot_test @ hot_train.T
        )
        expected = y[np.argmin(np.round(d2, 9), axis=1)]
        assert np.array_equal(got, expected)

    def test_chunking_invariant(self):
        X, y = _separable(n=90, seed=4)
        big = KNeighborsClassifier(chunk_size=1000).fit(X, y).predict(X)
        small = KNeighborsClassifier(chunk_size=7).fit(X, y).predict(X)
        assert np.array_equal(big, small)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_non_positive_chunk_size_raises_at_fit(self, chunk_size):
        # A negative step left predict's output uninitialised, and 0
        # failed only inside predict.
        X, y = _separable(n=5)
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            KNeighborsClassifier(chunk_size=chunk_size).fit(X, y)

    def test_k_larger_than_train_raises(self):
        X, y = _separable(n=5)
        with pytest.raises(ValueError, match="exceeds"):
            KNeighborsClassifier(n_neighbors=10).fit(X, y)

    def test_predict_before_fit(self):
        X, _ = _separable(n=5)
        with pytest.raises(NotFittedError):
            KNeighborsClassifier().predict(X)


class TestSMO:
    def test_solves_trivially_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        result = solve_smo(linear_kernel(X, X), y, C=10.0)
        scores = linear_kernel(X, X) @ (result.alpha * y) + result.bias
        assert np.all(np.sign(scores) == y)

    def test_dual_feasibility(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        C = 1.0
        result = solve_smo(linear_kernel(X, X), y, C=C)
        assert np.all(result.alpha >= -1e-9)
        assert np.all(result.alpha <= C + 1e-9)
        assert abs(np.dot(result.alpha, y)) < 1e-6

    def test_rejects_bad_inputs(self):
        gram = np.eye(3)
        with pytest.raises(ValueError, match="square"):
            solve_smo(np.zeros((2, 3)), np.ones(2), C=1.0)
        with pytest.raises(ValueError, match="match"):
            solve_smo(gram, np.ones(2), C=1.0)
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            solve_smo(gram, np.array([0.0, 1.0, 1.0]), C=1.0)
        with pytest.raises(ValueError, match="positive"):
            solve_smo(gram, np.array([1.0, -1.0, 1.0]), C=0.0)


class TestKernels:
    def test_linear(self):
        A = np.array([[1.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert linear_kernel(A, B).tolist() == [[1.0, 0.0]]

    def test_rbf_diagonal_is_one(self):
        A = np.random.default_rng(0).normal(size=(5, 3))
        K = rbf_kernel(A, A, gamma=0.5)
        assert np.allclose(np.diag(K), 1.0)
        assert np.all((K >= 0) & (K <= 1 + 1e-12))

    def test_rbf_onehot_distance_bound(self):
        """One-hot vectors differ by at most 2 per feature (paper Sec 5)."""
        X = CategoricalMatrix(np.array([[0], [1]]), (5,), ("fk",))
        hot = X.onehot()
        K = rbf_kernel(hot, hot, gamma=1.0)
        assert K[0, 1] == pytest.approx(np.exp(-2.0))

    def test_polynomial_quadratic(self):
        A = np.array([[1.0, 1.0]])
        K = polynomial_kernel(A, A, gamma=1.0, degree=2, coef0=0.0)
        assert K[0, 0] == pytest.approx(4.0)

    def test_gamma_validation(self):
        A = np.zeros((1, 1))
        with pytest.raises(ValueError, match="gamma"):
            rbf_kernel(A, A, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            polynomial_kernel(A, A, gamma=-1.0)


class TestKernelSVC:
    @pytest.mark.parametrize("kernel", ["linear", "poly", "rbf"])
    def test_learns_separable(self, kernel):
        X, y = _separable()
        model = KernelSVC(kernel=kernel, C=10.0, gamma=0.5).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_rbf_learns_xor(self):
        X, y = _xor()
        model = KernelSVC(kernel="rbf", C=10.0, gamma=1.0).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_linear_cannot_learn_xor(self):
        """Sanity check that capacity ordering matches theory."""
        X, y = _xor()
        model = KernelSVC(kernel="linear", C=10.0).fit(X, y)
        assert model.score(X, y) <= 0.8

    def test_single_class_degenerate(self):
        X = CategoricalMatrix(np.array([[0], [1]]), (2,), ("f",))
        model = KernelSVC().fit(X, np.array([1, 1]))
        assert model.predict(X).tolist() == [1, 1]

    def test_multiclass_rejected(self):
        X = CategoricalMatrix(np.array([[0], [1], [0]]), (2,), ("f",))
        with pytest.raises(ValueError, match="binary"):
            KernelSVC().fit(X, np.array([0, 1, 2]))

    def test_decision_function_sign_matches_predict(self):
        X, y = _separable(n=80, seed=7)
        model = KernelSVC(kernel="rbf", C=1.0, gamma=0.5).fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(model.predict(X), (scores >= 0).astype(np.int64))

    def test_unknown_kernel(self):
        X, y = _separable(n=20)
        with pytest.raises(ValueError, match="kernel"):
            KernelSVC(kernel="sigmoid").fit(X, y)


class TestMLP:
    def test_learns_xor(self):
        X, y = _xor(n=200)
        model = MLPClassifier(
            hidden_sizes=(16, 8), epochs=60, learning_rate=0.01, random_state=0
        ).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_loss_decreases(self):
        X, y = _separable(n=200)
        model = MLPClassifier(
            hidden_sizes=(8,), epochs=20, learning_rate=0.01, random_state=0
        ).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_deterministic_given_seed(self):
        X, y = _separable(n=100)
        a = MLPClassifier(hidden_sizes=(8,), epochs=5, random_state=42).fit(X, y)
        b = MLPClassifier(hidden_sizes=(8,), epochs=5, random_state=42).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_l2_shrinks_weights(self):
        X, y = _separable(n=150)
        free = MLPClassifier(hidden_sizes=(8,), epochs=30, l2=0.0, random_state=0)
        penalised = MLPClassifier(hidden_sizes=(8,), epochs=30, l2=0.5, random_state=0)
        free.fit(X, y)
        penalised.fit(X, y)
        norm = lambda m: sum(float(np.abs(W).sum()) for W in m.weights_)
        assert norm(penalised) < norm(free)

    def test_proba_normalised(self):
        X, y = _separable(n=60)
        proba = (
            MLPClassifier(hidden_sizes=(4,), epochs=5, random_state=0)
            .fit(X, y)
            .predict_proba(X)
        )
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_invalid_params(self):
        X, y = _separable(n=10)
        with pytest.raises(ValueError, match="hidden"):
            MLPClassifier(hidden_sizes=(0,)).fit(X, y)
        with pytest.raises(ValueError, match="l2"):
            MLPClassifier(l2=-1).fit(X, y)
        with pytest.raises(ValueError, match="epochs"):
            MLPClassifier(epochs=0).fit(X, y)


class TestMLPPartialFit:
    def test_fit_equals_epoch_loop_of_partial_fit(self):
        X, y = _separable(n=120)
        whole = MLPClassifier(hidden_sizes=(6,), epochs=4, random_state=3)
        whole.fit(X, y)
        resumed = MLPClassifier(hidden_sizes=(6,), epochs=4, random_state=3)
        for _ in range(4):
            resumed.partial_fit(X, y)
        for w_a, w_b in zip(whole.weights_, resumed.weights_):
            assert np.array_equal(w_a, w_b)
        assert whole.loss_curve_ == resumed.loss_curve_

    def test_refit_resets_state(self):
        X, y = _separable(n=80)
        model = MLPClassifier(hidden_sizes=(6,), epochs=2, random_state=0)
        model.partial_fit(X, y)
        model.fit(X, y)
        fresh = MLPClassifier(hidden_sizes=(6,), epochs=2, random_state=0)
        fresh.fit(X, y)
        assert np.array_equal(model.predict(X), fresh.predict(X))
        assert len(model.loss_curve_) == 2

    def test_explicit_n_classes_covers_absent_labels(self):
        X, y = _separable(n=40)
        model = MLPClassifier(hidden_sizes=(4,), epochs=1, random_state=0)
        model.partial_fit(X.take_rows(y == 0), y[y == 0], n_classes=2)
        assert model.n_classes_ == 2
        model.partial_fit(X.take_rows(y == 1), y[y == 1], n_classes=2)

    def test_label_out_of_range_rejected(self):
        X, y = _separable(n=40)
        model = MLPClassifier(hidden_sizes=(4,), epochs=1, random_state=0)
        model.partial_fit(X, y, n_classes=2)
        with pytest.raises(ValueError, match="out of range"):
            model.partial_fit(X, y + 5)

    def test_n_classes_conflict_rejected(self):
        X, y = _separable(n=40)
        model = MLPClassifier(hidden_sizes=(4,), epochs=1, random_state=0)
        model.partial_fit(X, y, n_classes=2)
        with pytest.raises(ValueError, match="classes"):
            model.partial_fit(X, y, n_classes=5)

    def test_partial_fit_width_mismatch_rejected(self):
        X, y = _separable(n=60, seed=3)
        model = MLPClassifier(hidden_sizes=(4,), epochs=1, random_state=0)
        model.partial_fit(X, y)
        narrower = X.select_features([0])
        with pytest.raises(ValueError, match="expected 2 features, got 1"):
            model.partial_fit(narrower, y)


class TestL1Logistic:
    def test_learns_separable(self):
        X, y = _separable()
        model = L1LogisticRegression(lam=1e-4, max_iter=500).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_large_lambda_zeroes_coefficients(self):
        X, y = _separable(n=100)
        model = L1LogisticRegression(lam=10.0, max_iter=200).fit(X, y)
        assert model.n_nonzero_ == 0

    def test_sparsity_monotone_in_lambda(self):
        X, y = _separable(n=200, seed=5)
        weak = L1LogisticRegression(lam=1e-5, max_iter=400).fit(X, y)
        strong = L1LogisticRegression(lam=0.05, max_iter=400).fit(X, y)
        assert strong.n_nonzero_ <= weak.n_nonzero_

    def test_proba_normalised(self):
        X, y = _separable(n=60)
        proba = L1LogisticRegression(lam=1e-3).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_negative_lambda_raises(self):
        X, y = _separable(n=10)
        with pytest.raises(ValueError, match="lam"):
            L1LogisticRegression(lam=-1).fit(X, y)

    def test_path_orders_and_selects(self):
        X, y = _separable(n=300, seed=6)
        rows = np.arange(300)
        path = LogisticRegressionPath(nlambda=20, max_iter=300)
        best = path.fit_best(
            X.take_rows(rows[:200]), y[:200], X.take_rows(rows[200:]), y[200:]
        )
        assert best.score(X.take_rows(rows[200:]), y[200:]) >= 0.9

    def test_lambda_max_kills_all_features(self):
        X, y = _separable(n=150, seed=8)
        path = LogisticRegressionPath(nlambda=5)
        lam_max = path.lambda_max(X, y)
        model = L1LogisticRegression(lam=lam_max * 1.01, max_iter=300).fit(X, y)
        assert model.n_nonzero_ == 0

    def test_loss_requires_fit(self):
        X, y = _separable(n=20)
        with pytest.raises(NotFittedError):
            L1LogisticRegression().loss(X, y)


class TestEstimatorProtocol:
    MODELS = [
        CategoricalNB(),
        KNeighborsClassifier(),
        KernelSVC(kernel="rbf", C=1.0, gamma=0.5),
        MLPClassifier(hidden_sizes=(4,), epochs=3, random_state=0),
        L1LogisticRegression(lam=1e-3, max_iter=50),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_clone_roundtrip(self, model):
        clone = model.clone()
        assert clone.get_params() == model.get_params()
        assert clone is not model

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_set_params_unknown_raises(self, model):
        with pytest.raises(ValueError, match="hyper-parameter"):
            model.clone().set_params(zzz=1)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_fit_predict_shapes(self, model):
        X, y = _separable(n=60, seed=9)
        fitted = model.clone().fit(X, y)
        assert fitted.predict(X).shape == (60,)
        assert 0.0 <= fitted.score(X, y) <= 1.0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_rejects_mismatched_labels(self, model):
        X, _ = _separable(n=20)
        with pytest.raises(ValueError, match="labels|rows"):
            model.clone().fit(X, np.zeros(7, dtype=int))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_rejects_raw_numpy_features(self, model):
        with pytest.raises(TypeError, match="CategoricalMatrix"):
            model.clone().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))
