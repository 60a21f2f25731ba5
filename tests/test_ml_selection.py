"""Tests for grid search, backward selection, and bias-variance decomposition."""

import numpy as np
import pytest

from repro.errors import ModelSelectionError, NotFittedError
from repro.ml import CategoricalNB, DecisionTreeClassifier, GridSearch
from repro.ml.bias_variance import decompose
from repro.ml.encoding import CategoricalMatrix
from repro.ml.selection import BackwardSelection


def _dataset(n=400, seed=0):
    """Feature 'signal' determines y; 'junk' is pure noise."""
    rng = np.random.default_rng(seed)
    signal = rng.integers(0, 4, size=n)
    junk = rng.integers(0, 6, size=n)
    y = (signal >= 2).astype(np.int64)
    X = CategoricalMatrix(
        np.stack([signal, junk], axis=1), (4, 6), ("signal", "junk")
    )
    half = n // 2
    rows = np.arange(n)
    return (
        X.take_rows(rows[:half]),
        y[:half],
        X.take_rows(rows[half:]),
        y[half:],
    )


class TestGridSearch:
    def test_explores_full_grid(self):
        X_tr, y_tr, X_val, y_val = _dataset()
        search = GridSearch(
            DecisionTreeClassifier(unseen="majority"),
            grid={"minsplit": [2, 50], "cp": [0.0, 0.1]},
        )
        search.fit(X_tr, y_tr, X_val, y_val)
        assert len(search.results_) == 4
        assert set(search.best_params_) <= {"minsplit", "cp"}

    def test_best_model_scores_validation(self):
        X_tr, y_tr, X_val, y_val = _dataset()
        search = GridSearch(
            DecisionTreeClassifier(unseen="majority"), grid={"cp": [0.0, 0.01]}
        ).fit(X_tr, y_tr, X_val, y_val)
        assert search.best_validation_accuracy_ >= 0.9
        assert search.score(X_val, y_val) == pytest.approx(
            search.best_validation_accuracy_
        )

    def test_empty_grid_single_candidate(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=100)
        search = GridSearch(CategoricalNB()).fit(X_tr, y_tr, X_val, y_val)
        assert len(search.results_) == 1
        assert search.best_params_ == {}

    def test_tie_break_is_first_grid_point(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=100)
        search = GridSearch(
            CategoricalNB(), grid={"alpha": [1.0, 1.0]}
        ).fit(X_tr, y_tr, X_val, y_val)
        assert search.best_params_ == {"alpha": 1.0}
        assert search.results_[0].validation_accuracy == pytest.approx(
            search.results_[1].validation_accuracy
        )

    def test_predict_before_fit_raises(self):
        X_tr, _, _, _ = _dataset(n=20)
        with pytest.raises(NotFittedError):
            GridSearch(CategoricalNB()).predict(X_tr)

    def test_candidates_deterministic_order(self):
        search = GridSearch(CategoricalNB(), grid={"alpha": [1, 2]})
        assert search.candidates() == [{"alpha": 1}, {"alpha": 2}]

    def test_records_fit_times(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=100)
        search = GridSearch(CategoricalNB(), grid={"alpha": [1.0]})
        search.fit(X_tr, y_tr, X_val, y_val)
        assert search.results_[0].fit_seconds >= 0.0

    def test_all_nan_scores_raise_naming_grid_points(self):
        """Regression: an all-NaN grid used to leave best_model_ = None
        silently; predict() then died with a bare AttributeError."""

        class NaNScorer(CategoricalNB):
            def score(self, X, y):
                return float("nan")

        X_tr, y_tr, X_val, y_val = _dataset(n=60)
        search = GridSearch(NaNScorer(), grid={"alpha": [0.5, 2.0]})
        with pytest.raises(ModelSelectionError) as excinfo:
            search.fit(X_tr, y_tr, X_val, y_val)
        message = str(excinfo.value)
        assert "no usable model" in message
        assert "0.5" in message and "2.0" in message  # names the grid points
        assert not hasattr(search, "best_model_")

    def test_single_nan_grid_point_is_skipped(self):
        """One degenerate grid point must not poison the search."""

        class FlakyScorer(CategoricalNB):
            def score(self, X, y):
                if self.alpha == 99.0:
                    return float("nan")
                return super().score(X, y)

        X_tr, y_tr, X_val, y_val = _dataset(n=100)
        search = GridSearch(FlakyScorer(), grid={"alpha": [99.0, 1.0]})
        search.fit(X_tr, y_tr, X_val, y_val)
        assert search.best_params_ == {"alpha": 1.0}
        assert np.isfinite(search.best_validation_accuracy_)


    def test_empty_axis_is_a_usage_error(self, monkeypatch):
        """An axis with no values leaves the grid without points: that
        is an error before any fit, not an all-NaN search."""
        fits = []
        monkeypatch.setattr(
            DecisionTreeClassifier, "fit",
            lambda self, X, y: fits.append(self.get_params()),
        )
        X_tr, y_tr, X_val, y_val = _dataset(n=40)
        search = GridSearch(
            DecisionTreeClassifier(), grid={"minsplit": [1], "cp": []}
        )
        with pytest.raises(ValueError, match="'cp' has no values"):
            search.fit(X_tr, y_tr, X_val, y_val)
        assert fits == []

    def test_tree_grid_grows_one_tree_per_minsplit(self, monkeypatch):
        """The paper's cp axis ends in its smallest value, 0: that point
        is grown first and the others are pruned from it."""
        grown = []
        fit = DecisionTreeClassifier.fit

        def counted(self, X, y):
            grown.append((self.minsplit, self.cp))
            return fit(self, X, y)

        monkeypatch.setattr(DecisionTreeClassifier, "fit", counted)
        X_tr, y_tr, X_val, y_val = _dataset()
        grid = {"minsplit": [2, 50], "cp": [1e-3, 0.1, 0.0]}
        search = GridSearch(DecisionTreeClassifier(unseen="majority"), grid)
        search.fit(X_tr, y_tr, X_val, y_val)
        assert grown == [(2, 0.0), (50, 0.0)]
        assert [r.params for r in search.results_] == search.candidates()

    def test_other_estimators_fit_every_point(self, monkeypatch):
        fitted = []
        fit = CategoricalNB.fit

        def counted(self, X, y):
            fitted.append(self.alpha)
            return fit(self, X, y)

        monkeypatch.setattr(CategoricalNB, "fit", counted)
        X_tr, y_tr, X_val, y_val = _dataset(n=100)
        GridSearch(CategoricalNB(), grid={"alpha": [2.0, 0.5, 1.0]}).fit(
            X_tr, y_tr, X_val, y_val
        )
        assert fitted == [2.0, 0.5, 1.0]


class TestBackwardSelection:
    def test_drops_noise_feature(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=600, seed=3)
        selection = BackwardSelection(CategoricalNB(), tolerance=0.0)
        selection.fit(X_tr, y_tr, X_val, y_val)
        assert "signal" in selection.selected_names_
        assert selection.score(X_val, y_val) >= 0.9

    def test_trace_starts_with_all_features(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=200)
        selection = BackwardSelection(CategoricalNB()).fit(X_tr, y_tr, X_val, y_val)
        assert selection.trace_[0][0] == ("signal", "junk")

    def test_min_features_respected(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=200)
        selection = BackwardSelection(
            CategoricalNB(), tolerance=1.0, min_features=2
        ).fit(X_tr, y_tr, X_val, y_val)
        assert len(selection.selected_names_) == 2

    def test_min_features_validation(self):
        with pytest.raises(ValueError, match="min_features"):
            BackwardSelection(CategoricalNB(), min_features=0)

    def test_predict_projects_features(self):
        X_tr, y_tr, X_val, y_val = _dataset(n=300, seed=5)
        selection = BackwardSelection(CategoricalNB()).fit(X_tr, y_tr, X_val, y_val)
        assert selection.predict(X_val).shape == y_val.shape


class TestBiasVariance:
    def test_agreeing_runs_have_zero_variance(self):
        predictions = np.tile(np.array([0, 1, 1, 0]), (5, 1))
        result = decompose(predictions, np.array([0, 1, 1, 0]))
        assert result.bias == 0.0
        assert result.net_variance == 0.0
        assert result.average_loss == 0.0

    def test_systematic_error_is_bias(self):
        predictions = np.tile(np.array([1, 1]), (7, 1))
        result = decompose(predictions, np.array([0, 0]))
        assert result.bias == 1.0
        assert result.net_variance == 0.0
        assert result.average_loss == 1.0

    def test_unbiased_variance_adds_to_loss(self):
        # Main prediction correct; 1 run of 4 disagrees at each point.
        predictions = np.array(
            [
                [0, 1],
                [0, 1],
                [0, 1],
                [1, 0],
            ]
        )
        result = decompose(predictions, np.array([0, 1]))
        assert result.bias == 0.0
        assert result.net_variance == pytest.approx(0.25)
        assert result.average_loss == pytest.approx(
            result.bias + result.net_variance
        )

    def test_biased_variance_subtracts(self):
        # Main prediction wrong at the single point; one dissenting run
        # is right, so variance reduces the loss below pure bias.
        predictions = np.array([[1], [1], [1], [0]])
        result = decompose(predictions, np.array([0]))
        assert result.bias == 1.0
        assert result.net_variance == pytest.approx(-0.25)
        assert result.average_loss == pytest.approx(0.75)

    def test_loss_identity_bias_plus_net_variance(self):
        rng = np.random.default_rng(0)
        predictions = rng.integers(0, 2, size=(9, 40))
        optimal = rng.integers(0, 2, size=40)
        result = decompose(predictions, optimal)
        assert result.average_loss == pytest.approx(
            result.bias + result.net_variance
        )

    def test_separate_y_true(self):
        predictions = np.tile(np.array([0, 1]), (3, 1))
        result = decompose(
            predictions, np.array([0, 1]), y_true=np.array([1, 1])
        )
        assert result.average_loss == pytest.approx(0.5)
        assert result.bias == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="runs"):
            decompose(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="y_optimal"):
            decompose(np.zeros((2, 3), dtype=int), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="y_true"):
            decompose(
                np.zeros((2, 3), dtype=int),
                np.zeros(3, dtype=int),
                y_true=np.zeros(5, dtype=int),
            )

    def test_summary_renders(self):
        predictions = np.tile(np.array([0, 1]), (3, 1))
        text = decompose(predictions, np.array([0, 1])).summary()
        assert "net_var" in text
