"""Tests for the experiment runner and Monte Carlo simulation loops.

These are integration tests at SMOKE scale: they exercise the full
strategy → encode → tune → test pipeline for every registered model and
the Monte Carlo machinery that powers the simulation figures.
"""

import numpy as np
import pytest

from repro.core import join_all_strategy, no_fk_strategy, no_join_strategy
from repro.datasets import OneXrScenario, generate_real_world
from repro.experiments import (
    MODEL_REGISTRY,
    SMOKE,
    run_experiment,
    run_monte_carlo,
    sweep,
)
from repro.ml import DecisionTreeClassifier, GridSearch


@pytest.fixture(scope="module")
def yelp():
    return generate_real_world("yelp", n_fact=SMOKE.n_fact, seed=0)


class TestModelRegistry:
    def test_all_ten_models_registered(self):
        assert len(MODEL_REGISTRY) == 10
        assert set(MODEL_REGISTRY) == {
            "dt_gini",
            "dt_entropy",
            "dt_gain_ratio",
            "nn1",
            "svm_linear",
            "svm_quadratic",
            "svm_rbf",
            "ann",
            "nb_bfs",
            "lr_l1",
        }

    def test_families_cover_advisor_thresholds(self):
        from repro.core import FAMILY_THRESHOLDS

        for spec in MODEL_REGISTRY.values():
            assert spec.family in FAMILY_THRESHOLDS


@pytest.mark.parametrize("model_key", sorted(MODEL_REGISTRY))
class TestRunExperimentAllModels:
    def test_pipeline_end_to_end(self, yelp, model_key):
        result = run_experiment(
            yelp, model_key, no_join_strategy(), scale=SMOKE
        )
        assert 0.0 <= result.test_accuracy <= 1.0
        assert 0.0 <= result.train_accuracy <= 1.0
        assert result.seconds > 0
        assert result.strategy == "NoJoin"
        assert result.dataset == "yelp"


class TestRunExperiment:
    def test_unknown_model_raises(self, yelp):
        with pytest.raises(ValueError, match="available"):
            run_experiment(yelp, "xgboost", no_join_strategy(), scale=SMOKE)

    def test_learns_better_than_chance(self, yelp):
        result = run_experiment(
            yelp, "dt_gini", join_all_strategy(), scale=SMOKE
        )
        majority = max(np.mean(yelp.labels("test")), 1 - np.mean(yelp.labels("test")))
        assert result.test_accuracy >= majority - 0.05

    def test_feature_counts_differ_by_strategy(self, yelp):
        join_all = run_experiment(yelp, "dt_gini", join_all_strategy(), scale=SMOKE)
        no_join = run_experiment(yelp, "dt_gini", no_join_strategy(), scale=SMOKE)
        assert no_join.n_features < join_all.n_features

    def test_prematerialised_matrices_shortcut(self, yelp):
        strategy = no_join_strategy()
        matrices = strategy.matrices(yelp)
        result = run_experiment(
            yelp, "dt_gini", strategy, scale=SMOKE, matrices=matrices
        )
        assert result.n_features == matrices.X_train.n_features

    @pytest.mark.parametrize(
        "argument",
        [
            {"checkpoint": "checkpoints"},
            {"checkpoint_every": 2},
            {"resume": True},
        ],
        ids=lambda argument: next(iter(argument)),
    )
    def test_tuned_path_rejects_trainer_arguments(
        self, yelp, argument, tmp_path, monkeypatch
    ):
        """The tuned path builds no trainer, so a training-loop argument
        would be silently ignored; it is refused instead."""
        monkeypatch.chdir(tmp_path)
        name = next(iter(argument))
        with pytest.raises(ValueError, match=f"^{name}="):
            run_experiment(
                yelp, "lr_l1", no_join_strategy(), scale=SMOKE, **argument
            )
        assert list(tmp_path.iterdir()) == []

    def test_best_params_recorded_for_grid_models(self, yelp):
        result = run_experiment(yelp, "dt_gini", no_join_strategy(), scale=SMOKE)
        assert set(result.best_params) == {"minsplit", "cp"}

    def test_str_rendering(self, yelp):
        result = run_experiment(yelp, "nn1", no_join_strategy(), scale=SMOKE)
        assert "yelp" in str(result)


def _tree_factory():
    return GridSearch(
        DecisionTreeClassifier(unseen="majority", random_state=0),
        grid={"cp": [0.0, 0.01]},
    )


class TestMonteCarlo:
    def test_basic_loop(self):
        scenario = OneXrScenario(n_train=120, n_r=8)
        result = run_monte_carlo(
            scenario,
            _tree_factory,
            [join_all_strategy(), no_join_strategy(), no_fk_strategy()],
            n_runs=3,
            seed=0,
        )
        assert set(result.test_error) == {"JoinAll", "NoJoin", "NoFK"}
        assert all(0.0 <= e <= 1.0 for e in result.test_error.values())
        assert result.n_runs == 3
        assert result.scenario == "OneXr"

    def test_reproducible(self):
        scenario = OneXrScenario(n_train=80, n_r=8)
        a = run_monte_carlo(
            scenario, _tree_factory, [no_join_strategy()], n_runs=2, seed=5
        )
        b = run_monte_carlo(
            scenario, _tree_factory, [no_join_strategy()], n_runs=2, seed=5
        )
        assert a.test_error == b.test_error
        assert a.net_variance == b.net_variance

    def test_error_approaches_bayes_for_easy_setting(self):
        """High tuple ratio + low noise: tree error should be near p."""
        scenario = OneXrScenario(n_train=400, n_r=4, p=0.1)
        result = run_monte_carlo(
            scenario, _tree_factory, [no_join_strategy()], n_runs=3, seed=0
        )
        assert result.test_error["NoJoin"] < 0.25

    def test_decomposition_internal_consistency(self):
        scenario = OneXrScenario(n_train=100, n_r=10)
        result = run_monte_carlo(
            scenario, _tree_factory, [no_join_strategy()], n_runs=4, seed=1
        )
        d = result.decompositions["NoJoin"]
        assert 0.0 <= d.bias <= 1.0
        assert d.net_variance == pytest.approx(
            d.unbiased_variance - d.biased_variance
        )
        # Loss vs optimal labels = bias + net variance; loss vs observed
        # labels differs from it by at most the Bayes noise rate.
        loss_vs_optimal = d.bias + d.net_variance
        assert abs(result.test_error["NoJoin"] - loss_vs_optimal) <= 0.25

    def test_validation(self):
        scenario = OneXrScenario(n_train=50, n_r=5)
        with pytest.raises(ValueError, match="n_runs"):
            run_monte_carlo(scenario, _tree_factory, [no_join_strategy()], n_runs=0)
        with pytest.raises(ValueError, match="strategy"):
            run_monte_carlo(scenario, _tree_factory, [], n_runs=1)

    def test_metadata_propagated(self):
        scenario = OneXrScenario(n_train=60, n_r=6, p=0.2)
        result = run_monte_carlo(
            scenario, _tree_factory, [no_join_strategy()], n_runs=1, seed=0
        )
        assert result.metadata["p"] == 0.2


class TestSweep:
    def test_sweep_over_nr(self):
        results = sweep(
            lambda n_r: OneXrScenario(n_train=80, n_r=n_r),
            values=[4, 16],
            model_factory=_tree_factory,
            strategies=[join_all_strategy(), no_join_strategy()],
            n_runs=2,
            seed=0,
        )
        assert [v for v, _ in results] == [4, 16]
        for _, result in results:
            assert "NoJoin" in result.test_error

    def test_sweep_requires_values(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep(
                lambda v: OneXrScenario(),
                values=[],
                model_factory=_tree_factory,
                strategies=[no_join_strategy()],
            )
