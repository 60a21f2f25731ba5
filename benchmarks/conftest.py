"""Shared infrastructure for the table/figure benchmarks.

All benchmarks run at the scale profile resolved by ``REPRO_SCALE``
(default: the pruned-but-faithful ``DEFAULT`` profile; set
``REPRO_SCALE=paper`` for the full Section 3.2 grids).

Experiment cells are cached in a session-scoped :class:`ResultStore` so
that, e.g., Table 5 (training accuracy) reuses the exact runs of
Table 2 (test accuracy) instead of refitting, mirroring how the paper
reports multiple views of one experiment.  Wall-clock numbers come from
each cell's *first* (fresh) execution, so Figure 1's timings are
unaffected by caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.core import (
    JoinStrategy,
    avoid_dimensions_strategy,
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.core.strategies import StrategyMatrices
from repro.datasets import SplitDataset, generate_real_world
from repro.datasets.realworld import DATASET_ORDER
from repro.experiments import RunResult, Scale, get_scale, run_experiment


def _strategy_by_name(name: str, dataset: SplitDataset) -> JoinStrategy:
    if name == "JoinAll":
        return join_all_strategy()
    if name == "NoJoin":
        return no_join_strategy()
    if name == "NoFK":
        return no_fk_strategy()
    if name.startswith("No:"):
        return avoid_dimensions_strategy(*name[3:].split("+"), label=name)
    raise ValueError(f"unknown strategy spec {name!r}")


@dataclass
class ResultStore:
    """Session cache of experiment cells and materialised matrices."""

    scale: Scale
    datasets: dict[str, SplitDataset]
    _results: dict[tuple[str, str, str], RunResult] = field(default_factory=dict)
    _matrices: dict[tuple[str, str], StrategyMatrices] = field(default_factory=dict)

    def matrices(self, dataset_name: str, strategy_name: str) -> StrategyMatrices:
        key = (dataset_name, strategy_name)
        if key not in self._matrices:
            dataset = self.datasets[dataset_name]
            strategy = _strategy_by_name(strategy_name, dataset)
            self._matrices[key] = strategy.matrices(dataset)
        return self._matrices[key]

    def run(
        self, dataset_name: str, model_key: str, strategy_name: str
    ) -> RunResult:
        key = (dataset_name, model_key, strategy_name)
        if key not in self._results:
            dataset = self.datasets[dataset_name]
            strategy = _strategy_by_name(strategy_name, dataset)
            self._results[key] = run_experiment(
                dataset,
                model_key,
                strategy,
                scale=self.scale,
                matrices=self.matrices(dataset_name, strategy_name),
            )
        return self._results[key]


@pytest.fixture(scope="session")
def scale() -> Scale:
    return get_scale()


@pytest.fixture(scope="session")
def real_datasets(scale) -> dict[str, SplitDataset]:
    return {
        name: generate_real_world(name, n_fact=scale.n_fact, seed=0)
        for name in DATASET_ORDER
    }


@pytest.fixture(scope="session")
def store(scale, real_datasets) -> ResultStore:
    return ResultStore(scale=scale, datasets=real_datasets)


def run_once(benchmark, fn):
    """Benchmark a callable exactly once (these are minutes-long runs)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Simulation-study helpers shared by the figure benchmarks
# ----------------------------------------------------------------------

SIM_STRATEGIES = [join_all_strategy(), no_join_strategy(), no_fk_strategy()]


def tree_factory():
    """Gini tree with the reduced Section 3.2 grid (simulation model)."""
    from repro.experiments import default_tree_tuner

    return default_tree_tuner()


def svm_factory():
    """RBF-SVM with a reduced gamma grid (simulation model)."""
    from repro.ml import GridSearch, KernelSVC

    return GridSearch(
        KernelSVC(kernel="rbf", C=10.0, random_state=0),
        grid={"gamma": [0.1, 1.0]},
    )


def nn1_factory():
    """Untuned 1-NN (simulation model)."""
    from repro.ml import GridSearch, KNeighborsClassifier

    return GridSearch(KNeighborsClassifier(n_neighbors=1), grid={})


def figure_from_sweep(title, x_label, results, metric="test_error"):
    """Convert sweep output into a FigureSeries of the chosen metric."""
    from repro.experiments import FigureSeries

    figure = FigureSeries(title=title, x_label=x_label)
    for value, result in results:
        figure.add_point(value, getattr(result, metric))
    return figure


@pytest.fixture(scope="session")
def onexr_nr_sweep_1nn(scale):
    """OneXr |D_FK| sweep for 1-NN, shared by Figures 3(A) and 4(A)."""
    from repro.datasets import OneXrScenario
    from repro.experiments import sweep

    n_train = scale.sim_n_train
    return sweep(
        lambda n_r: OneXrScenario(n_train=n_train, n_r=n_r, p=0.1),
        values=[2, 10, 50, 200],
        model_factory=nn1_factory,
        strategies=SIM_STRATEGIES,
        n_runs=scale.mc_runs,
        seed=0,
    )


@pytest.fixture(scope="session")
def onexr_nr_sweep_rbf(scale):
    """OneXr |D_FK| sweep for the RBF-SVM, shared by Figures 3(B) and 4(B)."""
    from repro.datasets import OneXrScenario
    from repro.experiments import sweep

    n_train = scale.sim_n_train
    return sweep(
        lambda n_r: OneXrScenario(n_train=n_train, n_r=n_r, p=0.1),
        values=[2, 10, 50, 200],
        model_factory=svm_factory,
        strategies=SIM_STRATEGIES,
        n_runs=scale.mc_runs,
        seed=0,
    )
