"""Section 6 experiments: FK domain compression and FK smoothing.

Two experiment drivers used by the Figure 10 and Figure 11 benchmarks:

- :func:`run_compression_experiment` — compress every usable foreign-key
  feature of a real dataset under NoJoin with both compressors (random
  hashing vs sort-based) across a range of budgets, training a gini
  decision tree at each point (Figure 10's setup).
- :func:`run_smoothing_experiment` — on the OneXr scenario, hold out a
  fraction ``gamma`` of the FK domain from training, smooth the unseen
  test levels with either random reassignment or the X_R-based
  minimum-l0 method, and compare JoinAll/NoJoin/NoFK test errors
  (Figure 11's setup).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.compression import RandomHashingCompressor, SortBasedCompressor
from repro.core.smoothing import ForeignFeatureSmoother, RandomSmoother
from repro.core.strategies import (
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.datasets.splits import SplitDataset
from repro.datasets.synthetic import OneXrScenario
from repro.experiments.reporting import FigureSeries
from repro.experiments.runner import default_tree_tuner
from repro.ml.encoding import CategoricalMatrix
from repro.ml.metrics import zero_one_error
from repro.rng import ensure_rng, spawn_rngs


def _compress_splits(
    compressor_factory: Callable[[], object],
    matrices,
    fk_features: list[str],
):
    """Fit one compressor per FK feature on train, transform all splits."""
    X_train, X_val, X_test = (
        matrices.X_train,
        matrices.X_validation,
        matrices.X_test,
    )
    for feature in fk_features:
        j = X_train.index_of(feature)
        compressor = compressor_factory()
        compressor.fit(
            X_train.column(j), matrices.y_train, n_levels=X_train.n_levels[j]
        )
        X_train = compressor.compress_feature(X_train, feature)
        renamed = X_train.names[j]
        X_val = X_val.replace_column(
            j, compressor.transform(X_val.column(j)), compressor.n_groups_,
            name=renamed,
        )
        X_test = X_test.replace_column(
            j, compressor.transform(X_test.column(j)), compressor.n_groups_,
            name=renamed,
        )
    return X_train, X_val, X_test


def run_compression_experiment(
    dataset: SplitDataset,
    budgets: list[int],
    seed: int = 0,
    model_factory: Callable[[], object] | None = None,
) -> FigureSeries:
    """Figure 10: NoJoin accuracy vs FK-domain budget for both compressors.

    Every usable FK feature is compressed to the same budget ``l``; the
    model is the paper's gini decision tree tuned on the validation
    split.  Returns a series with ``Random`` and ``Sort-based`` columns.
    """
    if not budgets:
        raise ValueError("need at least one budget")
    model_factory = model_factory or default_tree_tuner
    strategy = no_join_strategy()
    matrices = strategy.matrices(dataset)
    fk_features = [
        name
        for name in dataset.schema.usable_fk_columns()
        if name in matrices.X_train.names
    ]
    if not fk_features:
        raise ValueError(f"dataset {dataset.name!r} has no usable FK features")
    figure = FigureSeries(
        title=f"Figure 10 ({dataset.name}): FK domain compression, NoJoin",
        x_label="budget",
    )
    for offset, budget in enumerate(budgets):
        values = {}
        for label, factory in (
            ("Random", lambda: RandomHashingCompressor(budget, seed=seed + offset)),
            ("Sort-based", lambda: SortBasedCompressor(budget, seed=seed + offset)),
        ):
            X_train, X_val, X_test = _compress_splits(factory, matrices, fk_features)
            tuner = model_factory()
            tuner.fit(X_train, matrices.y_train, X_val, matrices.y_validation)
            values[label] = tuner.score(X_test, matrices.y_test)
        figure.add_point(budget, values)
    return figure


_SMOOTHER_METHODS = ("random", "xr")


def run_smoothing_experiment(
    scenario: OneXrScenario,
    gammas: list[float],
    n_runs: int = 5,
    seed: int = 0,
    model_factory: Callable[[], object] | None = None,
) -> dict[str, FigureSeries]:
    """Figure 11: test error vs unseen-FK fraction gamma, per smoother.

    For each gamma, training/validation rows draw foreign keys from a
    ``(1 - gamma)`` fraction of the domain while test rows use the full
    domain; unseen test FK levels are then reassigned by each smoothing
    method before prediction.  Strategies compared: JoinAll, NoJoin and
    NoFK (the latter needs no smoothing and lower-bounds the error).

    Returns ``{"random": series, "xr": series}``, each series holding
    one column per strategy.
    """
    if not gammas:
        raise ValueError("need at least one gamma")
    for gamma in gammas:
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    model_factory = model_factory or default_tree_tuner
    strategies = [join_all_strategy(), no_join_strategy(), no_fk_strategy()]
    figures = {
        method: FigureSeries(
            title=f"Figure 11 ({method} smoothing): OneXr test error vs gamma",
            x_label="gamma",
        )
        for method in _SMOOTHER_METHODS
    }
    root = ensure_rng(seed)
    population = scenario.population(root)
    n_eval = max(1, scenario.n_train // 4)
    test_block = population.draw(root, n_eval)
    # The population's dimension rows sit in RID order, so stacking its
    # feature columns yields the (n_levels, d_R) matrix the smoother needs.
    xr_codes = np.stack(
        [column.codes for column in population.dim_columns], axis=1
    )

    for gamma in gammas:
        n_seen = max(1, int(round((1.0 - gamma) * scenario.n_r)))
        allowed = np.arange(n_seen)
        errors: dict[str, dict[str, list[float]]] = {
            method: {s.name: [] for s in strategies} for method in _SMOOTHER_METHODS
        }
        for rng in spawn_rngs(root, n_runs):
            train_block = population.draw(rng, scenario.n_train, fk_subset=allowed)
            val_block = population.draw(rng, n_eval, fk_subset=allowed)
            dataset = population.dataset(train_block, val_block, test_block)
            smoothers = {
                "random": RandomSmoother(seed=rng).fit(
                    train_block.fk_codes, n_levels=scenario.n_r
                ),
                "xr": ForeignFeatureSmoother(xr_codes, seed=rng).fit(
                    train_block.fk_codes, n_levels=scenario.n_r
                ),
            }
            for strategy in strategies:
                matrices = strategy.matrices(dataset)
                has_fk = "FK" in matrices.X_train.names
                for method, smoother in smoothers.items():
                    X_test = (
                        smoother.smooth_feature(matrices.X_test, "FK")
                        if has_fk
                        else matrices.X_test
                    )
                    X_val = (
                        smoother.smooth_feature(matrices.X_validation, "FK")
                        if has_fk
                        else matrices.X_validation
                    )
                    tuner = model_factory()
                    tuner.fit(
                        matrices.X_train,
                        matrices.y_train,
                        X_val,
                        matrices.y_validation,
                    )
                    errors[method][strategy.name].append(
                        zero_one_error(matrices.y_test, tuner.predict(X_test))
                    )
        for method in _SMOOTHER_METHODS:
            figures[method].add_point(
                gamma,
                {
                    name: float(np.mean(errs))
                    for name, errs in errors[method].items()
                },
            )
    return figures


