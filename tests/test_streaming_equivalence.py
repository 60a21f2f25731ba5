"""The streaming engine's contract: equivalence with in-memory training.

Property-based (hypothesis-randomised schemas and seeds), parametrised
over the implicit one-hot path and the dense oracle (``encode_features``
substituted by the ``dense_oracle`` fixture) and all four join-strategy
families:

- a one-epoch streaming fit over a *single* shard is bit-identical to
  the in-memory fit (LR coefficients and MLP weight tensors compared
  with ``np.array_equal``, not a tolerance);
- multi-shard exact logistic regression converges to the same penalised
  loss within 1e-6 of the in-memory fit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    avoid_dimensions_strategy,
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.data import SourceSpec
from repro.datasets import SplitDataset, three_way_split
from repro.ml.linear import L1LogisticRegression
from repro.ml.neural import MLPClassifier
from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
)
from repro.streaming import StreamingTrainer

#: The four strategy families of repro.core.strategies.
STRATEGIES = {
    "JoinAll": join_all_strategy,
    "NoJoin": no_join_strategy,
    "NoFK": no_fk_strategy,
    "AvoidDimensions": lambda: avoid_dimensions_strategy("R1"),
}

#: The sparse kernels and the dense one-hot oracle.
PATHS = ("implicit", "dense")

#: The oracle fixture hands out a fresh context per use, so sharing it
#: across hypothesis examples is safe.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


def _on(path, dense_oracle):
    """The encode-path context for one parametrised path."""
    import contextlib

    return dense_oracle() if path == "dense" else contextlib.nullcontext()


def random_star_dataset(seed: int) -> SplitDataset:
    """A small randomised two-dimension star schema with binary labels."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 120))
    specs = []  # (name, fk, rid, n_r, n_features)
    for d, name in enumerate(("R1", "R2")[: int(rng.integers(1, 3))]):
        specs.append(
            (name, f"FK{d}", f"RID{d}", int(rng.integers(3, 9)),
             int(rng.integers(1, 3)))
        )
    fact_columns = [
        CategoricalColumn("Y", Domain.boolean(), rng.integers(0, 2, size=n))
    ]
    for j in range(int(rng.integers(1, 3))):
        levels = int(rng.integers(2, 4))
        fact_columns.append(
            CategoricalColumn(
                f"Xs{j}",
                Domain.of_size(levels, prefix=f"s{j}_"),
                rng.integers(0, levels, size=n),
            )
        )
    dimensions = []
    for name, fk, rid, n_r, d_r in specs:
        key_domain = Domain.of_size(n_r, prefix=f"{name}_k")
        fact_columns.append(
            CategoricalColumn(fk, key_domain, rng.integers(0, n_r, size=n))
        )
        dim_columns = [
            CategoricalColumn(rid, key_domain, np.arange(n_r))
        ]
        for j in range(d_r):
            levels = int(rng.integers(2, 4))
            dim_columns.append(
                CategoricalColumn(
                    f"{name}x{j}",
                    Domain.of_size(levels, prefix=f"{name}v{j}_"),
                    rng.integers(0, levels, size=n_r),
                )
            )
        dimensions.append(
            (Table(name, dim_columns), KFKConstraint(fk, name, rid))
        )
    schema = StarSchema(
        fact=Table("S", fact_columns), target="Y", dimensions=dimensions
    )
    train, validation, test = three_way_split(n, seed=int(seed) % (2**31))
    return SplitDataset(
        name=f"rand{seed}",
        schema=schema,
        train=train,
        validation=validation,
        test=test,
    )


def _both_classes_present(dataset: SplitDataset) -> bool:
    return np.unique(dataset.labels("train")).size == 2


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
class TestSingleShardBitIdentity:
    @settings(max_examples=4, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_logistic_regression(
        self, path, strategy_name, seed, dense_oracle
    ):
        dataset = random_star_dataset(seed)
        strategy = STRATEGIES[strategy_name]()
        matrices = strategy.matrices(dataset)
        with _on(path, dense_oracle):
            reference = L1LogisticRegression(max_iter=150)
            reference.fit(matrices.X_train, matrices.y_train)

            stream = strategy.streaming_matrices(dataset, n_shards=1)
            model = L1LogisticRegression(max_iter=150)
            StreamingTrainer(model, seed=seed).fit(stream)

        assert np.array_equal(reference.coef_, model.coef_)
        assert reference.intercept_ == model.intercept_
        assert reference.n_iter_ == model.n_iter_

    @settings(max_examples=3, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_mlp_one_epoch(self, path, strategy_name, seed, dense_oracle):
        dataset = random_star_dataset(seed)
        if not _both_classes_present(dataset):
            return
        strategy = STRATEGIES[strategy_name]()
        matrices = strategy.matrices(dataset)
        with _on(path, dense_oracle):
            reference = MLPClassifier(
                hidden_sizes=(6,), epochs=1, random_state=0
            )
            reference.fit(matrices.X_train, matrices.y_train)

            stream = strategy.streaming_matrices(dataset, n_shards=1)
            model = MLPClassifier(hidden_sizes=(6,), epochs=1, random_state=0)
            # The trainer's shard-order seed differs from the model's
            # random_state on purpose: it must not perturb the model RNG.
            StreamingTrainer(model, seed=seed + 1).fit(stream)

        for w_ref, w_stream in zip(reference.weights_, model.weights_):
            assert np.array_equal(w_ref, w_stream)
        for b_ref, b_stream in zip(reference.biases_, model.biases_):
            assert np.array_equal(b_ref, b_stream)
        assert reference.loss_curve_ == model.loss_curve_

    @settings(max_examples=2, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_multi_shard_lr_same_loss(
        self, path, strategy_name, seed, dense_oracle
    ):
        dataset = random_star_dataset(seed)
        strategy = STRATEGIES[strategy_name]()
        matrices = strategy.matrices(dataset)
        with _on(path, dense_oracle):
            # A firmer penalty converges in fewer FISTA iterations; the
            # equivalence claim is about shard layout, not the lam
            # choice.
            reference = L1LogisticRegression(lam=1e-2, max_iter=1500, tol=1e-8)
            reference.fit(matrices.X_train, matrices.y_train)

            shard_rows = max(5, dataset.train.size // 4)
            stream = strategy.streaming_matrices(
                dataset, shard_rows=shard_rows
            )
            assert stream.n_shards > 1
            model = L1LogisticRegression(lam=1e-2, max_iter=1500, tol=1e-8)
            StreamingTrainer(model, seed=seed).fit(stream)

            loss_ref = reference.loss(matrices.X_train, matrices.y_train)
            loss_stream = model.loss(matrices.X_train, matrices.y_train)
        assert abs(loss_ref - loss_stream) < 1e-6


class TestEngineAgreementUnderStreaming:
    """The sparse path and the dense oracle agree shard-for-shard."""

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    def test_multi_shard_engines_agree(self, strategy_name, dense_oracle):
        dataset = random_star_dataset(7)
        strategy = STRATEGIES[strategy_name]()
        models = {}
        for path in PATHS:
            with _on(path, dense_oracle):
                stream = strategy.streaming_matrices(dataset, shard_rows=13)
                model = L1LogisticRegression(max_iter=300)
                StreamingTrainer(model).fit(stream)
            models[path] = model
        np.testing.assert_allclose(
            models["implicit"].coef_, models["dense"].coef_, atol=1e-10
        )


class TestRunnerEquivalence:
    """The unified runner preserves the equivalence guarantees."""

    def test_inmemory_source_reproduces_direct_fit_exactly(self):
        """``run_experiment(source=SourceSpec())`` == the pre-refactor
        in-memory runner: fit the single configuration on materialised
        matrices, score every split with plain accuracy."""
        from repro.datasets import generate_real_world
        from repro.experiments import SMOKE, make_streaming_model, run_experiment

        dataset = generate_real_world("yelp", n_fact=160, seed=0)
        strategy = join_all_strategy()
        # What run_inmemory_experiment (deleted in the data-layer
        # refactor) computed, written out by hand:
        matrices = strategy.matrices(dataset)
        model = make_streaming_model("lr_l1", SMOKE, seed=0)
        model.fit(matrices.X_train, matrices.y_train)
        result = run_experiment(
            dataset, "lr_l1", strategy, scale=SMOKE, source=SourceSpec()
        )
        assert result.test_accuracy == model.score(
            matrices.X_test, matrices.y_test
        )
        assert result.train_accuracy == model.score(
            matrices.X_train, matrices.y_train
        )
        assert result.validation_accuracy == model.score(
            matrices.X_validation, matrices.y_validation
        )
        assert result.best_params["streaming"] is False
        assert result.n_features == matrices.X_train.n_features

    def test_single_shard_streaming_matches_inmemory_result(self):
        from repro.datasets import generate_real_world
        from repro.experiments import SMOKE, run_experiment

        dataset = generate_real_world("yelp", n_fact=160, seed=0)
        strategy = join_all_strategy()
        inmem = run_experiment(
            dataset, "lr_l1", strategy, scale=SMOKE, source=SourceSpec()
        )
        streamed = run_experiment(
            dataset, "lr_l1", strategy, scale=SMOKE,
            source=SourceSpec(n_shards=1),
        )
        assert streamed.test_accuracy == inmem.test_accuracy
        assert streamed.train_accuracy == inmem.train_accuracy
        assert streamed.validation_accuracy == inmem.validation_accuracy
        assert streamed.best_params["n_shards"] == 1
        assert streamed.best_params["streaming"] is True

    def test_multi_shard_streaming_matches_inmemory_accuracy(self):
        from repro.datasets import generate_real_world
        from repro.experiments import SMOKE, run_experiment

        dataset = generate_real_world("yelp", n_fact=160, seed=0)
        strategy = no_join_strategy()
        inmem = run_experiment(
            dataset, "lr_l1", strategy, scale=SMOKE, source=SourceSpec()
        )
        streamed = run_experiment(
            dataset, "lr_l1", strategy, scale=SMOKE,
            source=SourceSpec(shard_rows=17),
        )
        # Exact FISTA over shards: same iterates up to FP association.
        assert streamed.test_accuracy == pytest.approx(
            inmem.test_accuracy, abs=1e-12
        )

    def test_decorated_source_spec_changes_nothing(self):
        from repro.datasets import generate_real_world
        from repro.experiments import SMOKE, run_experiment

        dataset = generate_real_world("yelp", n_fact=160, seed=0)
        strategy = no_join_strategy()
        # NB: shard-exact in one counting pass, so the test isolates the
        # decorators' effect (none) without a long FISTA run.
        plain = run_experiment(
            dataset, "nb", strategy, scale=SMOKE,
            source=SourceSpec(shard_rows=17),
        )
        decorated = run_experiment(
            dataset, "nb", strategy, scale=SMOKE,
            source=SourceSpec(shard_rows=17, prefetch=2, spill_cache=True),
        )
        assert decorated.test_accuracy == plain.test_accuracy
        assert decorated.train_accuracy == plain.train_accuracy
        assert decorated.validation_accuracy == plain.validation_accuracy
        assert decorated.best_params["prefetch"] == 2
        assert decorated.best_params["spill_cache"] is True

    def test_matrices_and_source_are_mutually_exclusive(self):
        from repro.datasets import generate_real_world
        from repro.experiments import SMOKE, run_experiment

        dataset = generate_real_world("yelp", n_fact=160, seed=0)
        strategy = no_join_strategy()
        matrices = strategy.matrices(dataset)
        with pytest.raises(ValueError, match="one or the other"):
            run_experiment(
                dataset, "lr_l1", strategy, scale=SMOKE,
                matrices=matrices, source=SourceSpec(),
            )

    def test_old_runner_names_are_gone(self):
        """The duplicated per-path runners are deleted, not kept alongside."""
        import repro.experiments as experiments
        import repro.experiments.runner as runner

        for name in ("run_inmemory_experiment", "run_streaming_experiment"):
            assert not hasattr(experiments, name)
            assert not hasattr(runner, name)

    def test_no_worker_count_knob(self):
        """Shards are produced in-process only: the process tier and
        its worker counts are deleted, not kept alongside."""
        import importlib

        from repro.datasets import generate_real_world
        from repro.experiments import SMOKE, run_experiment

        with pytest.raises(TypeError, match="parallel_workers"):
            StreamingTrainer(L1LogisticRegression(), parallel_workers=2)
        dataset = generate_real_world("yelp", n_fact=160, seed=0)
        with pytest.raises(TypeError, match="parallel_workers"):
            run_experiment(
                dataset, "nb", no_join_strategy(), scale=SMOKE,
                source=SourceSpec(), parallel_workers=2,
            )
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel")
