"""The factorize-or-gather plan's contract: one algorithm, every layout.

``FactorizedMatrix`` keeps the KFK join factorized — per-row code
columns plus per-dimension ``(|D|, d_R)`` blocks behind an FK
indirection — while a gathered shard is a plain code table and the
dense one-hot matrix is the test oracle.  The encoder picks a layout
per dimension from the data (``repro.data.encoder.factorize_dimension``);
these tests force either layout by substituting that function (the
``force_layout`` fixture) and reach the dense oracle by substituting
``repro.ml.sparse.encode_features`` (the ``dense_oracle`` fixture).
Every kernel, trained model and served prediction must agree across
layouts to 1e-10 (bit-identical where the arithmetic is exact), under
every join strategy, skewed and uniform FK distributions, empty and
one-class shards, and unseen-FK serving rows.
"""

import json
from pathlib import Path

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
from repro.data import encoder as encoder_module
from repro.data.encoder import ShardEncoder, factorize_dimension
from repro.datasets import (
    OneXrScenario,
    SplitDataset,
    UniformFK,
    ZipfFK,
    generate_real_world,
)
from repro.errors import SchemaError, SpillCorruptionError
from repro.experiments import runner
from repro.experiments.config import get_scale
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression
from repro.ml.naive_bayes import CategoricalNB
from repro.ml.selection import BackwardSelection
from repro.ml.sparse import FactorizedGroup, FactorizedMatrix
from repro.relational import StarSchema
from repro.serving import PredictionServer
from repro.serving.artifacts import ModelArtifact, schema_fingerprint
from repro.serving.factorized import (
    FactorizedScorer,
    supports_factorized_serving,
)
from repro.streaming import StreamingTrainer

TOL = dict(rtol=0.0, atol=1e-10)

#: The layout fixtures hand out a fresh context per use, so sharing
#: them across hypothesis examples is safe.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]

STRATEGIES = {
    "JoinAll": join_all_strategy,
    "NoJoin": no_join_strategy,
    "NoFK": no_fk_strategy,
    "AvoidDimensions": lambda: avoid_dimensions_strategy("R"),
}


def star_dataset(
    n=120, n_r=6, d_s=2, d_r=3, skew=False, seed=0
) -> SplitDataset:
    """A one-dimension star schema with a controllable FK distribution."""
    sampler = ZipfFK(2.0) if skew else UniformFK()
    scenario = OneXrScenario(
        n_train=n, n_r=n_r, d_s=d_s, d_r=d_r, fk_sampler=sampler
    )
    return scenario.sample(seed)


def encode_both(force_layout, dataset, strategy, split="train"):
    """One shard of a split, encoded gathered and factorized."""
    encoder = ShardEncoder(dataset.schema, strategy)
    rows = dataset.schema.fact.select(getattr(dataset, split))
    with force_layout("gather"):
        gathered, y_g = encoder.encode_shard(rows)
    with force_layout("factorize"):
        factorized, y_f = encoder.encode_shard(rows)
    assert np.array_equal(y_g, y_f)
    return gathered, factorized, y_g


class TestFactorizeOrGatherPlan:
    """The plan reads each dimension's layout off ``n``, ``|D|``, ``d_R``."""

    #: ``(d_R, |D|, n/|D|)`` points of the benchmark sweep where the
    #: blocked layout trained faster in both sweeps the constants were
    #: fitted to (README, "Factorize-or-gather plan").
    WINS = [
        (8, 100, 10), (8, 100, 20), (8, 100, 40), (8, 100, 100),
        (8, 1000, 5), (8, 1000, 10), (8, 1000, 20), (8, 1000, 40),
        (8, 1000, 100),
        (40, 100, 5), (40, 100, 10), (40, 100, 20), (40, 100, 40),
        (40, 100, 100),
        (40, 1000, 5), (40, 1000, 10), (40, 1000, 20), (40, 1000, 40),
        (40, 1000, 100),
    ]
    #: ... and where gathering did.
    LOSSES = [(8, 100, 5)]

    def test_factorizes_at_the_sweeps_winning_points(self):
        for d_r, dim_rows, ratio in self.WINS:
            assert factorize_dimension(ratio * dim_rows, dim_rows, d_r)
        for d_r, dim_rows, ratio in self.LOSSES:
            assert not factorize_dimension(ratio * dim_rows, dim_rows, d_r)

    def test_committed_sweep_and_readme_quote_the_constants(self):
        """The rule's constants, the committed sweep they were fitted to
        and the README's rule line change together (a re-fit that leaves
        one behind fails here)."""
        root = Path(__file__).resolve().parents[1]
        names = ("BLOCK_FIXED_COST", "BLOCK_COLUMN_COST", "BLOCK_ROW_COST")
        constants = {name: getattr(encoder_module, name) for name in names}
        sweep = json.loads((root / "BENCH_factorized.json").read_text())
        assert sweep["block_costs"] == constants
        fixed, column, row = (constants[name] for name in names)
        rule = f"`n · d_R >= {fixed:,} + d_R · ({column:,} + {row:,} · \\|D\\|)`"
        assert rule in (root / "README.md").read_text()

    def test_benchmark_shapes(self):
        """``stream_fista``'s 10k-row Expedia shards block the 1,266-row
        hotels dimension (ratio 7.9, ``d_R = 8``) and gather the
        50,000-row searches one; ``serve_joinall``'s 64-row Flights
        batches gather every dimension."""
        assert factorize_dimension(10_000, 1_266, 8)
        assert not factorize_dimension(10_000, 50_000, 14)
        flights = generate_real_world("flights", n_fact=4_000, seed=101)
        features = ShardEncoder(flights.schema, join_all_strategy())
        assert len(features.joined_dimensions) == 3
        batch = flights.schema.fact.select(flights.test[:64])
        assert isinstance(features.assemble_table(batch), CategoricalMatrix)

    def test_layout_is_decided_per_dimension(self):
        """A 10k-row Expedia shard blocks hotels, gathers searches, and
        gathers back to exactly the rows the in-memory join builds."""
        expedia = generate_real_world("expedia", n_fact=100_000, seed=101)
        encoder = ShardEncoder(expedia.schema, join_all_strategy())
        assert set(encoder.joined_dimensions) == {"hotels", "searches"}
        rows = expedia.train[:10_000]
        X, _ = encoder.encode_shard(expedia.schema.fact.select(rows))
        assert isinstance(X, FactorizedMatrix)
        assert [group.name for group in X.groups] == ["hotels"]
        joined = join_all_strategy().matrices(expedia)
        assert np.array_equal(X.gather().codes, joined.X_train.codes[:10_000])


class TestKernelEquivalence:
    """FactorizedMatrix kernels against the gathered reference."""

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("skew", [False, True])
    def test_matmul_and_rmatmul(self, strategy_name, skew, force_layout):
        dataset = star_dataset(skew=skew, seed=3)
        strategy = STRATEGIES[strategy_name]()
        gathered, factorized, _ = encode_both(force_layout, dataset, strategy)
        if not strategy.joined_dimensions(dataset.schema):
            # Nothing joined, nothing to block: both layouts gather.
            assert isinstance(factorized, CategoricalMatrix)
            return
        assert factorized.names == gathered.names
        assert factorized.shape == (gathered.n_rows, gathered.onehot_width)
        rng = np.random.default_rng(5)
        w = rng.normal(size=factorized.width)
        W = rng.normal(size=(factorized.width, 4))
        v = rng.normal(size=factorized.n_rows)
        V = rng.normal(size=(factorized.n_rows, 3))
        view = gathered.onehot_view()
        assert np.allclose(factorized.matmul(w), view.matmul(w), **TOL)
        assert np.allclose(factorized.matmul(W), view.matmul(W), **TOL)
        assert np.allclose(factorized.rmatmul(v), view.rmatmul(v), **TOL)
        assert np.allclose(factorized.rmatmul(V), view.rmatmul(V), **TOL)

    def test_gather_reproduces_the_code_table(self, force_layout):
        dataset = star_dataset(seed=11)
        gathered, factorized, _ = encode_both(
            force_layout, dataset, join_all_strategy()
        )
        assert np.array_equal(factorized.gather().codes, gathered.codes)

    def test_factorized_layout_is_smaller(self, force_layout):
        dataset = star_dataset(n=600, n_r=4, d_r=6, seed=13)
        gathered, factorized, _ = encode_both(
            force_layout, dataset, join_all_strategy()
        )
        assert factorized.nbytes < gathered.codes.nbytes

    def test_blocked_group_shares_the_encoders_memo(self, force_layout):
        """A blocked group keeps the encoder's narrow ``(|D|, d_R)`` memo
        itself, not an int64 copy of it: each shard holds only its rows."""
        dataset = star_dataset(n=600, n_r=4, d_r=6, seed=13)
        encoder = ShardEncoder(dataset.schema, join_all_strategy())
        rows = dataset.schema.fact.select(dataset.train)
        with force_layout("factorize"):
            X = encoder.assemble_table(rows)
        (group,) = X.groups
        memo = encoder.dimension_block(group.name)
        assert memo.dtype == np.uint8
        assert group.block is memo
        assert np.shares_memory(group.block, memo)

    def test_degenerate_form_is_bit_identical_to_implicit(self, force_layout):
        """Per-row columns run OneHotMatrix's exact arithmetic: with no
        group at all the kernels are bit-identical to it."""
        dataset = star_dataset(seed=17)
        gathered, _, _ = encode_both(force_layout, dataset, join_all_strategy())
        degenerate = FactorizedMatrix(
            gathered.names,
            gathered.n_levels,
            np.arange(gathered.n_features),
            gathered.codes,
            (),
        )
        rng = np.random.default_rng(19)
        w = rng.normal(size=degenerate.width)
        V = rng.normal(size=(degenerate.n_rows, 2))
        view = gathered.onehot_view()
        assert np.array_equal(degenerate.matmul(w), view.matmul(w))
        assert np.array_equal(degenerate.rmatmul(V), view.rmatmul(V))

    def test_take_rows_matches_gathered_subset(self, force_layout):
        dataset = star_dataset(seed=23)
        gathered, factorized, _ = encode_both(
            force_layout, dataset, join_all_strategy()
        )
        rows = np.array([0, 5, 5, 2, 17])
        sub = factorized.take_rows(rows)
        w = np.random.default_rng(29).normal(size=factorized.width)
        assert np.allclose(
            sub.matmul(w),
            gathered.take_rows(rows).onehot_view().matmul(w),
            **TOL,
        )

    def test_empty_shard_kernels(self, force_layout):
        dataset = star_dataset(seed=31)
        _, factorized, _ = encode_both(
            force_layout, dataset, join_all_strategy()
        )
        empty = factorized.take_rows(np.array([], dtype=np.int64))
        assert empty.n_rows == 0
        w = np.zeros(factorized.width)
        assert empty.matmul(w).shape == (0,)
        assert np.array_equal(
            empty.rmatmul(np.zeros(0)), np.zeros(factorized.width)
        )


class TestTrainingEquivalence:
    """Hypothesis sweep: factorized ≡ gathered ≡ dense fitted models."""

    @settings(max_examples=3, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("skew", [False, True])
    def test_streamed_lr_agrees_across_engines(
        self, strategy_name, skew, seed, force_layout, dense_oracle
    ):
        dataset = star_dataset(
            n=90, n_r=5, d_s=2, d_r=2, skew=skew, seed=seed
        )
        strategy = STRATEGIES[strategy_name]()
        coefs = {}
        for layout in ("gather", "factorize"):
            with force_layout(layout):
                stream = strategy.streaming_matrices(dataset, shard_rows=32)
                model = L1LogisticRegression(lam=1e-3, max_iter=25, tol=0.0)
                StreamingTrainer(model).fit(stream)
            coefs[layout] = (model.coef_, model.intercept_)
        matrices = strategy.matrices(dataset)
        with dense_oracle():
            dense = L1LogisticRegression(lam=1e-3, max_iter=25, tol=0.0)
            dense.fit(matrices.X_train, matrices.y_train)
        coefs["dense"] = (dense.coef_, dense.intercept_)

        # Every path runs the same FISTA; only float association
        # differs (shard grouping, factorized per-dimension totals), so
        # coefficients agree to 1e-10 across the board.
        c_g, b_g = coefs["gather"]
        for layout in ("factorize", "dense"):
            c_e, b_e = coefs[layout]
            assert np.allclose(c_e, c_g, **TOL)
            assert abs(b_e - b_g) <= 1e-10

    @settings(max_examples=3, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @pytest.mark.parametrize("skew", [False, True])
    def test_streamed_nb_counts_are_bit_identical(
        self, skew, seed, force_layout
    ):
        dataset = star_dataset(n=80, n_r=4, d_s=1, d_r=2, skew=skew, seed=seed)
        strategy = join_all_strategy()
        fitted = {}
        for layout in ("gather", "factorize"):
            with force_layout(layout):
                stream = strategy.streaming_matrices(dataset, shard_rows=17)
                model = CategoricalNB(alpha=1.0)
                StreamingTrainer(model).fit(stream)
            fitted[layout] = model
        for log_g, log_f in zip(
            fitted["gather"].feature_log_prob_,
            fitted["factorize"].feature_log_prob_,
        ):
            assert np.array_equal(log_g, log_f)
        assert np.array_equal(
            fitted["gather"].class_log_prior_,
            fitted["factorize"].class_log_prior_,
        )

    def test_one_class_shards_train_identically(self, force_layout):
        # A label-sorted fact table makes early shards single-class.
        dataset = star_dataset(n=60, n_r=4, d_s=1, d_r=2, seed=41)
        fact = dataset.schema.fact
        order = np.argsort(fact.codes(dataset.schema.target), kind="stable")
        sorted_fact = fact.select(order)
        schema = StarSchema(
            fact=sorted_fact,
            target=dataset.schema.target,
            dimensions=[
                (dataset.schema.dimension(name), dataset.schema.constraint(name))
                for name in dataset.schema.dimension_names
            ],
        )
        n_rows = sorted_fact.n_rows
        sorted_dataset = SplitDataset(
            name="sorted",
            schema=schema,
            train=np.arange(n_rows - 2),
            validation=np.array([n_rows - 2]),
            test=np.array([n_rows - 1]),
        )
        strategy = join_all_strategy()
        coefs = {}
        for layout in ("gather", "factorize"):
            with force_layout(layout):
                stream = strategy.streaming_matrices(
                    sorted_dataset, shard_rows=10
                )
                model = L1LogisticRegression(lam=1e-3, max_iter=20, tol=0.0)
                StreamingTrainer(model).fit(stream)
            coefs[layout] = model.coef_
        assert np.allclose(coefs["factorize"], coefs["gather"], **TOL)


def _same_tree(a, b) -> None:
    """Node-for-node identity of two fitted trees."""
    assert a.split_counts_ == b.split_counts_

    def walk(node_a, node_b):
        assert node_a.is_leaf == node_b.is_leaf
        assert np.array_equal(node_a.counts, node_b.counts)
        if not node_a.is_leaf:
            assert node_a.feature == node_b.feature
            assert np.array_equal(node_a.goes_left, node_b.goes_left)
            walk(node_a.left, node_b.left)
            walk(node_a.right, node_b.right)

    walk(a.root_, b.root_)


class TestPlannedStreamMatchesGathered:
    """Every streamable model, trained and scored through
    ``run_experiment(source=SourceSpec(shard_rows=...))`` on a stream the
    real plan factorizes, against the same stream forced to gather."""

    @staticmethod
    def _dataset():
        # |D| = 2 and d_R = 12: the plan blocks the dimension from 2,304
        # rows per shard, so both 2,400-row training shards block (the
        # 1,200-row validation and test splits gather).
        return OneXrScenario(n_train=4800, n_r=2, d_s=2, d_r=12).sample(5)

    @pytest.mark.parametrize(
        "model_key",
        ["lr_l1", "ann", "nb", "dt_gini", "dt_entropy", "dt_gain_ratio"],
    )
    def test_plan_matches_forced_gather(
        self, model_key, force_layout, monkeypatch
    ):
        dataset = self._dataset()
        strategy = join_all_strategy()
        spec = SourceSpec(shard_rows=2400)
        planned_train = spec.build(dataset, strategy, "train")
        assert all(
            isinstance(planned_train.shard(i)[0], FactorizedMatrix)
            for i in range(planned_train.n_shards)
        )
        built = []
        make = runner.make_streaming_model

        def recording(*args, **kwargs):
            model = make(*args, **kwargs)
            if model_key == "lr_l1":
                # 200 FISTA iterations keep the fit to seconds.
                model.max_iter = 200
            built.append(model)
            return model

        monkeypatch.setattr(runner, "make_streaming_model", recording)
        run = dict(scale=get_scale("smoke"), source=spec, seed=3)
        planned = runner.run_experiment(dataset, model_key, strategy, **run)
        with force_layout("gather"):
            gathered = runner.run_experiment(
                dataset, model_key, strategy, **run
            )
            gathered_train = spec.build(dataset, strategy, "train")
            predicted_gathered = [
                built[1].predict(gathered_train.shard(i)[0])
                for i in range(gathered_train.n_shards)
            ]
        predicted_planned = [
            built[0].predict(planned_train.shard(i)[0])
            for i in range(planned_train.n_shards)
        ]
        for planned_codes, gathered_codes in zip(
            predicted_planned, predicted_gathered
        ):
            assert np.array_equal(planned_codes, gathered_codes)
        for split in ("train", "validation", "test"):
            assert getattr(planned, f"{split}_accuracy") == getattr(
                gathered, f"{split}_accuracy"
            )

        a, b = built
        if model_key == "lr_l1":
            assert np.allclose(a.coef_, b.coef_, **TOL)
            assert abs(a.intercept_ - b.intercept_) <= 1e-10
        elif model_key == "nb":
            assert np.array_equal(a.class_count_, b.class_count_)
            for counts_a, counts_b in zip(a.feature_count_, b.feature_count_):
                assert np.array_equal(counts_a, counts_b)
        elif model_key == "ann":
            for w_a, w_b in zip(a.weights_ + a.biases_, b.weights_ + b.biases_):
                assert np.array_equal(w_a, w_b)
        else:
            _same_tree(a, b)


def _artifact(model, feature_names, dataset, model_key) -> ModelArtifact:
    schema = dataset.schema
    return ModelArtifact(
        model=model,
        strategy=join_all_strategy(),
        feature_names=tuple(feature_names),
        target=schema.target,
        target_labels=tuple(
            schema.fact.column(schema.target).domain.labels
        ),
        fingerprint=schema_fingerprint(schema),
        model_key=model_key,
        dataset_name=dataset.name,
    )


def _train_served_model(force_layout, dataset, model_key="lr_l1"):
    strategy = join_all_strategy()
    with force_layout("factorize"):
        stream = strategy.streaming_matrices(dataset, shard_rows=64)
        if model_key == "lr_l1":
            model = L1LogisticRegression(lam=1e-3, max_iter=30, tol=0.0)
        else:
            model = CategoricalNB(alpha=1.0)
        StreamingTrainer(model).fit(stream)
    return _artifact(model, stream.feature_names, dataset, model_key)


def _request_rows(dataset, n, seed=0):
    fact = dataset.schema.fact
    rng = np.random.default_rng(seed)
    columns = [c for c in fact.column_names if c != dataset.schema.target]
    picks = rng.integers(0, fact.n_rows, size=n)
    return [
        {c: fact.domain(c).decode([fact.codes(c)[i]])[0] for c in columns}
        for i in picks
    ]


def _gathered_predictions(server, rows) -> list:
    """What the artifact's own predict path answers on gathered rows."""
    X = server.features.assemble_rows(rows)
    assert isinstance(X, CategoricalMatrix)
    artifact = server.artifact
    return artifact.decode_labels(artifact.predict_codes(X))


class TestFactorizedServing:
    @pytest.mark.parametrize("model_key", ["lr_l1", "nb"])
    def test_predictions_identical_to_implicit(self, model_key, force_layout):
        dataset = star_dataset(n=150, n_r=5, d_s=2, d_r=3, seed=43)
        artifact = _train_served_model(force_layout, dataset, model_key)
        assert supports_factorized_serving(artifact.model)
        rows = _request_rows(dataset, 40, seed=47)
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        assert isinstance(server._scorer, FactorizedScorer)
        assert server.predict_batch(rows) == _gathered_predictions(
            server, rows
        )

    def test_unseen_fk_rows_serve_identically(self, force_layout):
        # Rows whose FK codes never appeared in the *training split*
        # still resolve (closed domain): both paths must agree.
        dataset = star_dataset(n=50, n_r=25, d_s=1, d_r=2, skew=True, seed=53)
        artifact = _train_served_model(force_layout, dataset)
        fact = dataset.schema.fact
        train_fk = set()
        unseen_rows = []
        fk_columns = [
            dataset.schema.constraint(name).fk_column
            for name in dataset.schema.dimension_names
        ]
        for fk in fk_columns:
            train_fk.update(fact.codes(fk)[dataset.train].tolist())
        base = _request_rows(dataset, 1)[0]
        for fk in fk_columns:
            domain = fact.domain(fk)
            for code in range(len(domain.labels)):
                if code not in train_fk:
                    row = dict(base)
                    row[fk] = domain.decode([code])[0]
                    unseen_rows.append(row)
        assert unseen_rows, "fixture must leave some FK codes unseen"
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        assert server.predict_batch(unseen_rows) == _gathered_predictions(
            server, unseen_rows
        )

    def test_served_prediction_does_no_per_row_dimension_work(
        self, monkeypatch, force_layout
    ):
        """The load-time precompute means serving never gathers: neither
        the row-gather assembly nor ``FactorizedMatrix.gather`` may run
        when the scorer serves a linear artifact."""
        dataset = star_dataset(n=120, n_r=5, d_s=2, d_r=3, seed=59)
        artifact = _train_served_model(force_layout, dataset)
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        rows = _request_rows(dataset, 12, seed=61)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "factorized serving touched a per-row dimension gather"
            )

        monkeypatch.setattr(ShardEncoder, "assemble", forbidden)
        monkeypatch.setattr(FactorizedMatrix, "gather", forbidden)
        single = [server.predict_one(r) for r in rows]
        batched = server.predict_batch(rows)
        assert single == batched
        labels = set(dataset.schema.fact.domain(dataset.schema.target).labels)
        assert set(single) <= labels

    def test_feature_selected_model_serves_a_blocked_batch(self, force_layout):
        """The scorer refuses feature-selected models, so they predict
        from the assembled matrix, which the plan blocks for a large
        batch: the selection gathers it before projecting."""
        dataset = star_dataset(n=3000, n_r=4, d_s=2, d_r=12, seed=107)
        matrices = join_all_strategy().matrices(dataset)
        model = BackwardSelection(CategoricalNB(alpha=1.0)).fit(
            matrices.X_train, matrices.y_train,
            matrices.X_validation, matrices.y_validation,
        )
        artifact = _artifact(model, matrices.X_train.names, dataset, "nb_bfs")
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        assert server._scorer is None
        fact = dataset.schema.fact
        assert isinstance(server.features.assemble_table(fact), FactorizedMatrix)
        planned = server.predict_table(fact)
        with force_layout("gather"):
            assert server.predict_table(fact) == planned

    def test_scorer_leaves_delegating_wrappers_alone(self, force_layout):
        """A fault-injecting wrapper delegates ``best_model_`` lookups
        to a tuned model; the scorer must not peel through it and skip
        the wrapper's own ``predict``."""
        from faultkit.faults import FaultInjectingModel

        dataset = star_dataset(n=100, n_r=5, d_s=2, d_r=3, seed=109)
        matrices = join_all_strategy().matrices(dataset)
        tuner = runner.PathTuner(nlambda=3).fit(
            matrices.X_train, matrices.y_train,
            matrices.X_validation, matrices.y_validation,
        )
        assert supports_factorized_serving(tuner)
        assert not supports_factorized_serving(FaultInjectingModel(tuner))

    def test_scorer_rejects_selection_wrapped_models(self):
        class Selected:
            selected_indices_ = (0, 1)

        assert not supports_factorized_serving(Selected())

    def test_scorer_codes_match_model_predict(self, force_layout):
        dataset = star_dataset(n=100, n_r=5, d_s=2, d_r=3, seed=67)
        artifact = _train_served_model(force_layout, dataset)
        encoder = ShardEncoder(dataset.schema, join_all_strategy())
        scorer = FactorizedScorer(artifact, encoder)
        rows = dataset.schema.fact.select(dataset.test)
        codes = {column: rows.codes(column) for column in encoder.required_columns}
        X_gathered, _ = encoder.encode_shard(rows)
        assert np.array_equal(
            scorer.predict_codes(codes, encoder.dimension_rows(codes)),
            artifact.model.predict(X_gathered),
        )

    def test_scorer_names_the_first_out_of_range_fact_feature(self, force_layout):
        """One range check covers every fact feature of a batch and names
        the first offending one in column order, wherever its bad row."""
        dataset = star_dataset(n=100, n_r=5, d_s=2, d_r=3, seed=67)
        artifact = _train_served_model(force_layout, dataset)
        encoder = ShardEncoder(dataset.schema, join_all_strategy())
        scorer = FactorizedScorer(artifact, encoder)
        rows = dataset.schema.fact.select(dataset.test)
        codes = {
            column: rows.codes(column).copy()
            for column in encoder.required_columns
        }
        first, second = scorer._fact_features[:2]
        levels = dict(zip(encoder.feature_names, encoder.n_levels))
        codes[second][0] = levels[second]
        codes[first][-1] = -1
        dim_rows = encoder.dimension_rows(codes)
        with pytest.raises(SchemaError, match=f"feature '{first}'"):
            scorer.predict_codes(codes, dim_rows)
        codes[first][-1] = 0
        with pytest.raises(SchemaError, match=f"feature '{second}'"):
            scorer.predict_codes(codes, dim_rows)


def _tampered(array: np.ndarray) -> np.ndarray:
    """The same shape and dtype with one value changed."""
    assert array.size, "every stored array carries data"
    if array.dtype.kind == "U":
        return np.char.add(array, "x")
    changed = array.copy()
    changed.flat[0] += 1
    return changed


class TestSourceSpecEngine:
    def test_spilled_factorized_shards_reload_bit_identically(
        self, tmp_path, force_layout
    ):
        dataset = star_dataset(n=120, n_r=4, d_s=1, d_r=2, seed=101)
        with force_layout("factorize"):
            spec = SourceSpec(shard_rows=40, spill_cache=tmp_path)
            source = spec.build(dataset, join_all_strategy(), "train")
            produced = [source.shard(i) for i in range(source.n_shards)]
            reloaded = [source.shard(i) for i in range(source.n_shards)]
        assert source.stats.hits == source.n_shards
        for (X, y), (X2, y2) in zip(produced, reloaded):
            assert isinstance(X2, FactorizedMatrix)
            assert X2.names == X.names and X2.n_levels == X.n_levels
            assert np.array_equal(X2.fact_positions, X.fact_positions)
            assert np.array_equal(X2.fact_codes, X.fact_codes)
            assert np.array_equal(y2, y) and y2.dtype == y.dtype
            assert len(X2.groups) == len(X.groups)
            for group, group2 in zip(X.groups, X2.groups):
                assert group2.name == group.name
                for field in ("positions", "dim_rows", "block"):
                    assert np.array_equal(
                        getattr(group2, field), getattr(group, field)
                    )

        # The CRC covers every stored array: change any one of them
        # (same shape and dtype) and the entry fails verification.
        path = tmp_path / "train" / "shard-00000000.npz"
        with np.load(path) as archive:
            stored = {name: archive[name] for name in archive.files}
        assert {"codes", "positions", "group_names", "y"} <= set(stored)
        for name in stored:
            if name == "crc":
                continue
            np.savez(path, **{**stored, name: _tampered(stored[name])})
            with pytest.raises(SpillCorruptionError, match="checksum"):
                source._load(0)
        source.close()

    def test_factorized_spec_builds_factorized_shards(self):
        """No option asks for it: the plan blocks the 4-row dimension
        once a shard has enough rows, and gathers it otherwise."""
        dataset = star_dataset(n=3000, n_r=4, d_s=1, d_r=12, seed=97)
        source = SourceSpec(shard_rows=2700).build(
            dataset, join_all_strategy(), "train"
        )
        shards = [source.shard(i) for i in range(source.n_shards)]
        assert [type(X) for X, _ in shards] == [
            FactorizedMatrix, CategoricalMatrix
        ]
        for X, y in shards:
            assert X.n_rows == y.shape[0]
        group = shards[0][0].groups[0]
        assert isinstance(group, FactorizedGroup)
        assert group.n_dim_rows == 4
