"""Shard-plan and shard-source edge cases for repro.streaming."""

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.datasets import OneXrScenario, generate_real_world
from repro.errors import CSVIntegrityError, ReferentialIntegrityError, SchemaError
from repro.ml.neural import MLPClassifier
from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
)
from repro.streaming import (
    ShardedDataset,
    ShardPlan,
    StreamingMatrices,
    StreamingTrainer,
    plan_shards,
)


class TestShardPlan:
    def test_no_empty_final_shard_when_divisible(self):
        plan = plan_shards(100, shard_rows=25)
        assert plan.n_shards == 4
        assert plan.shard_sizes() == [25, 25, 25, 25]

    def test_short_final_shard(self):
        plan = plan_shards(103, shard_rows=25)
        assert plan.n_shards == 5
        assert plan.shard_sizes() == [25, 25, 25, 25, 3]
        assert all(size >= 1 for size in plan.shard_sizes())

    def test_shard_larger_than_table_degenerates_to_one(self):
        plan = plan_shards(10, shard_rows=10_000)
        assert plan.n_shards == 1
        assert plan.shard_sizes() == [10]

    def test_n_shards_spec(self):
        plan = plan_shards(10, n_shards=3)
        assert plan.n_shards == 3
        assert sum(plan.shard_sizes()) == 10

    def test_zero_rows_zero_shards(self):
        assert plan_shards(0, shard_rows=8).n_shards == 0

    def test_rejects_both_specs(self):
        with pytest.raises(ValueError, match="not both"):
            plan_shards(10, shard_rows=2, n_shards=2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ShardPlan(n_rows=10, shard_rows=0)
        with pytest.raises(ValueError):
            plan_shards(10, n_shards=0)

    def test_bounds_range_checked(self):
        plan = plan_shards(10, shard_rows=4)
        with pytest.raises(IndexError):
            plan.bounds(3)


class TestShardSources:
    def test_split_shards_cover_exact_rows(self):
        dataset = generate_real_world("yelp", n_fact=200, seed=0)
        sharded = ShardedDataset.from_split(dataset, shard_rows=23)
        rows = np.concatenate(
            [shard.fact.codes(dataset.schema.target)
             for shard in sharded.iter_shards()]
        )
        assert np.array_equal(rows, dataset.labels("train"))

    def test_shard_size_larger_than_table_trains_identically(self):
        dataset = generate_real_world("yelp", n_fact=120, seed=1)
        strategy = no_join_strategy()
        big = strategy.streaming_matrices(dataset, shard_rows=10_000)
        one = strategy.streaming_matrices(dataset, n_shards=1)
        assert big.n_shards == one.n_shards == 1
        X_big, y_big = big.shard(0)
        X_one, y_one = one.shard(0)
        assert np.array_equal(X_big.codes, X_one.codes)
        assert np.array_equal(y_big, y_one)

    def test_population_shards_deterministic_across_passes(self):
        population = OneXrScenario(n_train=64, n_r=8).population(3)
        sharded = ShardedDataset.from_population(
            population, n_rows=50, shard_rows=16, seed=9
        )
        first = [s.fact.codes("FK").copy() for s in sharded.iter_shards()]
        second = [s.fact.codes("FK").copy() for s in sharded.iter_shards()]
        assert len(first) == 4
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_population_random_access_matches_scan(self):
        population = OneXrScenario(n_train=64, n_r=8).population(3)
        sharded = ShardedDataset.from_population(
            population, n_rows=40, shard_rows=16, seed=9
        )
        scanned = list(sharded.iter_shards())
        direct = sharded.shard(2)
        assert np.array_equal(
            scanned[2].fact.codes("FK"), direct.fact.codes("FK")
        )

    def test_loader_row_count_mismatch_detected(self):
        dataset = generate_real_world("yelp", n_fact=120, seed=0)
        sharded = ShardedDataset.from_split(dataset, shard_rows=20)
        sharded._loader = lambda i: dataset.schema.fact.select(np.arange(3))
        with pytest.raises(SchemaError, match="plan expects"):
            sharded.shard(0)


def _dangling_fk_schema() -> StarSchema:
    """Fact rows whose *last* block references a missing dimension key.

    The shared key domain has a label the dimension never defines, so
    the schema only survives construction with ``validate=False`` —
    exactly the situation a late shard of an unvalidated out-of-core
    source can produce.
    """
    keys = Domain(["a", "b", "ghost"])
    fact = Table(
        "S",
        [
            CategoricalColumn("Y", Domain.boolean(), [0, 1] * 10),
            CategoricalColumn(
                "FK", keys, [0, 1] * 9 + [2, 2]  # dangling rows at the end
            ),
        ],
    )
    dim = Table(
        "R",
        [
            CategoricalColumn("RID", keys, [0, 1]),
            CategoricalColumn("Xr", Domain.boolean(), [0, 1]),
        ],
    )
    return StarSchema(
        fact=fact,
        target="Y",
        dimensions=[(dim, KFKConstraint("FK", "R", "RID"))],
        validate=False,
    )


class TestShardEdgeBehaviour:
    def test_dangling_fk_in_late_shard_names_shard_index(self):
        schema = _dangling_fk_schema()
        sharded = ShardedDataset.from_table(schema, shard_rows=8)
        stream = StreamingMatrices(sharded, join_all_strategy())
        # Early shards are clean; the dangling keys sit in shard 2.
        stream.shard(0)
        stream.shard(1)
        with pytest.raises(ReferentialIntegrityError, match="shard 2"):
            stream.shard(2)
        with pytest.raises(ReferentialIntegrityError, match="shard 2"):
            list(stream)

    def test_single_class_shard_still_trains(self):
        rng = np.random.default_rng(0)
        n = 60
        labels = np.zeros(n, dtype=np.int64)
        labels[40:] = 1  # sorted: the first shards see only class 0
        fact = Table(
            "S",
            [
                CategoricalColumn("Y", Domain.boolean(), labels),
                CategoricalColumn(
                    "X", Domain.of_size(4), rng.integers(0, 4, size=n)
                ),
            ],
        )
        schema = StarSchema(fact=fact, target="Y", dimensions=[])
        sharded = ShardedDataset.from_table(schema, shard_rows=20)
        stream = StreamingMatrices(sharded, join_all_strategy())
        assert stream.n_classes == 2
        model = MLPClassifier(hidden_sizes=(4,), epochs=2, random_state=0)
        # Seed 1 visits shard 0 first: the edge under test is a first
        # partial_fit that sees one class only.
        trainer = StreamingTrainer(model, seed=1)
        first = trainer._epoch_orders(stream.n_shards, model.epochs)[0][0]
        first_X, first_y = stream.shard(first)
        assert np.unique(first_y).size == 1
        trainer.fit(stream)
        assert model.n_classes_ == 2
        assert set(np.unique(model.predict(first_X))) <= {0, 1}

    def test_trainer_fit_restarts_partial_fit_models(self):
        a = generate_real_world("yelp", n_fact=160, seed=0)
        b = generate_real_world("yelp", n_fact=160, seed=7)
        stream_a = no_join_strategy().streaming_matrices(a, shard_rows=19)
        stream_b = no_join_strategy().streaming_matrices(b, shard_rows=19)
        reused = MLPClassifier(hidden_sizes=(4,), epochs=2, random_state=0)
        trainer = StreamingTrainer(reused, seed=1)
        trainer.fit(stream_a)
        trainer.fit(stream_b)  # must be a fresh fit, not a warm start
        fresh = MLPClassifier(hidden_sizes=(4,), epochs=2, random_state=0)
        StreamingTrainer(fresh, seed=1).fit(stream_b)
        for w_a, w_b in zip(reused.weights_, fresh.weights_):
            assert np.array_equal(w_a, w_b)

    def test_target_domain_wider_than_labels_keeps_bit_identity(self):
        rng = np.random.default_rng(0)
        n = 50
        wide_target = Domain(["no", "yes", "unheard-of"])
        fact = Table(
            "S",
            [
                CategoricalColumn("Y", wide_target, rng.integers(0, 2, size=n)),
                CategoricalColumn(
                    "X", Domain.of_size(4), rng.integers(0, 4, size=n)
                ),
            ],
        )
        schema = StarSchema(fact=fact, target="Y", dimensions=[])
        sharded = ShardedDataset.from_table(schema, n_shards=1)
        stream = StreamingMatrices(sharded, join_all_strategy())
        X, y = stream.shard(0)
        reference = MLPClassifier(hidden_sizes=(4,), epochs=1, random_state=0)
        reference.fit(X, y)
        streamed = MLPClassifier(hidden_sizes=(4,), epochs=1, random_state=0)
        StreamingTrainer(streamed, seed=5).fit(stream)
        # n_classes comes from the observed labels (2), not the wider
        # closed domain (3) — output layers match and weights agree.
        assert streamed.n_classes_ == reference.n_classes_ == 2
        for w_ref, w_s in zip(reference.weights_, streamed.weights_):
            assert np.array_equal(w_ref, w_s)

    def test_zero_row_stream_refuses_to_fit(self):
        dataset = generate_real_world("yelp", n_fact=120, seed=0)
        empty = dataset.schema.fact.select(np.zeros(0, dtype=np.int64))
        schema = StarSchema(
            fact=empty,
            target=dataset.schema.target,
            dimensions=[
                (dataset.schema.dimension(name), dataset.schema.constraint(name))
                for name in dataset.schema.dimension_names
            ],
            validate=False,
        )
        sharded = ShardedDataset.from_table(schema, shard_rows=10)
        stream = StreamingMatrices(sharded, no_join_strategy())
        with pytest.raises(ValueError, match="zero examples"):
            StreamingTrainer(MLPClassifier(hidden_sizes=(4,))).fit(stream)


class TestCsvSource:
    @pytest.fixture
    def star_csvs(self, tmp_path):
        rng = np.random.default_rng(5)
        n, n_r = 90, 6
        dim = tmp_path / "employers.csv"
        dim.write_text(
            "employer,state\n"
            + "".join(f"e{i},s{i % 3}\n" for i in range(n_r))
        )
        fact = tmp_path / "customers.csv"
        fact.write_text(
            "churn,gender,employer\n"
            + "".join(
                f"c{rng.integers(0, 2)},g{rng.integers(0, 2)},"
                f"e{rng.integers(0, n_r)}\n"
                for _ in range(n)
            )
        )
        return fact, dim

    def test_matches_eager_csv_schema(self, star_csvs):
        from repro.relational.io import star_schema_from_csv

        fact, dim = star_csvs
        sharded = ShardedDataset.from_csv(
            fact,
            target="churn",
            dimensions=[(dim, "employer", "employer")],
            shard_rows=17,
        )
        assert sharded.n_rows == 90
        assert sharded.n_shards == 6
        strategy = join_all_strategy()
        stream = StreamingMatrices(sharded, strategy)
        streamed_codes = np.concatenate(
            [X.codes for _, X, _ in stream.iter_shards()]
        )

        eager = star_schema_from_csv(
            fact, target="churn", dimensions=[(dim, "employer", "employer")]
        )
        from repro.ml.encoding import CategoricalMatrix
        from repro.relational.join import join_all

        full = CategoricalMatrix.from_table(
            join_all(eager), strategy.feature_names(eager)
        )
        assert stream.feature_names == full.names
        assert stream.n_levels == full.n_levels
        assert np.array_equal(streamed_codes, full.codes)

    def test_random_access_and_scan_agree(self, star_csvs):
        fact, dim = star_csvs
        sharded = ShardedDataset.from_csv(
            fact,
            target="churn",
            dimensions=[(dim, "employer", "employer")],
            shard_rows=40,
        )
        scanned = [s.fact.codes("employer").copy() for s in sharded.iter_shards()]
        assert np.array_equal(scanned[1], sharded.shard(1).fact.codes("employer"))

    def test_truncated_file_fails_sequential_scan(self, star_csvs):
        fact, dim = star_csvs
        sharded = ShardedDataset.from_csv(
            fact,
            target="churn",
            dimensions=[(dim, "employer", "employer")],
            shard_rows=17,
        )
        # Drop the last 50 data rows after the counting pass.
        lines = fact.read_text().splitlines(keepends=True)
        fact.write_text("".join(lines[:41]))
        with pytest.raises(
            SchemaError, match="plan expects|changed during streaming"
        ):
            list(sharded.iter_shards())

    def test_truncated_file_fails_random_access(self, star_csvs):
        fact, dim = star_csvs
        sharded = ShardedDataset.from_csv(
            fact,
            target="churn",
            dimensions=[(dim, "employer", "employer")],
            shard_rows=17,
        )
        lines = fact.read_text().splitlines(keepends=True)
        fact.write_text("".join(lines[:41]))
        with pytest.raises(SchemaError):
            sharded.shard(4)

    def test_truncation_between_passes_raises_named_error(self, star_csvs):
        """The satellite regression: a file truncated *after* a clean
        pass must fail the next pass with :class:`CSVIntegrityError`
        carrying the missing row's number and the EOF byte offset —
        not a bare ``StopIteration`` escaping the reader."""
        fact, dim = star_csvs
        sharded = ShardedDataset.from_csv(
            fact,
            target="churn",
            dimensions=[(dim, "employer", "employer")],
            shard_rows=17,
        )
        # First pass over the intact file is clean.
        assert sum(s.fact.n_rows for s in sharded.iter_shards()) == 90
        lines = fact.read_text().splitlines(keepends=True)
        fact.write_text("".join(lines[:41]))  # 40 data rows remain
        with pytest.raises(CSVIntegrityError, match="truncated") as info:
            sharded.shard(2)  # rows 34..51: runs off the new EOF
        error = info.value
        assert error.path == fact
        assert error.row == 41  # the first missing data row
        assert error.byte_offset == fact.stat().st_size
        assert "data row 41" in str(error)

    def test_mutated_row_between_passes_names_location(self, star_csvs):
        fact, dim = star_csvs
        sharded = ShardedDataset.from_csv(
            fact,
            target="churn",
            dimensions=[(dim, "employer", "employer")],
            shard_rows=17,
        )
        list(sharded.iter_shards())
        lines = fact.read_text().splitlines(keepends=True)
        lines[10] = "c0,g1\n"  # data row 10 loses a field
        fact.write_text("".join(lines))
        with pytest.raises(
            CSVIntegrityError, match="expected 3 fields, got 2"
        ) as info:
            sharded.shard(0)
        error = info.value
        assert error.row == 10
        assert error.byte_offset == len("".join(lines[:10]).encode())
        # The sequential scan path reports the same typed error.
        with pytest.raises(CSVIntegrityError):
            list(sharded.iter_shards())

    def test_quoted_newlines_survive_seek_based_access(self, tmp_path):
        dim = tmp_path / "dim.csv"
        dim.write_text("k,v\na,1\nb,2\n")
        fact = tmp_path / "fact.csv"
        rows = []
        for i in range(12):
            label = f'"multi\nline {i}"' if i % 3 == 0 else f"plain{i}"
            rows.append(f"{i % 2},{'a' if i % 2 else 'b'},{label}\n")
        fact.write_text("y,fk,note\n" + "".join(rows))
        sharded = ShardedDataset.from_csv(
            fact, target="y", dimensions=[(dim, "fk", "k")], shard_rows=5
        )
        assert sharded.n_rows == 12
        scanned = [s.fact.codes("note").copy() for s in sharded.iter_shards()]
        for i, codes in enumerate(scanned):
            assert np.array_equal(codes, sharded.shard(i).fact.codes("note"))

    def test_empty_fact_csv_rejected_clearly(self, tmp_path):
        dim = tmp_path / "dim.csv"
        dim.write_text("k,v\na,1\n")
        fact = tmp_path / "fact.csv"
        fact.write_text("y,fk\n")
        with pytest.raises(SchemaError, match="no data rows"):
            ShardedDataset.from_csv(
                fact, target="y", dimensions=[(dim, "fk", "k")], shard_rows=4
            )

    def test_dangling_fk_in_csv_names_shard(self, tmp_path):
        dim = tmp_path / "dim.csv"
        dim.write_text("k,v\na,1\nb,2\n")
        fact = tmp_path / "fact.csv"
        fact.write_text(
            "y,fk\n" + "0,a\n1,b\n" * 10 + "1,ghost\n"
        )
        sharded = ShardedDataset.from_csv(
            fact, target="y", dimensions=[(dim, "fk", "k")], shard_rows=8
        )
        stream = StreamingMatrices(sharded, join_all_strategy())
        stream.shard(0)
        with pytest.raises(ReferentialIntegrityError, match="shard 2"):
            list(stream)


class TestStreamingMatricesShape:
    def test_shape_known_without_reading_shards(self):
        dataset = generate_real_world("movies", n_fact=200, seed=0)
        strategy = join_all_strategy()
        stream = strategy.streaming_matrices(dataset, shard_rows=32)
        matrices = strategy.matrices(dataset)
        assert stream.feature_names == matrices.X_train.names
        assert stream.n_levels == matrices.X_train.n_levels
        assert stream.onehot_width == matrices.X_train.onehot_width
        assert stream.n_rows == matrices.X_train.n_rows

    def test_shards_are_row_blocks_of_inmemory_matrix(self):
        dataset = generate_real_world("movies", n_fact=200, seed=0)
        strategy = join_all_strategy()
        stream = strategy.streaming_matrices(dataset, shard_rows=32)
        full = strategy.matrices(dataset).X_train
        start = 0
        for _, X, y in stream.iter_shards():
            stop = start + X.n_rows
            assert np.array_equal(X.codes, full.codes[start:stop])
            start = stop
        assert start == full.n_rows

    def test_labels_accumulate_in_order(self):
        dataset = generate_real_world("movies", n_fact=150, seed=0)
        stream = no_join_strategy().streaming_matrices(dataset, shard_rows=11)
        assert np.array_equal(stream.labels(), dataset.labels("train"))

    def test_single_shard_assembly_is_cached_across_passes(self):
        dataset = generate_real_world("movies", n_fact=150, seed=0)
        stream = join_all_strategy().streaming_matrices(dataset, n_shards=1)
        X1, y1 = stream.shard(0)
        X2, y2 = next(iter(stream))
        assert X1 is X2  # multi-pass consumers must not re-join
        assert y1 is y2
