"""The FeatureSource protocol: adapters, specs, and the decorator contract.

The load-bearing assertion lives in :class:`TestDecoratorByteIdentity`:
*any* FeatureSource wrapped in ``SpillCacheSource`` (alone or under a
``RetryingSource``) yields byte-identical shards in the same order —
decorators change how shards are produced, never what they contain.
"""

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.data import (
    FeatureSource,
    MatrixSource,
    ShardEncoder,
    SourceSpec,
    SpillCacheSource,
    source_accuracy,
)
from repro.datasets import generate_real_world
from repro.streaming import StreamingMatrices

from faultkit.retry import RetryingSource, RetryPolicy


@pytest.fixture(scope="module")
def yelp():
    return generate_real_world("yelp", n_fact=240, seed=0)


@pytest.fixture(scope="module")
def matrices(yelp):
    return no_join_strategy().matrices(yelp)


class TestMatrixSource:
    def test_single_shard_metadata(self, matrices):
        source = MatrixSource(matrices.X_train, matrices.y_train)
        assert source.n_shards == 1
        assert source.n_rows == matrices.X_train.n_rows
        assert source.shard_rows == source.n_rows
        assert source.feature_names == matrices.X_train.names
        assert source.n_levels == matrices.X_train.n_levels
        assert source.onehot_width == matrices.X_train.onehot_width
        assert source.n_classes >= 2
        assert source.schema is None

    def test_single_shard_yields_same_object_every_pass(self, matrices):
        """In-memory passes re-yield the identical matrix object, not a
        copy, so reading a one-shard source costs no copy per pass."""
        source = MatrixSource(matrices.X_train, matrices.y_train)
        for _ in range(3):
            (X, y), = list(source)
            assert X is matrices.X_train

    def test_shard_rows_reports_the_true_bound(self, matrices):
        """Regression: 30 rows at shard_rows=25 slices [25, 5]; the
        protocol's 'upper bound on rows per shard' is 25, not the
        ceil(n/2)=15 the generic estimate would claim."""
        X = matrices.X_train.take_rows(np.arange(30))
        source = MatrixSource(X, matrices.y_train[:30], shard_rows=25)
        assert source.shard_rows == 25
        assert max(y.size for _, y in source._shards) <= source.shard_rows
        # An oversized request degenerates to one whole-matrix shard.
        assert MatrixSource(X, matrices.y_train[:30], shard_rows=999).shard_rows == 30

    def test_sharded_blocks_cover_matrix(self, matrices):
        source = MatrixSource(matrices.X_train, matrices.y_train, shard_rows=17)
        assert source.n_shards == -(-matrices.X_train.n_rows // 17)
        stacked = np.concatenate([X.codes for X, _ in source])
        np.testing.assert_array_equal(stacked, matrices.X_train.codes)
        np.testing.assert_array_equal(source.labels(), matrices.y_train)

    def test_iter_shards_honours_order(self, matrices):
        source = MatrixSource(matrices.X_train, matrices.y_train, shard_rows=20)
        order = np.arange(source.n_shards)[::-1]
        indices = [i for i, _, _ in source.iter_shards(order)]
        assert indices == list(order)

    def test_shard_index_out_of_range(self, matrices):
        source = MatrixSource(matrices.X_train, matrices.y_train)
        with pytest.raises(IndexError):
            source.shard(1)

    def test_validation(self, matrices):
        with pytest.raises(ValueError, match="labels"):
            MatrixSource(matrices.X_train, matrices.y_train[:-1])
        with pytest.raises(ValueError, match="shard_rows"):
            MatrixSource(matrices.X_train, matrices.y_train, shard_rows=0)

    def test_context_manager(self, matrices):
        with MatrixSource(matrices.X_train, matrices.y_train) as source:
            assert source.n_shards == 1


class TestStreamingMatricesIsAFeatureSource:
    def test_subclass_and_protocol(self, yelp):
        stream = no_join_strategy().streaming_matrices(yelp, shard_rows=31)
        assert isinstance(stream, FeatureSource)
        assert stream.schema is yelp.schema
        assert stream.shard_rows == 31
        X, y = stream.shard(0)
        assert X.n_rows == y.size

    def test_shards_are_blocks_of_inmemory_matrix(self, yelp):
        strategy = join_all_strategy()
        matrices = strategy.matrices(yelp)
        # The in-memory matrices are split-row selections of the full
        # table; streaming over the train split must reproduce the
        # train block bit for bit.
        stream = strategy.streaming_matrices(yelp, shard_rows=23)
        stacked = np.concatenate([X.codes for X, _ in stream])
        np.testing.assert_array_equal(stacked, matrices.X_train.codes)

    def test_encoder_is_shared_path(self, yelp):
        """The shard encode path is literally the serving encoder."""
        stream = no_join_strategy().streaming_matrices(yelp, shard_rows=23)
        assert isinstance(stream.encoder, ShardEncoder)
        # Dimension indexes are cached across shards: at most one build
        # per joined dimension, however many shards stream through.
        list(stream)
        list(stream)
        assert stream.encoder.cache.stats.builds <= len(
            stream.encoder.joined_dimensions
        )


def _shards_equal(a, b):
    """Byte-identical shard streams: same order, codes, labels, metadata."""
    a_list = list(a.iter_shards())
    b_list = list(b.iter_shards())
    assert len(a_list) == len(b_list)
    for (ia, Xa, ya), (ib, Xb, yb) in zip(a_list, b_list):
        assert ia == ib
        assert Xa.names == Xb.names
        assert Xa.n_levels == Xb.n_levels
        np.testing.assert_array_equal(Xa.codes, Xb.codes)
        np.testing.assert_array_equal(ya, yb)


class TestDecoratorByteIdentity:
    """Wrapping any source in any decorator stack changes nothing."""

    @pytest.fixture()
    def sources(self, yelp, matrices, tmp_path):
        return {
            "matrix": lambda: MatrixSource(
                matrices.X_train, matrices.y_train, shard_rows=13
            ),
            "streaming": lambda: no_join_strategy().streaming_matrices(
                yelp, shard_rows=29
            ),
        }

    @pytest.mark.parametrize("kind", ["matrix", "streaming"])
    def test_spill_identity(self, sources, kind, tmp_path):
        with SpillCacheSource(
            sources[kind](), directory=tmp_path / kind
        ) as spilled:
            _shards_equal(sources[kind](), spilled)
            # Second pass comes from disk; still identical.
            _shards_equal(sources[kind](), spilled)
            assert spilled.stats.hits > 0

    @pytest.mark.parametrize("kind", ["matrix", "streaming"])
    def test_stacked_decorators_identity(self, sources, kind):
        with RetryingSource(
            SpillCacheSource(sources[kind]()), RetryPolicy()
        ) as stacked:
            _shards_equal(sources[kind](), stacked)
            _shards_equal(sources[kind](), stacked)

    def test_decorators_delegate_metadata(self, matrices):
        inner = MatrixSource(matrices.X_train, matrices.y_train, shard_rows=13)
        with RetryingSource(SpillCacheSource(inner), RetryPolicy()) as stacked:
            for attribute in (
                "feature_names", "n_levels", "n_rows", "n_shards",
                "shard_rows", "n_classes", "onehot_width", "n_features",
            ):
                assert getattr(stacked, attribute) == getattr(inner, attribute)
            np.testing.assert_array_equal(stacked.labels(), inner.labels())


class TestOutOfCoreSources:
    """Population- and CSV-backed sources speak the same protocol."""

    @pytest.fixture()
    def csv_stream(self, tmp_path):
        rng = np.random.default_rng(3)
        dim = tmp_path / "vendors.csv"
        dim.write_text(
            "vendor,region\n" + "".join(f"v{i},r{i % 3}\n" for i in range(8))
        )
        fact = tmp_path / "orders.csv"
        fact.write_text(
            "churn,channel,vendor\n"
            + "".join(
                f"c{rng.integers(0, 2)},ch{rng.integers(0, 3)},"
                f"v{rng.integers(0, 8)}\n"
                for _ in range(90)
            )
        )
        from repro.streaming import ShardedDataset

        sharded = ShardedDataset.from_csv(
            fact, target="churn",
            dimensions=[(dim, "vendor", "vendor")], shard_rows=20,
        )
        return lambda: StreamingMatrices(sharded, join_all_strategy())

    def test_csv_source_through_decorators(self, csv_stream):
        stream = csv_stream()
        assert isinstance(stream, FeatureSource)
        assert stream.n_rows == 90 and stream.n_shards == 5
        with SpillCacheSource(csv_stream()) as cached:
            _shards_equal(stream, cached)
            # The payoff case: a second pass never re-reads the CSV.
            _shards_equal(stream, cached)
            assert cached.stats.hits >= stream.n_shards

    def test_population_source_through_decorators(self):
        from repro.datasets import OneXrScenario
        from repro.streaming import ShardedDataset

        population = OneXrScenario(n_r=6).population()
        sharded = ShardedDataset.from_population(
            population, n_rows=120, shard_rows=25, seed=7
        )
        stream = StreamingMatrices(sharded, join_all_strategy())
        with SpillCacheSource(StreamingMatrices(sharded, join_all_strategy())) as c:
            _shards_equal(stream, c)
            _shards_equal(stream, c)


class TestSourceSpec:
    def test_rejects_contradictory_layout(self):
        with pytest.raises(ValueError, match="exactly one"):
            SourceSpec(shard_rows=10, n_shards=2)

    def test_rejects_nonpositive_values(self):
        for kwargs in ({"shard_rows": 0}, {"n_shards": 0}):
            with pytest.raises(ValueError, match=">= 1"):
                SourceSpec(**kwargs)

    def test_memory_spec_builds_matrix_sources(self, yelp):
        sources = SourceSpec().split_sources(yelp, no_join_strategy())
        assert set(sources) == {"train", "validation", "test"}
        assert all(isinstance(s, MatrixSource) for s in sources.values())
        assert sources["train"].n_rows == yelp.train.size
        assert not SourceSpec().streaming

    def test_sharded_spec_builds_streaming_sources(self, yelp):
        spec = SourceSpec(shard_rows=19)
        sources = spec.split_sources(yelp, no_join_strategy())
        assert all(isinstance(s, StreamingMatrices) for s in sources.values())
        assert sources["train"].shard_rows == 19
        assert spec.streaming

    def test_splits_share_one_dimension_index_cache(self, yelp):
        strategy = join_all_strategy()
        sources = SourceSpec(shard_rows=19).split_sources(yelp, strategy)
        encoders = {id(s.encoder) for s in sources.values()}
        assert len(encoders) == 1
        for source in sources.values():
            list(source)
        # Every dimension's index built once per experiment, not per split.
        cache = sources["train"].encoder.cache
        assert cache.stats.builds == len(sources["train"].encoder.joined_dimensions)

    def test_mismatched_shared_encoder_rejected(self, yelp):
        from repro.data import ShardEncoder
        from repro.streaming import ShardedDataset

        encoder = ShardEncoder(yelp.schema, join_all_strategy())
        with pytest.raises(ValueError, match="different"):
            StreamingMatrices(
                ShardedDataset.from_split(yelp, shard_rows=19),
                no_join_strategy(),
                encoder=encoder,
            )

    def test_decorated_spec_wraps_in_order(self, yelp):
        spec = SourceSpec(shard_rows=19, spill_cache=True)
        source = spec.build(yelp, no_join_strategy())
        try:
            assert isinstance(source, SpillCacheSource)
            assert isinstance(source.source, StreamingMatrices)
        finally:
            source.close()

    def test_describe(self):
        assert SourceSpec().describe() == {"streaming": False}
        described = SourceSpec(n_shards=4, spill_cache=True).describe()
        assert described == {"streaming": True, "spill_cache": True}

    def test_explicit_spill_dir_is_namespaced_per_split(self, yelp, tmp_path):
        """Regression: splits sharing one explicit cache directory must
        not collide on shard file names (train shard-0 vs test shard-0)."""
        spec = SourceSpec(shard_rows=19, spill_cache=tmp_path / "cache")
        sources = spec.split_sources(yelp, no_join_strategy())
        try:
            directories = {s.directory for s in sources.values()}
            assert len(directories) == 3
            # Warm every cache, then re-read: each split must get its
            # own rows back, not another split's.
            for split, source in sources.items():
                list(source.iter_shards())
            fresh = SourceSpec(shard_rows=19).split_sources(
                yelp, no_join_strategy()
            )
            for split in sources:
                np.testing.assert_array_equal(
                    sources[split].labels(), fresh[split].labels()
                )
                _shards_equal(fresh[split], sources[split])
        finally:
            for source in sources.values():
                source.close()


class TestSourceAccuracy:
    def test_matches_full_matrix_accuracy(self, matrices):
        from repro.ml import CategoricalNB

        model = CategoricalNB().fit(matrices.X_train, matrices.y_train)
        full = model.score(matrices.X_test, matrices.y_test)
        sharded = source_accuracy(
            model, MatrixSource(matrices.X_test, matrices.y_test, shard_rows=7)
        )
        assert sharded == full

    def test_empty_source_raises(self, matrices):
        from repro.ml import CategoricalNB

        model = CategoricalNB().fit(matrices.X_train, matrices.y_train)
        empty = MatrixSource(matrices.X_train.take_rows(np.arange(0)),
                             matrices.y_train[:0])
        with pytest.raises(ValueError, match="empty"):
            source_accuracy(model, empty)
