"""SpillCacheSource: disk round-trips, byte budget, lifecycle."""

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource, SpillCacheSource
from repro.datasets import generate_real_world


@pytest.fixture(scope="module")
def train_matrix():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    matrices = no_join_strategy().matrices(dataset)
    return matrices.X_train, matrices.y_train


class _CountingSource(MatrixSource):
    """Counts how often each shard is produced by the inner source."""

    def __init__(self, X, y, shard_rows):
        super().__init__(X, y, shard_rows=shard_rows)
        self.produced: dict[int, int] = {}

    def shard(self, index):
        self.produced[index] = self.produced.get(index, 0) + 1
        return super().shard(index)


class TestCaching:
    def test_second_pass_reads_from_disk(self, train_matrix):
        inner = _CountingSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner) as cached:
            first = [(X.codes.copy(), y.copy()) for _, X, y in cached.iter_shards()]
            second = [(X.codes.copy(), y.copy()) for _, X, y in cached.iter_shards()]
        # Every shard produced exactly once; pass 2 was all cache hits.
        assert all(count == 1 for count in inner.produced.values())
        assert cached.stats.misses == inner.n_shards
        assert cached.stats.hits == inner.n_shards
        for (codes_a, y_a), (codes_b, y_b) in zip(first, second):
            np.testing.assert_array_equal(codes_a, codes_b)
            np.testing.assert_array_equal(y_a, y_b)

    def test_cached_dtype_and_values_roundtrip(self, train_matrix):
        with SpillCacheSource(MatrixSource(*train_matrix, shard_rows=13)) as c:
            X_first, y_first = c.shard(2)
            X_again, y_again = c.shard(2)
        assert X_again.codes.dtype == X_first.codes.dtype == np.int64
        np.testing.assert_array_equal(X_first.codes, X_again.codes)
        np.testing.assert_array_equal(y_first, y_again)
        assert X_again.names == X_first.names
        assert X_again.n_levels == X_first.n_levels

    def test_single_shard_source_passes_straight_through(self, train_matrix):
        """Regression: spilling a single-shard source must not replace
        its resident (identity-stable) shard with per-pass disk loads —
        that would defeat the encoding memo on every FISTA iteration."""
        inner = MatrixSource(*train_matrix)
        with SpillCacheSource(inner) as cached:
            (X1, _), (X2, _) = cached.shard(0), cached.shard(0)
            assert X1 is X2 is train_matrix[0]
            assert len(cached) == 0  # nothing spilled
            assert not list(cached.directory.glob("shard-*.npz"))

    def test_random_access_caches_too(self, train_matrix):
        inner = _CountingSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner) as cached:
            cached.shard(3)
            cached.shard(3)
            cached.shard(3)
        assert inner.produced == {3: 1}


class TestLRUBudget:
    def test_eviction_keeps_bytes_under_budget(self, train_matrix):
        """Nothing is evicted: the shards admitted while there was room
        stay, so every later pass of a sequential scan hits on them (an
        LRU evicted each shard just before the next pass read it)."""
        inner = MatrixSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner) as probe:
            probe.shard(0)
            one_shard_bytes = probe.stats.spilled_bytes
        budget = int(one_shard_bytes * 2.5)  # room for two full shards
        passes = 3
        with SpillCacheSource(inner, max_bytes=budget) as cached:
            list(cached.iter_shards())
            admitted = len(cached)
            assert 2 <= admitted < inner.n_shards
            assert cached.stats.spilled_bytes <= budget
            for _ in range(passes - 1):
                list(cached.iter_shards())
            assert len(cached) == admitted
            assert cached.stats.hits == admitted * (passes - 1)
            assert cached.stats.misses == (
                inner.n_shards + (inner.n_shards - admitted) * (passes - 1)
            )

    def test_budget_smaller_than_one_shard_disables_caching(self, train_matrix):
        inner = _CountingSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner, max_bytes=1) as cached:
            cached.shard(0)
            cached.shard(0)
            assert len(cached) == 0
        assert inner.produced[0] == 2

    def test_max_bytes_validation(self, train_matrix):
        with pytest.raises(ValueError, match="max_bytes"):
            SpillCacheSource(MatrixSource(*train_matrix), max_bytes=0)


class TestLifecycle:
    def test_owned_tempdir_removed_on_close(self, train_matrix):
        cached = SpillCacheSource(MatrixSource(*train_matrix, shard_rows=11))
        directory = cached.directory
        cached.shard(0)
        assert any(directory.iterdir())
        cached.close()
        assert not directory.exists()
        with pytest.raises(ValueError, match="closed"):
            cached.shard(0)

    def test_explicit_directory_left_in_place(self, train_matrix, tmp_path):
        spill_dir = tmp_path / "cache"
        cached = SpillCacheSource(
            MatrixSource(*train_matrix, shard_rows=11), directory=spill_dir
        )
        cached.shard(0)
        cached.close()
        assert spill_dir.exists()  # directory kept, shard files removed
        assert not list(spill_dir.glob("shard-*.npz"))

    def test_close_is_idempotent(self, train_matrix):
        cached = SpillCacheSource(MatrixSource(*train_matrix, shard_rows=11))
        cached.close()
        cached.close()


class TestTrainingThroughSpill:
    def test_multi_pass_lr_hits_cache_and_matches(self, train_matrix):
        """Exact FISTA makes one pass per iteration and re-reads every
        shard past its residency cap; those re-reads must be disk hits,
        and the fit must be bit-identical."""
        from repro.ml.linear import L1LogisticRegression
        from repro.ml.linear.logistic import RESIDENT_SHARDS

        X, y = train_matrix
        reference = L1LogisticRegression(max_iter=30, tol=0.0)
        reference.fit_stream(MatrixSource(X, y, shard_rows=7))
        inner = _CountingSource(X, y, shard_rows=7)
        assert inner.n_shards > RESIDENT_SHARDS
        model = L1LogisticRegression(max_iter=30, tol=0.0)
        with SpillCacheSource(inner) as cached:
            model.fit_stream(cached)
            assert all(count == 1 for count in inner.produced.values())
            assert cached.stats.hits > cached.stats.misses
        assert np.array_equal(reference.coef_, model.coef_)
        assert reference.intercept_ == model.intercept_
