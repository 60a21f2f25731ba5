"""ProcessPrefetchingSource: byte-identity, lifecycle, worker death,
and the streaming trainer's ``parallel_workers`` that runs on it.

The process tier's contract mirrors the thread tier's — identical
bytes in identical order — with two extra hazards pinned here:

- every shared-memory segment a pass creates must be gone when the
  pass ends, however it ends (exhaustion, cancellation, or a worker
  killed mid-stripe);
- a dead worker degrades the pass to inline reads of its stripe, never
  to wrong or missing shards.

The CI ``process-stress`` job re-runs this file under
``PYTHONDEVMODE=1`` with the ``spawn`` start method forced.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource
from repro.datasets import generate_real_world
from repro.ml import L1LogisticRegression, MLPClassifier
from repro.ml.linear import logistic
from repro.obs import MetricsRegistry
from repro.parallel import ProcessPrefetchingSource, export_shard, import_shard, release, sweep
from repro.resilience import RetryPolicy
from repro.streaming import StreamingTrainer


@pytest.fixture(scope="module")
def matrices():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    return no_join_strategy().matrices(dataset)


@pytest.fixture(scope="module")
def train_matrix(matrices):
    return matrices.X_train, matrices.y_train


@pytest.fixture(scope="module")
def source(matrices):
    return MatrixSource(matrices.X_train, matrices.y_train, shard_rows=23)


def _shm_orphans():
    """Names of this process's prefetch segments still in /dev/shm."""
    prefix = f"reprop{os.getpid()}"
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return [name for name in entries if name.startswith(prefix)]


def _assert_same_fit(reference, candidate):
    assert np.array_equal(reference.coef_, candidate.coef_)
    assert reference.intercept_ == candidate.intercept_
    assert reference.n_iter_ == candidate.n_iter_


def _materialise(source, order=None):
    return [
        (index, X.codes.tobytes(), tuple(X.n_levels), y.tobytes())
        for index, X, y in source.iter_shards(order)
    ]


class TestByteIdentity:
    def test_matches_serial_in_order(self, train_matrix):
        X, y = train_matrix
        serial = _materialise(MatrixSource(X, y, shard_rows=23))
        parallel = _materialise(
            ProcessPrefetchingSource(
                MatrixSource(X, y, shard_rows=23), workers=2
            )
        )
        assert parallel == serial
        assert _shm_orphans() == []

    def test_matches_serial_under_permuted_order(self, train_matrix):
        X, y = train_matrix
        base = MatrixSource(X, y, shard_rows=23)
        order = np.random.default_rng(7).permutation(base.n_shards)
        serial = _materialise(MatrixSource(X, y, shard_rows=23), order)
        parallel = _materialise(
            ProcessPrefetchingSource(base, workers=3, depth=1), order
        )
        assert parallel == serial
        assert _shm_orphans() == []

    def test_spawn_start_method_matches(self, train_matrix):
        X, y = train_matrix
        serial = _materialise(MatrixSource(X, y, shard_rows=60))
        parallel = _materialise(
            ProcessPrefetchingSource(
                MatrixSource(X, y, shard_rows=60),
                workers=1,
                start_method="spawn",
            )
        )
        assert parallel == serial
        assert _shm_orphans() == []

    def test_repeated_passes_are_stable(self, train_matrix):
        X, y = train_matrix
        source = ProcessPrefetchingSource(
            MatrixSource(X, y, shard_rows=40), workers=2
        )
        assert _materialise(source) == _materialise(source)
        assert _shm_orphans() == []


class TestLifecycle:
    def test_cancellation_reclaims_segments_and_workers(self, train_matrix):
        X, y = train_matrix
        source = ProcessPrefetchingSource(
            MatrixSource(X, y, shard_rows=11), workers=2, depth=2
        )
        it = source.iter_shards()
        next(it)
        next(it)
        it.close()
        assert _shm_orphans() == []
        assert not [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("repro-pprefetch")
        ]

    def test_empty_order_is_a_noop(self, train_matrix):
        X, y = train_matrix
        source = ProcessPrefetchingSource(MatrixSource(X, y, shard_rows=11))
        assert list(source.iter_shards([])) == []
        assert _shm_orphans() == []

    def test_consumer_error_mid_pass_reclaims_segments(self, train_matrix):
        X, y = train_matrix
        source = ProcessPrefetchingSource(
            MatrixSource(X, y, shard_rows=11), workers=2
        )
        with pytest.raises(RuntimeError, match="consumer bailed"):
            for position, (_, _, _) in enumerate(source.iter_shards()):
                if position == 1:
                    raise RuntimeError("consumer bailed")
        assert _shm_orphans() == []

    def test_parameter_validation(self, train_matrix):
        X, y = train_matrix
        base = MatrixSource(X, y, shard_rows=11)
        with pytest.raises(ValueError, match="workers"):
            ProcessPrefetchingSource(base, workers=0)
        with pytest.raises(ValueError, match="depth"):
            ProcessPrefetchingSource(base, depth=0)

    def test_shard_counter_counts_process_shards(self, train_matrix):
        X, y = train_matrix
        registry = MetricsRegistry()
        base = MatrixSource(X, y, shard_rows=23)
        source = ProcessPrefetchingSource(base, workers=2, registry=registry)
        consumed = len(_materialise(source))
        assert consumed == base.n_shards
        assert registry.get("parallel.prefetch.shards").value == consumed


class TestWorkerDeath:
    def test_dead_worker_falls_back_inline_byte_identical(self, train_matrix):
        X, y = train_matrix
        serial = _materialise(MatrixSource(X, y, shard_rows=11))
        registry = MetricsRegistry()
        source = ProcessPrefetchingSource(
            MatrixSource(X, y, shard_rows=11),
            workers=2,
            registry=registry,
            _kill_after={0: 1},
        )
        assert _materialise(source) == serial
        assert registry.get("parallel.prefetch.worker_deaths").value >= 1
        assert registry.get("parallel.prefetch.fallback_shards").value >= 1
        assert _shm_orphans() == []

    def test_immediate_death_serves_whole_stripe_inline(self, train_matrix):
        X, y = train_matrix
        serial = _materialise(MatrixSource(X, y, shard_rows=23))
        source = ProcessPrefetchingSource(
            MatrixSource(X, y, shard_rows=23),
            workers=2,
            _kill_after={0: 0, 1: 0},
        )
        assert _materialise(source) == serial
        assert _shm_orphans() == []

    def test_fallback_reads_go_through_retry_policy(self, train_matrix):
        X, y = train_matrix
        registry = MetricsRegistry()
        source = ProcessPrefetchingSource(
            MatrixSource(X, y, shard_rows=23),
            workers=2,
            registry=registry,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0005, seed=0
            ),
            _kill_after={0: 0},
        )
        assert _materialise(source) == _materialise(
            MatrixSource(X, y, shard_rows=23)
        )
        assert registry.get("parallel.prefetch.worker_deaths").value == 1


class TestSharedMemoryTransport:
    def test_export_import_round_trip(self, train_matrix):
        X, y = train_matrix
        index, shard_X, shard_y = next(
            iter(MatrixSource(X, y, shard_rows=31).iter_shards())
        )
        handle = export_shard("reprop-test-roundtrip", index, shard_X, shard_y)
        try:
            shm, X_view, y_view = import_shard(handle)
        except BaseException:
            sweep([handle.segment])
            raise
        assert np.array_equal(X_view.codes, shard_X.codes)
        assert tuple(X_view.n_levels) == tuple(shard_X.n_levels)
        assert list(X_view.names) == list(shard_X.names)
        assert np.array_equal(y_view, shard_y)
        release(shm)
        assert "reprop-test-roundtrip" not in (
            os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []
        )

    def test_views_are_borrowed_until_release(self, train_matrix):
        """The views are the segment's: copies survive release, and the
        segment name is gone the moment it is released."""
        X, y = train_matrix
        index, shard_X, shard_y = next(
            iter(MatrixSource(X, y, shard_rows=31).iter_shards())
        )
        handle = export_shard("reprop-test-borrow", index, shard_X, shard_y)
        shm, X_view, y_view = import_shard(handle)
        codes_copy = X_view.codes.copy()
        labels_copy = y_view.copy()
        release(shm)
        release(shm)  # idempotent
        assert np.array_equal(codes_copy, shard_X.codes)
        assert np.array_equal(labels_copy, shard_y)
        assert "reprop-test-borrow" not in (
            os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []
        )

    def test_sweep_tolerates_missing_segments(self):
        assert sweep(["reprop-test-never-created"]) == 0


class TestStreamingTrainerParallel:
    """``parallel_workers`` produces shards on the process pool for
    every model; results stay bit-identical to serial.  The exact
    logistic fit keeps prepared copies of the borrowed shared-memory
    shards resident, so its later passes must never read a released
    segment."""

    def test_exact_lr_parallel_matches_serial(self, source):
        serial = StreamingTrainer(L1LogisticRegression(max_iter=30)).fit(source)
        parallel = StreamingTrainer(
            L1LogisticRegression(max_iter=30), parallel_workers=2
        ).fit(source)
        _assert_same_fit(serial, parallel)
        assert _shm_orphans() == []

    def test_exact_lr_past_resident_cap_matches_serial(
        self, source, monkeypatch
    ):
        """Shards past the cap are re-read through the pool every pass."""
        monkeypatch.setattr(logistic, "RESIDENT_SHARDS", 2)
        assert source.n_shards > 2
        serial = StreamingTrainer(L1LogisticRegression(max_iter=2)).fit(source)
        parallel = StreamingTrainer(
            L1LogisticRegression(max_iter=2), parallel_workers=2
        ).fit(source)
        _assert_same_fit(serial, parallel)
        assert _shm_orphans() == []

    def test_mlp_epochs_through_process_prefetch_match_serial(self, matrices):
        def fit(workers):
            model = MLPClassifier(
                hidden_sizes=(8,), epochs=2, batch_size=64, random_state=0
            )
            trainer = StreamingTrainer(model, parallel_workers=workers)
            src = MatrixSource(
                matrices.X_train, matrices.y_train, shard_rows=40
            )
            return trainer.fit(src)

        serial, parallel = fit(0), fit(2)
        X_test = matrices.X_test
        assert np.array_equal(serial.predict(X_test), parallel.predict(X_test))
        assert _shm_orphans() == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="parallel_workers"):
            StreamingTrainer(
                L1LogisticRegression(), parallel_workers=-1
            )
