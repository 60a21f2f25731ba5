"""Concurrent serving: many client threads, one server, same answers.

The tier-1 concurrency coverage promised by the thread-safe runtime:

- K threads × M submissions through ``PredictionServer.submit`` resolve
  to exactly the values single-threaded execution gives;
- a racing cold-cache start builds each dimension index exactly once;
- a failing flush is visible in the server stats instead of silently
  desynchronising the counters.

Kept deliberately small (hundreds of rows, seconds of wall clock) so
the suite stays tier-1; the CI stress job re-runs this file under
``PYTHONDEVMODE=1`` with a hard timeout so a deadlocked flusher fails
the build instead of hanging it.
"""

import threading

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.datasets import generate_real_world
from repro.experiments import fit_pipeline, get_scale
from repro.serving import DimensionIndexCache, PredictionServer, artifact_from_pipeline


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


@pytest.fixture(scope="module")
def artifact(dataset):
    pipeline = fit_pipeline(
        dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
    )
    return artifact_from_pipeline(pipeline, dataset.schema)


@pytest.fixture(scope="module")
def joinall_artifact(dataset):
    pipeline = fit_pipeline(
        dataset, "dt_gini", join_all_strategy(), scale=get_scale("smoke")
    )
    return artifact_from_pipeline(pipeline, dataset.schema)


def _label_rows(server, dataset, n):
    fact = dataset.schema.fact
    columns = server.features.required_columns
    return [
        {c: fact.domain(c).decode([fact.codes(c)[i]])[0] for c in columns}
        for i in (dataset.test[np.arange(n) % dataset.test.size])
    ]


def _run_clients(n_threads, target):
    """Start, join, and surface the first error of N client threads."""
    errors = []

    def wrapped(index):
        try:
            target(index)
        except BaseException as error:  # re-raised in the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "client threads hung"
    if errors:
        raise errors[0]


class TestConcurrentSubmit:
    K = 6  # client threads
    M = 40  # submissions per thread

    def test_k_threads_get_single_threaded_answers(self, artifact, dataset):
        reference_server = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, background_flush=False
        )
        rows = _label_rows(reference_server, dataset, self.K * self.M)
        expected = reference_server.predict_batch(rows)

        with PredictionServer(
            artifact,
            dataset.schema,
            max_batch_size=16,
            max_wait_s=0.002,
        ) as server:
            results = [None] * len(rows)

            def client(thread_index):
                indexes = range(
                    thread_index * self.M, (thread_index + 1) * self.M
                )
                handles = [(i, server.submit(rows[i])) for i in indexes]
                for i, handle in handles:
                    results[i] = handle.result(timeout=30.0)

            _run_clients(self.K, client)
            stats = server.stats()

        assert results == expected
        assert stats.rows >= self.K * self.M
        assert stats.failed_flushes == 0

    def test_concurrent_predict_one_agrees(self, joinall_artifact, dataset):
        """The low-latency path is thread-safe too (shared cache)."""
        reference_server = PredictionServer(
            joinall_artifact,
            dataset.schema,
            max_wait_s=None,
            background_flush=False,
        )
        rows = _label_rows(reference_server, dataset, 32)
        expected = reference_server.predict_batch(rows)
        with PredictionServer(
            joinall_artifact, dataset.schema, max_wait_s=None
        ) as server:
            results = [None] * len(rows)

            def client(thread_index):
                for i in range(thread_index, len(rows), 4):
                    results[i] = server.predict_one(rows[i])

            _run_clients(4, client)
        assert results == expected


class TestRacingColdCache:
    def test_each_dimension_built_exactly_once(self, dataset, monkeypatch):
        """K threads racing on a cold cache must share a single build."""
        import repro.data.encoder as fs

        n_threads = 8
        build_calls = []
        barrier = threading.Barrier(n_threads)
        real_builder = fs.dimension_row_index

        def slow_builder(schema, name):
            build_calls.append(name)
            # Widen the race window: every thread is already inside
            # get() before the first build finishes.
            threading.Event().wait(0.05)
            return real_builder(schema, name)

        monkeypatch.setattr(fs, "dimension_row_index", slow_builder)
        cache = DimensionIndexCache(dataset.schema, capacity=8)
        name = dataset.schema.dimension_names[0]
        entries = []

        def racer(_):
            barrier.wait()
            entries.append(cache.get(name))

        _run_clients(n_threads, racer)
        assert build_calls == [name]  # built once, not once per thread
        assert cache.stats.builds == 1
        assert cache.stats.misses >= 1
        assert all(e is entries[0] for e in entries)  # one shared entry

    def test_distinct_dimensions_build_concurrently(self, dataset):
        cache = DimensionIndexCache(dataset.schema, capacity=8)
        names = dataset.schema.dimension_names
        barrier = threading.Barrier(len(names))

        def racer(index):
            barrier.wait()
            cache.get(names[index])

        _run_clients(len(names), racer)
        assert cache.stats.builds == len(names)


class TestFailureVisibility:
    def test_failed_flush_shows_in_server_stats(
        self, artifact, dataset, monkeypatch
    ):
        """Regression: a failing batch must surface in ServerStats."""
        server = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, background_flush=False
        )
        rows = _label_rows(server, dataset, 2)
        handles = [server.submit(r) for r in rows]

        def explode(X):
            raise RuntimeError("model meltdown")

        monkeypatch.setattr(server.artifact, "predict_codes", explode)
        with pytest.raises(RuntimeError, match="model meltdown"):
            server.flush()
        for handle in handles:
            with pytest.raises(RuntimeError, match="model meltdown"):
                handle.result()
        stats = server.stats()
        assert stats.failed_flushes == 1
        assert stats.rows_failed == 2
        assert stats.batches_flushed == 0
        assert "failed_flushes=1" in str(stats)

    def test_server_takes_neither_workers_nor_engine(self, artifact, dataset):
        """The scorer is picked from the artifact, and neither extra
        predict threads nor predictor processes beat one in-process
        predict on a 2-CPU host, so none of them is a knob."""
        knobs = ({"workers": 2}, {"process_workers": 2}, {"engine": "factorized"})
        for knob in knobs:
            with pytest.raises(TypeError, match=next(iter(knob))):
                PredictionServer(artifact, dataset.schema, **knob)

    def test_co_batched_failures_are_distinct_exceptions(
        self, artifact, dataset, monkeypatch
    ):
        """Regression: co-batched handles must not share one exception.

        Every ``result()`` re-raise mutates the raised instance's
        ``__traceback__`` — two threads claiming handles from the same
        failed batch raced on one traceback chain and could observe a
        frame list mid-mutation.  Each handle now gets its own copy,
        chained (``__cause__``) to the single original carrying the
        flush thread's traceback.
        """
        server = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, background_flush=False
        )
        rows = _label_rows(server, dataset, 2)
        handles = [server.submit(r) for r in rows]

        def explode(X):
            raise RuntimeError("model meltdown")

        monkeypatch.setattr(server.artifact, "predict_codes", explode)
        with pytest.raises(RuntimeError, match="model meltdown"):
            server.flush()
        caught = [None, None]
        ready = threading.Barrier(2)

        def claim(index):
            ready.wait(timeout=30.0)
            try:
                handles[index].result()
            except RuntimeError as error:
                caught[index] = error

        _run_clients(2, claim)
        first, second = caught
        assert isinstance(first, RuntimeError)
        assert isinstance(second, RuntimeError)
        assert "model meltdown" in str(first)
        assert first is not second
        assert first.__traceback__ is not second.__traceback__
        # Both copies chain back to the one original failure, which
        # still carries the flush thread's traceback.
        assert first.__cause__ is not None
        assert first.__cause__ is second.__cause__


class TestStatsUnderLoad:
    def test_stats_snapshots_stay_consistent_mid_load(self, artifact, dataset):
        """``stats()`` raced against live traffic must read sanely.

        The snapshot is not required to be atomic across metrics — it is
        required to never throw, never go backwards on monotone
        counters, and to reconcile exactly once the load quiesces.
        """
        server = PredictionServer(
            artifact, dataset.schema, max_batch_size=8, max_wait_s=None
        )
        rows = _label_rows(server, dataset, 4)
        n_threads, per_thread = 4, 50
        stop = threading.Event()
        snapshots = []

        def snapshotter():
            last_requests = last_rows = 0
            while not stop.is_set():
                stats = server.stats()
                assert stats.requests >= last_requests
                assert stats.rows >= last_rows
                assert stats.rows_failed == 0
                # Derived fields must never divide by a racing zero.
                assert stats.mean_latency_ms >= 0.0
                assert stats.cache_hit_rate >= 0.0
                last_requests, last_rows = stats.requests, stats.rows
                snapshots.append(stats)

        def client(index):
            for i in range(per_thread):
                if (index + i) % 2:
                    server.predict_one(rows[i % len(rows)])
                else:
                    server.submit(rows[i % len(rows)]).result(timeout=30.0)

        reader = threading.Thread(target=snapshotter, daemon=True)
        reader.start()
        try:
            _run_clients(n_threads, client)
        finally:
            stop.set()
            reader.join(timeout=30.0)
        assert not reader.is_alive(), "stats reader hung"
        assert snapshots, "reader never snapshotted"
        server.flush()
        final = server.stats()
        assert final.requests == n_threads * per_thread
        assert final.rows == n_threads * per_thread
        assert final.predict_calls == final.batches_flushed + sum(
            1
            for index in range(n_threads)
            for i in range(per_thread)
            if (index + i) % 2
        )
