"""Process-sharded serving: same answers, merged telemetry, respawn.

``PredictionServer(process_workers=N)`` swaps the flush's
assemble+predict stage onto :class:`repro.parallel.ProcessPredictorPool`.
The contract pinned here:

- predictions are identical to the single-process server, whatever the
  chunking;
- the workers' ``serving.latency.*`` observations merge back so
  ``ServerStats`` reads as if everything ran in-process;
- a predictor process dying mid-flight is respawned and its chunk
  re-served — a retryable fault, not a failed batch.
"""

import threading

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.datasets import generate_real_world
from repro.experiments import fit_pipeline, get_scale
from repro.serving import PredictionServer, artifact_from_pipeline


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


@pytest.fixture(scope="module")
def artifact(dataset):
    pipeline = fit_pipeline(
        dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
    )
    return artifact_from_pipeline(pipeline, dataset.schema)


def _label_rows(server, dataset, n):
    fact = dataset.schema.fact
    columns = server.features.required_columns
    return [
        {c: fact.domain(c).decode([fact.codes(c)[i]])[0] for c in columns}
        for i in (dataset.test[np.arange(n) % dataset.test.size])
    ]


def _serve(server, rows):
    handles = [server.submit(row) for row in rows]
    server.flush()
    return [handle.result() for handle in handles]


class TestProcessShardedAnswers:
    def test_matches_single_process_server(self, artifact, dataset):
        with PredictionServer(
            artifact, dataset.schema, max_wait_s=None, background_flush=False
        ) as reference_server:
            rows = _label_rows(reference_server, dataset, 60)
            reference = _serve(reference_server, rows)
        with PredictionServer(
            artifact,
            dataset.schema,
            max_wait_s=None,
            background_flush=False,
            process_workers=2,
            max_batch_size=256,
        ) as server:
            sharded = _serve(server, rows)
        assert sharded == reference

    def test_single_row_batches_work(self, artifact, dataset):
        with PredictionServer(
            artifact,
            dataset.schema,
            max_wait_s=None,
            background_flush=False,
            process_workers=2,
        ) as server:
            rows = _label_rows(server, dataset, 3)
            answers = [_serve(server, [row])[0] for row in rows]
            with PredictionServer(
                artifact, dataset.schema, max_wait_s=None,
                background_flush=False,
            ) as reference_server:
                assert answers == [
                    _serve(reference_server, [row])[0] for row in rows
                ]

    def test_process_workers_must_be_non_negative(self, artifact, dataset):
        with pytest.raises(ValueError, match="process_workers"):
            PredictionServer(artifact, dataset.schema, process_workers=-1)


class TestMergedTelemetry:
    def test_worker_latency_observations_merge_into_stats(
        self, artifact, dataset
    ):
        with PredictionServer(
            artifact,
            dataset.schema,
            max_wait_s=None,
            background_flush=False,
            process_workers=2,
            max_batch_size=256,
        ) as server:
            rows = _label_rows(server, dataset, 40)
            _serve(server, rows)
            stats = server.stats()
            assert stats.rows == 40
            predict_latency = server.metrics.get(
                "serving.latency.predict_s"
            ).snapshot()
            assert predict_latency["count"] >= 2  # one per chunk, 2 workers
            # Merging is delta-based: a second stats() call must not
            # double-count the first drain.
            assert server.stats().rows == 40

    def test_concurrent_stats_and_serving_stay_consistent(
        self, artifact, dataset
    ):
        with PredictionServer(
            artifact,
            dataset.schema,
            max_wait_s=None,
            background_flush=False,
            process_workers=2,
        ) as server:
            rows = _label_rows(server, dataset, 8)
            stop = threading.Event()

            def poll_stats():
                while not stop.is_set():
                    server.stats()

            poller = threading.Thread(target=poll_stats, daemon=True)
            poller.start()
            try:
                for _ in range(5):
                    _serve(server, rows)
            finally:
                stop.set()
                poller.join(timeout=30.0)
            assert not poller.is_alive()
            assert server.stats().rows == 40


class TestWorkerDeathRecovery:
    def test_killed_predictor_is_respawned_and_chunk_reserved(
        self, artifact, dataset
    ):
        with PredictionServer(
            artifact, dataset.schema, max_wait_s=None, background_flush=False
        ) as reference_server:
            rows = _label_rows(reference_server, dataset, 40)
            reference = _serve(reference_server, rows)
        with PredictionServer(
            artifact,
            dataset.schema,
            max_wait_s=None,
            background_flush=False,
            process_workers=2,
            max_batch_size=256,
        ) as server:
            pool = server._process_pool
            before = _serve(server, rows)
            victim = pool._procs[0]
            victim.terminate()
            victim.join()
            after = _serve(server, rows)
        assert before == reference
        assert after == reference
        assert server.metrics.get("parallel.serving.worker_deaths").value >= 1
