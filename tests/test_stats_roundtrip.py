"""Every stats surface serializes: as_dict() -> json -> same numbers.

The observability layer's contract is that ``CacheStats``,
``SpillStats``, ``BatcherStats`` and ``ServerStats`` — the dataclass
views over the metrics registry — all export a JSON-serializable dict,
so run reports and benchmark JSON can embed any of them verbatim.
Snapshots here come from *live* components, not hand-built dataclasses,
so a field added to a stats class without as_dict support fails this
file immediately.
"""

import json

import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource, SpillCacheSource
from repro.data.encoder import ShardEncoder
from repro.datasets import generate_real_world
from repro.experiments import fit_pipeline, get_scale
from repro.serving import (
    MicroBatcher,
    PredictionServer,
    artifact_from_pipeline,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


def _round_trip(stats):
    payload = stats.as_dict()
    decoded = json.loads(json.dumps(payload))
    assert decoded == payload
    return decoded


class TestAsDictRoundTrips:
    def test_cache_stats(self, dataset):
        service = ShardEncoder(dataset.schema, no_join_strategy())
        service.assemble_table(dataset.schema.fact.select(dataset.train[:5]))
        decoded = _round_trip(service.cache.stats)
        assert {"hits", "misses", "builds", "lookups",
                "hit_rate"} <= set(decoded)

    def test_spill_stats(self, dataset):
        matrices = no_join_strategy().matrices(dataset)
        source = MatrixSource(
            matrices.X_train, matrices.y_train, shard_rows=64
        )
        with SpillCacheSource(source) as cached:
            for index in range(cached.n_shards):
                cached.shard(index)
            cached.shard(0)
            decoded = _round_trip(cached.stats)
        assert decoded["misses"] == source.n_shards
        assert decoded["hits"] >= 1
        assert decoded["spilled_bytes"] > 0

    def test_batcher_stats(self):
        batcher = MicroBatcher(
            lambda payloads: list(payloads),
            max_batch_size=2,
            max_wait_s=None,
            background_flush=False,
        )
        for value in range(5):
            batcher.submit(value)
        batcher.flush()
        decoded = _round_trip(batcher.stats)
        assert decoded["submitted"] == 5
        assert decoded["flushes"] == 3
        assert decoded["flush_reasons"] == {"size": 2, "explicit": 1}
        assert decoded["mean_batch"] == pytest.approx(5 / 3)

    def test_server_stats(self, dataset):
        pipeline = fit_pipeline(
            dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
        )
        artifact = artifact_from_pipeline(pipeline, dataset.schema)
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        fact = dataset.schema.fact
        rows = [
            {
                column: fact.domain(column).decode(
                    [fact.codes(column)[i]]
                )[0]
                for column in server.features.required_columns
            }
            for i in dataset.test[:4]
        ]
        server.predict_batch(rows)
        handles = [server.submit(row) for row in rows]
        server.flush()
        for handle in handles:
            handle.result()
        decoded = _round_trip(server.stats())
        assert decoded["requests"] == 5
        assert decoded["rows"] == 8
        assert decoded["mean_latency_ms"] > 0
        assert set(decoded["latency_ms"]) == {
            "queue_wait", "assemble", "predict", "request"
        }
        for values in decoded["latency_ms"].values():
            assert {"count", "mean", "p50", "p95", "p99"} <= set(values)

    def test_disabled_telemetry_still_round_trips(self, dataset):
        pipeline = fit_pipeline(
            dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
        )
        artifact = artifact_from_pipeline(pipeline, dataset.schema)
        server = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, telemetry=False
        )
        decoded = _round_trip(server.stats())
        assert decoded["requests"] == 0
        assert decoded["mean_latency_ms"] == 0.0
