"""PredictionServer: paths agree, counters account, fingerprints guard."""

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.datasets import generate_real_world
from repro.errors import SchemaError
from repro.experiments import fit_pipeline, get_scale
from repro.serving import (
    FeatureService,
    PredictionServer,
    artifact_from_pipeline,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


@pytest.fixture(scope="module")
def artifact(dataset):
    pipeline = fit_pipeline(
        dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
    )
    return artifact_from_pipeline(pipeline, dataset.schema)


@pytest.fixture
def server(artifact, dataset):
    return PredictionServer(artifact, dataset.schema, max_wait_s=None)


def _label_rows(server, dataset, n):
    fact = dataset.schema.fact
    columns = server.features.required_columns
    return [
        {
            c: fact.domain(c).decode([fact.codes(c)[i]])[0]
            for c in columns
        }
        for i in dataset.test[:n]
    ]


class TestPathsAgree:
    def test_one_batch_and_submit_paths_match(self, server, dataset):
        rows = _label_rows(server, dataset, 12)
        one_by_one = [server.predict_one(r) for r in rows]
        batched = server.predict_batch(rows)
        handles = [server.submit(r) for r in rows]
        server.flush()
        micro = [h.result() for h in handles]
        assert one_by_one == batched == micro

    def test_predict_table_matches_in_memory_model(
        self, server, artifact, dataset
    ):
        fact_rows = dataset.schema.fact.select(dataset.test)
        served = server.predict_table(fact_rows)
        service = FeatureService(dataset.schema, artifact.strategy)
        expected = artifact.model.predict(service.assemble_table(fact_rows))
        assert served == artifact.decode_labels(np.asarray(expected))

    def test_labels_come_from_target_domain(self, server, dataset):
        rows = _label_rows(server, dataset, 5)
        target_labels = set(
            dataset.schema.fact.domain(dataset.schema.target).labels
        )
        assert set(server.predict_batch(rows)) <= target_labels

    def test_empty_batch_is_empty(self, server):
        assert server.predict_batch([]) == []


class TestAccounting:
    def test_counters_and_latency(self, server, dataset):
        rows = _label_rows(server, dataset, 10)
        server.predict_batch(rows)
        for row in rows[:3]:
            server.predict_one(row)
        stats = server.stats()
        assert stats.requests == 4
        assert stats.rows == 13
        assert stats.predict_calls == 4
        assert stats.predict_seconds > 0
        assert stats.assemble_seconds > 0
        assert stats.mean_latency_ms > 0
        assert "requests=4" in str(stats)

    def test_submit_counts_batches(self, server, dataset):
        rows = _label_rows(server, dataset, 6)
        handles = [server.submit(r) for r in rows]
        server.flush()
        assert all(h.done() for h in handles)
        stats = server.stats()
        assert stats.batches_flushed == 1
        assert stats.mean_batch_rows == 6
        assert stats.failed_flushes == 0

    def test_mean_latency_includes_queue_wait(self, artifact, dataset):
        """Regression: mean_latency_ms is the mean request latency.

        A first version summed assemble + predict seconds only, so a
        row that sat queued for 50 ms reported microseconds of latency.
        A second divided the summed per-row queue wait by the number of
        predict calls, so 64 rows queued ~50 ms and flushed once read
        over 3 s.  Rows are parked on the micro-batcher, the test
        sleeps, and the headline must equal the end-to-end ``request``
        mean, whatever the batch size, and include the wait.
        """
        import time as _time

        for n_rows in (2, 64):
            server = PredictionServer(
                artifact, dataset.schema, max_batch_size=128, max_wait_s=None
            )
            rows = _label_rows(server, dataset, n_rows)
            handles = [server.submit(r) for r in rows]
            _time.sleep(0.05)
            server.flush()
            for handle in handles:
                handle.result()
            stats = server.stats()
            assert stats.predict_calls == 1
            assert stats.queue_wait_seconds >= 0.04 * n_rows
            request = stats.latency_ms["request"]
            assert request["count"] == n_rows
            assert stats.mean_latency_ms == request["mean"]
            assert stats.mean_latency_ms >= 40.0
            assert stats.latency_ms["queue_wait"]["count"] == n_rows
            assert stats.latency_ms["queue_wait"]["p50"] >= 40.0

    def test_latency_breakdown_covers_all_stages(self, server, dataset):
        rows = _label_rows(server, dataset, 4)
        server.predict_batch(rows)
        handles = [server.submit(r) for r in rows]
        server.flush()
        for handle in handles:
            handle.result()
        breakdown = server.stats().latency_ms
        assert set(breakdown) == {
            "queue_wait", "assemble", "predict", "request"
        }
        for stage, values in breakdown.items():
            assert {"count", "mean", "p50", "p95", "p99"} <= set(values)
            assert values["p50"] <= values["p95"] <= values["p99"]
        # Both the batched flush and the direct call observed stages.
        assert breakdown["assemble"]["count"] == 2
        assert breakdown["queue_wait"]["count"] == 4

    def test_context_manager_closes_runtime(self, artifact, dataset):
        with PredictionServer(
            artifact, dataset.schema, max_wait_s=0.005
        ) as server:
            rows = _label_rows(server, dataset, 3)
            handles = [server.submit(r) for r in rows]
            assert [h.result(timeout=10.0) for h in handles] == [
                server.predict_one(r) for r in rows
            ]
        # After close: the flusher is stopped and submissions are refused.
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(rows[0])


class TestGuards:
    def test_fingerprint_mismatch_rejected(self, artifact):
        other = generate_real_world("movies", n_fact=300, seed=0)
        with pytest.raises(SchemaError, match="fingerprint mismatch"):
            PredictionServer(artifact, other.schema)

    def test_mismatch_can_be_overridden_but_feature_check_still_guards(
        self, artifact
    ):
        other = generate_real_world("movies", n_fact=300, seed=0)
        with pytest.raises(SchemaError):
            PredictionServer(
                artifact, other.schema, validate_fingerprint=False
            )

    def test_joinall_server_populates_cache(self, dataset):
        pipeline = fit_pipeline(
            dataset, "dt_gini", join_all_strategy(), scale=get_scale("smoke")
        )
        artifact = artifact_from_pipeline(pipeline, dataset.schema)
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        fact_rows = dataset.schema.fact.select(dataset.test[:5])
        server.predict_table(fact_rows)
        server.predict_table(fact_rows)
        stats = server.stats()
        assert stats.cache_misses == 2  # two dimensions, first batch
        assert stats.cache_hits == 2  # second batch served from cache
        assert stats.cache_hit_rate == pytest.approx(0.5)


class TestThroughputReport:
    def test_speedup_is_none_without_reference_strategies(self):
        from repro.serving import ThroughputReport

        report = ThroughputReport(
            dataset="yelp", model_key="dt_gini", rows=10, batch_size=4,
            rates={("NoFK", "single"): 100.0},
        )
        assert report.speedup is None
        assert "NoFK" in report.render()  # renders without the headline

    def test_advice_uses_training_split_size(self, artifact, dataset):
        assert artifact.advice is not None
        ratios = {
            d.dimension: d.tuple_ratio for d in artifact.advice.decisions
        }
        expected = {
            name: dataset.train.size / dataset.schema.dimension(name).n_rows
            for name in dataset.schema.dimension_names
        }
        for name, ratio in expected.items():
            assert ratios[name] == pytest.approx(ratio)


class TestImplicitServingPath:
    """Numeric models must serve via gather kernels, never dense one-hot."""

    def test_numeric_model_serves_without_materializing_onehot(
        self, dataset, monkeypatch
    ):
        from repro.ml.encoding import CategoricalMatrix

        pipeline = fit_pipeline(
            dataset, "lr_l1", join_all_strategy(), scale=get_scale("smoke")
        )
        artifact = artifact_from_pipeline(pipeline, dataset.schema)
        server = PredictionServer(artifact, dataset.schema, max_wait_s=None)
        rows = _label_rows(server, dataset, 8)

        def forbidden(self, materialize=False):  # pragma: no cover - must not run
            raise AssertionError(
                "serving a numeric model materialized the dense one-hot matrix"
            )

        monkeypatch.setattr(CategoricalMatrix, "onehot", forbidden)
        single = [server.predict_one(r) for r in rows]
        handles = [server.submit(r) for r in rows]
        server.flush()
        micro = [h.result() for h in handles]
        assert single == micro
        target_labels = set(
            dataset.schema.fact.domain(dataset.schema.target).labels
        )
        assert set(single) <= target_labels
