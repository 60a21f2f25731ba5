"""PredictionServer: paths agree, counters account, fingerprints guard."""

import dataclasses

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.data.encoder import ShardEncoder
from repro.datasets import generate_real_world
from repro.errors import SchemaError
from repro.experiments import fit_pipeline, get_scale
from repro.relational import CategoricalColumn, StarSchema
from repro.relational.column import OTHERS_LABEL
from repro.serving import (
    PredictionServer,
    artifact_from_pipeline,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


@pytest.fixture(
    scope="module",
    params=[("nn1", join_all_strategy), ("dt_gini", no_join_strategy)],
    ids=["JoinAll", "NoJoin"],
)
def artifact(dataset, request):
    """A JoinAll 1-NN, which reads every feature, so its server gathers
    both dimensions (a JoinAll tree here splits on the two FKs alone and
    is served without them), and a NoJoin tree."""
    model, strategy = request.param
    pipeline = fit_pipeline(
        dataset, model, strategy(), scale=get_scale("smoke")
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


def _with_others(dataset, feature):
    """``dataset`` with an ``"Others"`` level added to a home feature."""
    schema = dataset.schema
    column = schema.fact.column(feature)
    return dataclasses.replace(
        dataset,
        schema=StarSchema(
            schema.fact.with_column(
                CategoricalColumn(
                    feature, column.domain.with_others(), column.codes
                )
            ),
            schema.target,
            [(schema.dimension(n), schema.constraint(n))
             for n in schema.dimension_names],
            fact_key=schema.fact_key,
        ),
    )


@pytest.fixture(scope="module")
def others_dataset():
    """Flights, and its first home feature, opened to unseen labels."""
    flights = generate_real_world("flights", n_fact=300, seed=0)
    feature = flights.schema.home_features[0]
    return _with_others(flights, feature), feature


class TestPathsAgree:
    @pytest.mark.parametrize(
        "model, strategy",
        [
            ("dt_gini", join_all_strategy),
            ("dt_gini", no_join_strategy),
            ("lr_l1", join_all_strategy),  # a FactorizedScorer model
            ("nn1", join_all_strategy),  # reads every feature
            ("nn1", no_join_strategy),
        ],
        ids=[
            "dt_gini-JoinAll", "dt_gini-NoJoin", "lr_l1-JoinAll",
            "nn1-JoinAll", "nn1-NoJoin",
        ],
    )
    def test_every_path_serves_the_same_predictions(
        self, others_dataset, model, strategy
    ):
        """``submit`` + flush, ``predict_one``, ``predict_batch`` and
        ``predict_table`` predict the same rows alike: rows that carry
        keys no model reads, and a label its ``"Others"`` domain has
        never seen, served as ``"Others"``.  The trees never split on
        that column, so their servers do not read it: for them the
        label is one more key no model reads."""
        dataset, feature = others_dataset
        schema = dataset.schema
        pipeline = fit_pipeline(
            dataset, model, strategy(), scale=get_scale("smoke")
        )
        server = PredictionServer(
            artifact_from_pipeline(pipeline, schema), schema,
            max_batch_size=8, max_wait_s=None, background_flush=False,
        )
        if model == "lr_l1":
            assert server._scorer is not None
        reads = feature in server.features.required_columns
        assert reads == (model != "dt_gini")
        indexes = dataset.test[:20]
        rows = [
            {**row, schema.target: "?", "not-a-column": 1}
            for row in _label_rows(server, dataset, len(indexes))
        ]
        rows[3][feature] = "never-seen"
        table = schema.fact.select(indexes)
        codes = table.codes(feature).copy()
        codes[3] = schema.fact.domain(feature).code_of(OTHERS_LABEL)
        table = table.with_column(
            CategoricalColumn(feature, schema.fact.domain(feature), codes)
        )
        one_by_one = [server.predict_one(row) for row in rows]
        batched = server.predict_batch(rows)
        tabled = server.predict_table(table)
        handles = [server.submit(row) for row in rows]
        server.flush()
        micro = [handle.result() for handle in handles]
        assert one_by_one == batched == tabled == micro
        assert server.stats().batches_flushed == 3  # 8 + 8 + 4 rows

    def test_predict_table_matches_in_memory_model(
        self, server, artifact, dataset
    ):
        fact_rows = dataset.schema.fact.select(dataset.test)
        served = server.predict_table(fact_rows)
        service = ShardEncoder(dataset.schema, artifact.strategy)
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

    def test_feature_check_guards_behind_a_matching_fingerprint(
        self, artifact, dataset
    ):
        """The fingerprint passes, but the strategy's replayed feature
        order differs from the one the artifact was trained on."""
        tampered = dataclasses.replace(
            artifact, feature_names=artifact.feature_names[::-1]
        )
        tampered.check_schema(dataset.schema)
        with pytest.raises(SchemaError, match="strategy replay produced"):
            PredictionServer(tampered, dataset.schema)

    @pytest.mark.parametrize(
        "label, message",
        [(None, "lacks fact column"), ("no-such-label", "closed domain")],
        ids=["missing_column", "out_of_domain_label"],
    )
    def test_submit_rejects_a_bad_row_before_queueing(
        self, server, dataset, label, message
    ):
        row = _label_rows(server, dataset, 1)[0]
        column = server.features.required_columns[-1]
        if label is None:
            del row[column]
        else:
            row[column] = label
        requests = server.stats().requests
        with pytest.raises(SchemaError, match=message):
            server.submit(row)
        assert len(server.batcher) == 0
        assert server.stats().requests == requests

    def test_others_domain_serves_an_unseen_label_as_others(
        self, others_dataset
    ):
        """An unseen label encodes to the ``"Others"`` code on the request
        path, as ``Domain.encode`` does, instead of raising.  A 1-NN
        reads the opened column; the tree does not split on it."""
        others, feature = others_dataset
        pipeline = fit_pipeline(
            others, "nn1", no_join_strategy(), scale=get_scale("smoke")
        )
        server = PredictionServer(
            artifact_from_pipeline(pipeline, others.schema), others.schema,
            max_wait_s=None,
        )
        row = _label_rows(server, others, 1)[0]
        unseen = {**row, feature: "never-seen"}
        as_others = {**row, feature: OTHERS_LABEL}
        codes = server.features.encode_requests([unseen, as_others])
        j = server.features.required_columns.index(feature)
        assert codes[0, j] == others.schema.fact.domain(feature).code_of(
            OTHERS_LABEL
        )
        np.testing.assert_array_equal(codes[0], codes[1])
        assert server.features.request_codes(unseen) == codes[1].tolist()
        handle = server.submit(unseen)
        server.flush()
        assert handle.result() == server.predict_one(as_others)

    def test_joinall_server_populates_cache(self, dataset):
        """A JoinAll 1-NN reads every feature, so each batch looks both
        dimensions up; a JoinAll tree here reads neither."""
        pipeline = fit_pipeline(
            dataset, "nn1", join_all_strategy(), scale=get_scale("smoke")
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
