"""Serving degradation: shedding, deadlines, quarantine, chaos verdicts."""

import dataclasses

import pytest

from repro.core import no_join_strategy
from repro.datasets import generate_real_world
from repro.errors import (
    DeadlineExceededError,
    ServerOverloadedError,
)
from repro.experiments import fit_pipeline, get_scale
from repro.serving import (
    MicroBatcher,
    PredictionServer,
    artifact_from_pipeline,
)
from repro.serving.benchmark import _request_stream

from faultkit.chaos import chaos_serving_run, chaos_training_run
from faultkit.faults import FaultInjectingModel, PoisonedRowError


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


@pytest.fixture(scope="module")
def artifact(dataset):
    pipeline = fit_pipeline(
        dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
    )
    return artifact_from_pipeline(pipeline, dataset.schema)


def inline_server(artifact, dataset, **kwargs):
    kwargs.setdefault("max_wait_s", None)
    kwargs.setdefault("background_flush", False)
    return PredictionServer(artifact, dataset.schema, **kwargs)


class TestLoadShedding:
    def test_admission_beyond_queue_bound_sheds(self, artifact, dataset):
        with inline_server(artifact, dataset, max_queue_rows=4) as server:
            rows = _request_stream(server, dataset, 5)
            handles = [server.submit(row) for row in rows[:4]]
            with pytest.raises(ServerOverloadedError, match="request shed"):
                server.submit(rows[4])
            # Shedding rejects without losing admitted work...
            server.flush()
            assert all(h.done() for h in handles)
            # ...and a drained queue admits again.
            server.submit(rows[4]).result(timeout=10.0)
            assert server.stats().shed_requests == 1

    def test_queue_bound_validation(self, artifact, dataset):
        with pytest.raises(ValueError, match="max_queue_rows"):
            inline_server(artifact, dataset, max_queue_rows=0)


class TestDeadlines:
    def test_expired_row_fails_instead_of_answering_late(
        self, artifact, dataset
    ):
        with inline_server(artifact, dataset) as server:
            rows = _request_stream(server, dataset, 2)
            late = server.submit(rows[0], deadline_s=1e-6)
            live = server.submit(rows[1])
            server.flush()
            with pytest.raises(DeadlineExceededError, match="deadline"):
                late.result(timeout=10.0)
            assert live.result(timeout=10.0) is not None
            stats = server.stats()
            assert stats.deadline_expired == 1
            # The expired row never reached the model.
            assert stats.rows == 1

    def test_default_deadline_applies_to_every_submit(
        self, artifact, dataset
    ):
        with inline_server(
            artifact, dataset, default_deadline_s=1e-6
        ) as server:
            rows = _request_stream(server, dataset, 1)
            handle = server.submit(rows[0])
            server.flush()
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=10.0)

    def test_deadline_validation(self, artifact, dataset):
        with inline_server(artifact, dataset) as server:
            rows = _request_stream(server, dataset, 1)
            with pytest.raises(ValueError, match="deadline_s"):
                server.submit(rows[0], deadline_s=0.0)


class TestQuarantine:
    @pytest.fixture(scope="class")
    def chaos_artifact(self, artifact):
        return dataclasses.replace(
            artifact,
            model=FaultInjectingModel(artifact.model, rate=0.1, seed=0),
        )

    def test_poisoned_rows_isolated_clean_rows_answered(
        self, artifact, dataset, chaos_artifact
    ):
        # Below the default max_batch_size, so the explicit flush() is
        # the only trigger and the whole stream fails as one batch.
        rows_n = 48
        with inline_server(artifact, dataset) as clean_server:
            rows = _request_stream(clean_server, dataset, rows_n)
            expected = [clean_server.predict_one(row) for row in rows]
        with inline_server(
            chaos_artifact, dataset, quarantine=True
        ) as server:
            handles = [server.submit(row) for row in rows]
            server.flush()
            poisoned = 0
            for handle, want in zip(handles, expected):
                try:
                    assert handle.result(timeout=10.0) == want
                except PoisonedRowError:
                    poisoned += 1
            stats = server.stats()
        assert poisoned >= 1, "pick a rate/seed that poisons this stream"
        assert stats.rows_quarantined == poisoned
        assert poisoned < rows_n

    def test_without_quarantine_whole_batch_fails(
        self, dataset, chaos_artifact
    ):
        with inline_server(chaos_artifact, dataset) as server:
            rows = _request_stream(server, dataset, 48)
            handles = [server.submit(row) for row in rows]
            with pytest.raises(PoisonedRowError):
                server.flush()
            failures = 0
            for handle in handles:
                try:
                    handle.result(timeout=10.0)
                except PoisonedRowError:
                    failures += 1
            assert failures == len(handles)


class TestTimeoutDiagnostics:
    def test_timeout_reports_no_failed_flushes(self):
        # A live flusher with a far-off deadline: result() must wait
        # (not force a flush) and so hit the timeout path.
        batcher = MicroBatcher(
            lambda payloads: payloads, max_batch_size=100, max_wait_s=60.0,
            background_flush=True,
        )
        try:
            handle = batcher.submit("row")
            with pytest.raises(TimeoutError, match="no failed flushes"):
                handle.result(timeout=0.05)
        finally:
            batcher.close()

    def test_timeout_reports_failure_count_and_last_reason(self):
        def exploding(payloads):
            raise RuntimeError("model fell over")

        batcher = MicroBatcher(
            exploding, max_batch_size=100, max_wait_s=60.0,
            background_flush=True,
        )
        try:
            doomed = batcher.submit("row")
            with pytest.raises(RuntimeError, match="fell over"):
                batcher.flush()
            with pytest.raises(RuntimeError):
                doomed.result(timeout=10.0)
            stuck = batcher.submit("another")
            with pytest.raises(TimeoutError) as info:
                stuck.result(timeout=0.05)
            message = str(info.value)
            assert "1 failed flush(es)" in message
            assert "RuntimeError: model fell over" in message
        finally:
            batcher.close(flush=False)


class TestChaosVerdicts:
    def test_serving_leg_passes_end_to_end(self, dataset):
        verdict = chaos_serving_run(
            dataset, "dt_gini", rows=96, poison_rate=0.1,
            max_queue_rows=16, seed=0, scale=get_scale("smoke"),
        )
        assert verdict["ok"], verdict
        assert verdict["mismatched"] == 0
        assert verdict["shed"] >= 1
        assert verdict["poisoned_rows"] >= 1
        assert verdict["deadline_expired"] == verdict["deadline_rows"]

    @pytest.mark.parametrize(
        "model_key, fault_rate",
        [
            ("lr_l1", 0.3),
            # The CI fault-recovery gate: the ann on Yelp (n_fact 300),
            # 4 shards x 2 epochs, a quarter of the shards faulted.
            ("ann", 0.25),
        ],
    )
    def test_training_leg_passes_end_to_end(
        self, dataset, model_key, fault_rate
    ):
        verdict = chaos_training_run(
            dataset, model_key, n_shards=4, epochs=2, fault_rate=fault_rate,
            seed=0, scale=get_scale("smoke"),
        )
        assert verdict["ok"], verdict
        assert verdict["killed"]
        assert verdict["faulted_identical"]
        assert verdict["resumed_identical"]
        assert verdict["effective_fault_rate"] >= 0.10

    @pytest.mark.parametrize("kill_after", [2, 4])
    def test_training_leg_passes_at_the_first_and_last_kill_points(
        self, dataset, kill_after
    ):
        """Two shards × two epochs: the kill on the second save resumes
        from the first, the kill on the final save from the one before."""
        verdict = chaos_training_run(
            dataset, "lr_l1", n_shards=2, epochs=2, kill_after=kill_after,
            seed=0, scale=get_scale("smoke"),
        )
        assert verdict["ok"], verdict
        assert verdict["resilience.resumes"] == 1

    @pytest.mark.parametrize("kill_after", [1, 5])
    def test_training_leg_rejects_kills_without_a_resume(
        self, dataset, kill_after
    ):
        with pytest.raises(ValueError, match=r"\[2, 4\]"):
            chaos_training_run(
                dataset, "lr_l1", n_shards=2, epochs=2,
                kill_after=kill_after, scale=get_scale("smoke"),
            )

    def test_training_leg_rejects_unstreamable_models(self, dataset):
        with pytest.raises(ValueError, match="checkpointable"):
            chaos_training_run(dataset, "nb")
