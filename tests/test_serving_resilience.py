"""Serving and training under failure: a poisoned batch, timeout
diagnostics, and the training chaos leg's verdicts."""

import dataclasses

import pytest

from repro.core import no_join_strategy
from repro.datasets import generate_real_world
from repro.experiments import fit_pipeline, get_scale
from repro.serving import (
    MicroBatcher,
    PredictionServer,
    artifact_from_pipeline,
)
from repro.serving.benchmark import _request_stream

from faultkit.chaos import chaos_training_run
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


def inline_server(artifact, dataset):
    return PredictionServer(
        artifact, dataset.schema, max_wait_s=None, background_flush=False
    )


class TestPoisonedBatch:
    @pytest.fixture(scope="class")
    def chaos_artifact(self, artifact):
        return dataclasses.replace(
            artifact,
            model=FaultInjectingModel(artifact.model, rate=0.1, seed=0),
        )

    def test_a_poisoned_row_fails_its_whole_batch(
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
            stats = server.stats()
            assert stats.failed_flushes == 1
            assert stats.rows_failed == len(handles)


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
            # close() drains: the queued row runs, and fails, once more.
            with pytest.raises(RuntimeError, match="fell over"):
                batcher.close()
            with pytest.raises(RuntimeError, match="fell over"):
                stuck.result(timeout=0)
        finally:
            batcher.close()


class TestChaosVerdicts:
    @pytest.mark.parametrize(
        "model_key, fault_rate",
        [
            # The CI fault-recovery gate: the ann on Yelp (n_fact 300),
            # 4 shards x 2 epochs, a quarter of the shards faulted.
            ("ann", 0.25),
            # A heavier schedule: seed 0 faults 3 of the 4 shards (2 at
            # rate 0.25).
            ("ann", 0.3),
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
            dataset, "ann", n_shards=2, epochs=2, kill_after=kill_after,
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
                dataset, "ann", n_shards=2, epochs=2,
                kill_after=kill_after, scale=get_scale("smoke"),
            )

    def test_training_leg_rejects_unstreamable_models(self, dataset):
        for model_key in ("nb", "lr_l1"):
            with pytest.raises(ValueError, match="checkpointable"):
                chaos_training_run(dataset, model_key)
