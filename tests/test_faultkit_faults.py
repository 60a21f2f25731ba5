"""Deterministic fault injection and the recovery paths it exercises."""

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource, SpillCacheSource
from repro.datasets import generate_real_world
from repro.errors import ReproError
from repro.obs import MetricsRegistry

from faultkit.chaos import ChaosKilledError, KillSwitchCheckpoint
from faultkit.faults import (
    CORRUPT_SPILL,
    SLOW,
    TRANSIENT,
    FaultInjectingModel,
    FaultInjectingSource,
    FaultSchedule,
    FaultSpec,
    PoisonedRowError,
    TransientShardError,
    corrupt_spill_entries,
)
from faultkit.retry import RetryingSource, RetryPolicy


@pytest.fixture(scope="module")
def train_matrix():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    matrices = no_join_strategy().matrices(dataset)
    return matrices.X_train, matrices.y_train


def fast_policy(**kwargs):
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("base_delay_s", 0.0)
    return RetryPolicy(**kwargs)


class TestSchedule:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(shard=-1)
        with pytest.raises(ValueError):
            FaultSpec(shard=0, kind="meteor_strike")
        with pytest.raises(ValueError):
            FaultSpec(shard=0, attempts=())
        with pytest.raises(ValueError):
            FaultSpec(shard=0, delay_s=-1.0)

    def test_duplicate_shard_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault"):
            FaultSchedule([FaultSpec(shard=2), FaultSpec(shard=2)])

    def test_fault_for_matches_shard_attempt_kind(self):
        schedule = FaultSchedule([FaultSpec(shard=3, attempts=(1, 2))])
        assert schedule.fault_for(3, 1, TRANSIENT) is not None
        assert schedule.fault_for(3, 2, TRANSIENT) is not None
        assert schedule.fault_for(3, 3, TRANSIENT) is None
        assert schedule.fault_for(4, 1, TRANSIENT) is None
        assert schedule.fault_for(3, 1, SLOW) is None

    def test_seeded_is_deterministic(self):
        a = FaultSchedule.seeded(20, rate=0.3, seed=5)
        b = FaultSchedule.seeded(20, rate=0.3, seed=5)
        assert a.shards() == b.shards()
        assert FaultSchedule.seeded(20, rate=0.3, seed=6).shards() != a.shards()

    def test_seeded_faults_at_least_one_shard(self):
        # Even a tiny rate over few shards must exercise recovery.
        for seed in range(10):
            assert len(FaultSchedule.seeded(4, rate=0.01, seed=seed)) >= 1
        assert len(FaultSchedule.seeded(4, rate=0.0)) == 0
        assert len(FaultSchedule.seeded(0, rate=0.5)) == 0

    def test_describe_round_trips_the_plan(self):
        schedule = FaultSchedule.seeded(8, rate=0.5, seed=1)
        described = schedule.describe()["faults"]
        assert [f["shard"] for f in described] == list(schedule.shards())


class TestFaultInjectingSource:
    def test_transient_fault_raises_then_clears(self, train_matrix):
        inner = MatrixSource(*train_matrix, shard_rows=17)
        registry = MetricsRegistry()
        source = FaultInjectingSource(
            inner, FaultSchedule([FaultSpec(shard=1)]), registry=registry
        )
        with pytest.raises(TransientShardError, match="shard 1, attempt 1"):
            source.shard(1)
        X, y = source.shard(1)  # attempt 2 succeeds
        expected_X, expected_y = inner.shard(1)
        assert np.array_equal(X.codes, expected_X.codes)
        assert np.array_equal(y, expected_y)
        assert source.attempts(1) == 2
        assert registry.get("resilience.faults_injected").value == 1

    def test_slow_fault_only_delays(self, train_matrix):
        inner = MatrixSource(*train_matrix, shard_rows=17)
        registry = MetricsRegistry()
        source = FaultInjectingSource(
            inner,
            FaultSchedule([FaultSpec(shard=0, kind=SLOW, delay_s=0.0)]),
            registry=registry,
        )
        X, y = source.shard(0)
        assert np.array_equal(y, inner.shard(0)[1])
        assert registry.get("resilience.faults_injected.slow").value == 1

    def test_retrying_source_survives_schedule_bit_identically(
        self, train_matrix
    ):
        inner = MatrixSource(*train_matrix, shard_rows=11)
        schedule = FaultSchedule.seeded(inner.n_shards, rate=0.5, seed=3)
        registry = MetricsRegistry()
        source = RetryingSource(
            FaultInjectingSource(inner, schedule, registry=registry),
            fast_policy(),
            registry=registry,
        )
        faulted = list(source.iter_shards())
        clean = list(inner.iter_shards())
        assert [i for i, _, _ in faulted] == [i for i, _, _ in clean]
        for (_, Xf, yf), (_, Xc, yc) in zip(faulted, clean):
            assert np.array_equal(Xf.codes, Xc.codes)
            assert np.array_equal(yf, yc)
        assert registry.get("resilience.retries").value == len(
            schedule.shards(TRANSIENT)
        )

    def test_exhausted_retries_propagate_to_consumer(self, train_matrix):
        inner = MatrixSource(*train_matrix, shard_rows=11)
        # Fault every attempt the policy is willing to make.
        schedule = FaultSchedule([FaultSpec(shard=2, attempts=(1, 2, 3))])
        source = RetryingSource(
            FaultInjectingSource(inner, schedule),
            fast_policy(max_attempts=3),
        )
        with pytest.raises(TransientShardError):
            list(source.iter_shards())


class TestSpillCorruption:
    def test_corrupt_entry_detected_and_reencoded(self, train_matrix):
        inner = MatrixSource(*train_matrix, shard_rows=13)
        registry = MetricsRegistry()
        with SpillCacheSource(inner, registry=registry) as cached:
            first = [
                (X.codes.copy(), y.copy())
                for _, X, y in cached.iter_shards()
            ]
            schedule = FaultSchedule(
                [FaultSpec(shard=1, kind=CORRUPT_SPILL)]
            )
            corrupted = corrupt_spill_entries(schedule, cached)
            assert corrupted == [1]
            second = [
                (X.codes.copy(), y.copy())
                for _, X, y in cached.iter_shards()
            ]
        for (cf, yf), (cs, ys) in zip(first, second):
            assert np.array_equal(cf, cs)
            assert np.array_equal(yf, ys)
        assert cached.stats.corruptions == 1
        assert registry.get("data.spill.corruptions").value == 1

    def test_corruption_on_unspilled_shard_is_a_noop(self, train_matrix):
        inner = MatrixSource(*train_matrix, shard_rows=13)
        with SpillCacheSource(inner) as cached:
            schedule = FaultSchedule(
                [FaultSpec(shard=0, kind=CORRUPT_SPILL)]
            )
            # Nothing spilled yet: nothing to corrupt.
            assert corrupt_spill_entries(schedule, cached) == []


class TestFaultInjectingModel:
    class _Echo:
        classes_ = (0, 1)

        def predict(self, X):
            return np.zeros(X.n_rows, dtype=np.int64)

    def _matrix(self, train_matrix, rows=slice(None)):
        X, _ = train_matrix
        return X

    def test_poison_mask_is_content_keyed_and_deterministic(
        self, train_matrix
    ):
        X, _ = train_matrix
        model = FaultInjectingModel(self._Echo(), rate=0.1, seed=0)
        mask = model.poisoned_mask(X)
        assert mask.dtype == bool and mask.shape == (X.n_rows,)
        assert np.array_equal(
            mask, FaultInjectingModel(self._Echo(), rate=0.1, seed=0)
            .poisoned_mask(X)
        )

    def test_predict_raises_on_poison_and_passes_clean_rows(
        self, train_matrix
    ):
        X, _ = train_matrix
        model = FaultInjectingModel(self._Echo(), rate=0.15, seed=0)
        mask = model.poisoned_mask(X)
        assert mask.any(), "pick a rate/seed that poisons this fixture"
        with pytest.raises(PoisonedRowError, match="poisoned row"):
            model.predict(X)
        clean = X.take_rows(np.flatnonzero(~mask))
        assert model.predict(clean).shape == (int((~mask).sum()),)

    def test_rate_zero_never_poisons(self, train_matrix):
        X, _ = train_matrix
        model = FaultInjectingModel(self._Echo(), rate=0.0)
        assert not model.poisoned_mask(X).any()
        assert model.predict(X).shape == (X.n_rows,)

    def test_delegates_model_attributes(self):
        assert FaultInjectingModel(self._Echo()).classes_ == (0, 1)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjectingModel(self._Echo(), rate=1.5)


class TestKillSwitch:
    def test_kills_on_the_nth_save_before_writing(self, tmp_path):
        manager = KillSwitchCheckpoint(tmp_path, kill_after=3, keep=5)
        manager.save(0, 1, "one")
        manager.save(0, 2, "two")
        with pytest.raises(ChaosKilledError, match="checkpoint save 3"):
            manager.save(0, 3, "three")
        # The kill lands before the write: the newest checkpoint on
        # disk is the one before it.
        assert manager.latest() == (0, 2, "two")
        assert manager.metrics.get("resilience.checkpoints").value == 2

    def test_kill_error_is_not_retryable(self, train_matrix):
        # A simulated process death must never be absorbed by a retry
        # policy the way a transient read is.
        assert issubclass(ChaosKilledError, ReproError)
        assert not issubclass(ChaosKilledError, OSError)
        assert not RetryPolicy().is_retryable(ChaosKilledError("kill"))

    def test_counter_spans_epochs(self, train_matrix, tmp_path):
        from repro.ml import MLPClassifier
        from repro.streaming import StreamingTrainer

        source = MatrixSource(*train_matrix, shard_rows=40)
        manager = KillSwitchCheckpoint(
            tmp_path, kill_after=source.n_shards + 1
        )
        model = MLPClassifier(hidden_sizes=(4,), epochs=2, random_state=0)
        with pytest.raises(ChaosKilledError):
            StreamingTrainer(model, checkpoint=manager).fit(source)
        # Epoch 1 saved every step; the kill came one step into epoch 2.
        epoch, shard, _ = manager.latest()
        assert (epoch, shard) == (1, 0)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            KillSwitchCheckpoint(tmp_path, kill_after=0)
