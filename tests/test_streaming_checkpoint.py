"""Checkpoints: atomic on disk, and resume bit-identical in the trainer."""

import pickle

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource
from repro.datasets import generate_real_world
from repro.errors import CheckpointError
from repro.ml import (
    CategoricalNB,
    DecisionTreeClassifier,
    L1LogisticRegression,
    MLPClassifier,
)
from repro.obs import MetricsRegistry
from repro.streaming import CheckpointManager, StreamingTrainer

from faultkit.chaos import (
    ChaosKilledError,
    KillSwitchCheckpoint,
    models_identical,
)


@pytest.fixture(scope="module")
def train_matrix():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    matrices = no_join_strategy().matrices(dataset)
    return matrices.X_train, matrices.y_train


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = {"weights": np.arange(5.0), "cursor": (1, 2)}
        manager.save(1, 2, state)
        loaded = manager.load(1, 2)
        assert np.array_equal(loaded["weights"], state["weights"])
        assert loaded["cursor"] == (1, 2)

    def test_latest_prefers_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(0, 3, "old")
        manager.save(0, 5, "mid")
        manager.save(1, 0, "new")
        epoch, shard, state = manager.latest()
        assert (epoch, shard, state) == (1, 0, "new")

    def test_latest_skips_corrupt_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(0, 1, "good")
        newest = manager.save(0, 2, "torn")
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte: checksum must catch it
        newest.write_bytes(bytes(blob))
        epoch, shard, state = manager.latest()
        assert (epoch, shard, state) == (0, 1, "good")

    def test_latest_skips_truncated_and_foreign_files(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(2, 0, "good")
        manager.save(2, 1, "torn").write_bytes(b"RCK")  # truncated magic
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        assert manager.latest()[2] == "good"

    def test_empty_directory_resumes_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "never-created").latest() is None

    def test_prune_keeps_most_recent(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for shard in range(5):
            manager.save(0, shard, shard)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-000000-000003.pkl", "ckpt-000000-000004.pkl"]

    def test_no_temp_files_left_behind(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, 0, list(range(1000)))
        assert not list(tmp_path.glob("*.tmp"))

    def test_unpicklable_state_leaves_no_artifacts(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(Exception):
            manager.save(0, 0, lambda: None)  # lambdas don't pickle
        assert not list(tmp_path.iterdir())

    def test_cursor_range_checked(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError, match="out of range"):
            manager.save(-1, 0, "x")
        with pytest.raises(CheckpointError, match="out of range"):
            manager.save(0, 10**6, "x")

    def test_load_missing_cursor_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            CheckpointManager(tmp_path).load(0, 0)

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_metrics_account_saves_and_resumes(
        self, train_matrix, tmp_path
    ):
        """Only a resume the trainer accepts counts; finding a
        checkpoint (``latest``) is a pure read."""
        source = MatrixSource(*train_matrix, shard_rows=29)
        registry = MetricsRegistry()
        manager = CheckpointManager(tmp_path, registry=registry)
        StreamingTrainer(_mlp(), seed=0, checkpoint=manager).fit(source)
        saves = registry.get("resilience.checkpoints").value
        assert saves == 2 * source.n_shards
        assert registry.get("resilience.checkpoint_bytes").count == saves
        manager.latest()
        assert registry.get("resilience.resumes").value == 0
        with pytest.raises(CheckpointError, match="different run"):
            StreamingTrainer(
                _mlp(epochs=3), seed=0, checkpoint=manager, resume=True
            ).fit(source)
        assert registry.get("resilience.resumes").value == 0
        StreamingTrainer(
            _mlp(), seed=0, checkpoint=manager, resume=True
        ).fit(source)
        assert registry.get("resilience.resumes").value == 1


def _mlp(epochs=2):
    return MLPClassifier(hidden_sizes=(8,), epochs=epochs, random_state=0)


def _cursor(steps: int, n_shards: int) -> tuple[int, int]:
    """The ``(epoch, shard)`` checkpoint cursor after ``steps`` steps."""
    return divmod(steps, n_shards)


class TestKillResumeBitIdentity:
    """The acceptance property: kill after shard step k, resume from
    step k's checkpoint, same bits.  The kill switch fires on a save
    before writing it, so keeping k steps means killing on save k + 1.
    """

    # Four shards: 4 saved steps resume at epoch 1's start, the others
    # mid-epoch.
    @pytest.mark.parametrize("saved_steps", [1, 2, 3, 4, 5])
    def test_mlp_resume_matches_uninterrupted(
        self, train_matrix, tmp_path, saved_steps
    ):
        source = MatrixSource(*train_matrix, shard_rows=29)
        baseline = _mlp()
        StreamingTrainer(baseline, seed=0).fit(source)

        victim = _mlp()
        killer = KillSwitchCheckpoint(tmp_path, saved_steps + 1)
        with pytest.raises(ChaosKilledError):
            StreamingTrainer(
                victim, seed=0, resume=True, checkpoint=killer,
            ).fit(source)
        assert killer.latest()[:2] == _cursor(saved_steps, source.n_shards)
        resumed = _mlp()
        StreamingTrainer(
            resumed, seed=0, checkpoint=tmp_path, resume=True
        ).fit(source)
        assert models_identical(baseline, resumed)
        np.testing.assert_array_equal(
            baseline.predict(train_matrix[0]), resumed.predict(train_matrix[0])
        )

    def test_sparse_checkpoint_cadence_still_bit_identical(
        self, train_matrix, tmp_path
    ):
        source = MatrixSource(*train_matrix, shard_rows=29)
        baseline = _mlp()
        StreamingTrainer(baseline, seed=0).fit(source)
        victim = _mlp()
        killer = KillSwitchCheckpoint(tmp_path, kill_after=3)
        with pytest.raises(ChaosKilledError):
            StreamingTrainer(
                victim, seed=0, checkpoint=killer,
                checkpoint_every=3, resume=True,
            ).fit(source)
        # 4 shards, a save every 3 steps and at each epoch's end: the
        # third save (epoch 1, step 3) is the kill, so the newest
        # checkpoint is epoch 0's end and the resume re-trains the three
        # steps no checkpoint holds.
        assert killer.latest()[:2] == (1, 0)
        resumed = _mlp()
        StreamingTrainer(
            resumed, seed=0, checkpoint=str(tmp_path),
            checkpoint_every=3, resume=True,
        ).fit(source)
        assert models_identical(baseline, resumed)

    def test_resume_with_empty_directory_is_a_fresh_run(
        self, train_matrix, tmp_path
    ):
        source = MatrixSource(*train_matrix, shard_rows=29)
        baseline = _mlp()
        StreamingTrainer(baseline, seed=0).fit(source)
        resumed = _mlp()
        StreamingTrainer(
            resumed, seed=0, checkpoint=tmp_path, resume=True
        ).fit(source)
        assert models_identical(baseline, resumed)

    def test_completed_run_resumes_to_identical_model_without_steps(
        self, train_matrix, tmp_path
    ):
        source = MatrixSource(*train_matrix, shard_rows=29)
        finished = _mlp()
        StreamingTrainer(
            finished, seed=0, checkpoint=tmp_path, resume=True
        ).fit(source)
        again = _mlp()
        StreamingTrainer(
            again, seed=0, checkpoint=tmp_path, resume=True
        ).fit(source)
        assert models_identical(finished, again)


class TestTrainerGuards:
    def test_fingerprint_mismatch_raises(self, train_matrix, tmp_path):
        source = MatrixSource(*train_matrix, shard_rows=29)
        StreamingTrainer(_mlp(), seed=0, checkpoint=tmp_path).fit(source)
        with pytest.raises(CheckpointError, match="different run"):
            StreamingTrainer(
                _mlp(epochs=3), seed=0, checkpoint=tmp_path, resume=True
            ).fit(source)

    def test_checkpoint_written_with_a_mode_is_refused(
        self, train_matrix, tmp_path
    ):
        """A 10.x checkpoint's fingerprint carried the trainer's
        ``mode``; resuming one fails loudly instead of restarting."""
        source = MatrixSource(*train_matrix, shard_rows=29)
        manager = CheckpointManager(tmp_path)
        StreamingTrainer(_mlp(), seed=0, checkpoint=manager).fit(source)
        epoch, shard, state = manager.latest()
        state["fingerprint"] = {**state["fingerprint"], "mode": "exact"}
        manager.save(epoch, shard, state)
        with pytest.raises(CheckpointError, match="different run"):
            StreamingTrainer(
                _mlp(), seed=0, checkpoint=manager, resume=True
            ).fit(source)

    @pytest.mark.parametrize(
        "model",
        [
            CategoricalNB(alpha=1.0),
            L1LogisticRegression(lam=1e-3, max_iter=100, tol=1e-5),
            DecisionTreeClassifier(minsplit=10, cp=0.001),
        ],
        ids=lambda model: type(model).__name__,
    )
    def test_fit_stream_models_refuse_checkpoint(
        self, train_matrix, tmp_path, model
    ):
        source = MatrixSource(*train_matrix, shard_rows=29)
        with pytest.raises(CheckpointError, match="fit_stream"):
            StreamingTrainer(model, checkpoint=tmp_path).fit(source)
        assert list(tmp_path.iterdir()) == []

    def test_resume_requires_manager(self):
        with pytest.raises(ValueError, match="resume"):
            StreamingTrainer(_mlp(), resume=True)

    def test_model_epochs_validated(self, train_matrix):
        """The model's ``epochs`` sets the loop, so a streamed fit
        rejects 0 as the model's own ``fit`` does, instead of
        returning an untrained model."""
        source = MatrixSource(*train_matrix, shard_rows=29)
        with pytest.raises(ValueError, match="epochs"):
            StreamingTrainer(_mlp(epochs=0)).fit(source)

    def test_checkpoint_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            StreamingTrainer(_mlp(), checkpoint=tmp_path, checkpoint_every=0)

    def test_checkpoint_state_is_a_loadable_model(
        self, train_matrix, tmp_path
    ):
        """The on-disk payload carries the whole model, pickled."""
        source = MatrixSource(*train_matrix, shard_rows=29)
        manager = CheckpointManager(tmp_path)
        StreamingTrainer(
            _mlp(epochs=1), seed=0, checkpoint=manager
        ).fit(source)
        _, _, state = manager.latest()
        assert isinstance(state["model"], MLPClassifier)
        assert isinstance(
            pickle.loads(pickle.dumps(state["model"])), MLPClassifier
        )
