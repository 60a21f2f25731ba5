"""The chaos leg: training under faults, correctness asserted.

Fault injection (:mod:`faultkit.faults`) and the recovery it checks
(:class:`~faultkit.retry.RetryPolicy`,
:class:`~repro.streaming.CheckpointManager`) are only trustworthy
together, so :func:`chaos_training_run` runs them together and *checks
the answers*: it fits a clean baseline, then the same model under a
seeded transient-fault schedule read through a
:class:`~faultkit.retry.RetryingSource`, then a third run that
:class:`KillSwitchCheckpoint` kills at its ``kill_after``-th checkpoint
write and that is resumed from the newest checkpoint on disk.  All
three must produce bit-identical parameter arrays; a chaos run that
merely *finishes* proves nothing.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.strategies import no_join_strategy
from repro.data.source import FeatureSource
from repro.data.spec import SourceSpec
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.streaming.checkpoint import CheckpointManager

from .faults import TRANSIENT, FaultInjectingSource, FaultSchedule
from .retry import RetryingSource, RetryPolicy


class ChaosKilledError(ReproError):
    """The kill switch fired: the simulated process death mid-training.

    Deliberately *not* an :class:`OSError`: a process crash is not a
    transient read, so no :class:`~faultkit.retry.RetryPolicy` may
    swallow it — it must reach the top of ``fit`` like a real SIGKILL
    would end it.
    """


class KillSwitchCheckpoint(CheckpointManager):
    """Kill the fit on its ``kill_after``-th checkpoint save.

    The save raises :class:`ChaosKilledError` before writing, so the
    newest checkpoint on disk is the previous one and the steps since
    it are lost, as they would be in a real crash.  With
    ``checkpoint_every=1`` the trainer saves once per shard step, so
    the kill lands right after step ``kill_after``.  The count spans
    epochs and does not depend on which shards were read: a fit keeps
    its first shards resident and never re-reads them.
    """

    def __init__(self, directory, kill_after: int, **kwargs):
        if kill_after < 1:
            raise ValueError(f"kill_after must be >= 1, got {kill_after}")
        super().__init__(directory, **kwargs)
        self.kill_after = kill_after
        self.saves = 0

    def save(self, epoch: int, shard: int, state) -> Path:
        self.saves += 1
        if self.saves >= self.kill_after:
            raise ChaosKilledError(
                f"kill switch: checkpoint save {self.saves} at cursor "
                f"({epoch}, {shard}), simulating process death"
            )
        return super().save(epoch, shard, state)


def model_arrays(model) -> list[np.ndarray]:
    """Every numpy array reachable from the model's state, in stable order.

    Walks ``vars(model)`` (attribute names sorted) through nested
    lists/tuples/dicts.  This is the comparison basis for the
    bit-identity assertions: two models are "the same fit" iff their
    array lists match pairwise in shape, dtype and bytes.
    """
    out: list[np.ndarray] = []

    def walk(value) -> None:
        if isinstance(value, np.ndarray):
            out.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for key in sorted(value, key=repr):
                walk(value[key])

    state = vars(model)
    for name in sorted(state):
        walk(state[name])
    return out


def models_identical(a, b) -> bool:
    """Whether two fitted models hold bit-identical parameter arrays."""
    xs, ys = model_arrays(a), model_arrays(b)
    if len(xs) != len(ys):
        return False
    return all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(xs, ys)
    )


def _counter_value(registry: MetricsRegistry, name: str) -> int | float:
    metric = registry.get(name)
    return 0 if metric is None else metric.value


def chaos_training_run(
    dataset,
    model_key: str = "ann",
    *,
    n_shards: int = 6,
    epochs: int = 2,
    fault_rate: float = 0.25,
    kill_after: int | None = None,
    seed: int = 0,
    scale=None,
) -> dict:
    """Train clean, under faults, and through a kill/resume; compare.

    Returns a JSON-serializable verdict dict whose ``ok`` is true iff
    the faulted fit and the killed-then-resumed fit both reproduced the
    clean baseline bit for bit *and* the machinery demonstrably fired
    (faults injected, retries taken, checkpoints written, one resume).
    ``effective_fault_rate`` is the share of shards the schedule faults.

    Parameters
    ----------
    dataset:
        A :class:`~repro.datasets.splits.SplitDataset`.
    model_key:
        ``"ann"``, the one streaming model whose epoch loop can
        checkpoint (a ``fit_stream`` model cannot be cut mid-pass).
    n_shards, epochs:
        Shard layout and the model's epoch count (set with
        ``clone(epochs=...)``); ``kill_after`` defaults to half the
        total shard steps (at least 2) so the kill lands mid-run.
        The leg checkpoints every step, so the kill comes at step
        ``kill_after``, before its checkpoint is written.
    fault_rate:
        Fraction of shards given a first-attempt transient fault
        (:meth:`FaultSchedule.seeded` guarantees at least one).
    """
    from repro.experiments.runner import make_streaming_model
    from repro.streaming import StreamingTrainer

    if model_key != "ann":
        raise ValueError(
            f"chaos training needs the checkpointable streaming model "
            f"'ann', got {model_key!r}"
        )
    registry = MetricsRegistry()
    spec = SourceSpec(n_shards=n_shards)
    train = spec.split_sources(
        dataset, no_join_strategy(), splits=("train",), registry=registry
    )["train"]
    total_steps = epochs * train.n_shards
    if kill_after is None:
        kill_after = max(2, total_steps // 2)
    # The kill comes on a save, before it is written: from the second
    # save on there is a checkpoint to resume from, and the last save
    # is as good a kill point as any.
    if not 2 <= kill_after <= total_steps:
        raise ValueError(
            f"kill_after must lie in [2, {total_steps}] so the kill "
            f"leaves a checkpoint to resume from, got {kill_after}"
        )

    schedule = FaultSchedule.seeded(
        train.n_shards, rate=fault_rate, seed=seed
    )

    def fresh_model():
        return make_streaming_model(model_key, scale, seed).clone(
            epochs=epochs
        )

    def trainer(model, **extra) -> StreamingTrainer:
        return StreamingTrainer(model, seed=seed, **extra)

    def faulted(source: FeatureSource) -> FeatureSource:
        # Fresh wrappers per leg: attempt counters restart, so every
        # leg faces the same schedule from the same starting state.
        injected = FaultInjectingSource(source, schedule, registry=registry)
        return RetryingSource(
            injected,
            RetryPolicy(max_attempts=3, base_delay_s=0.0005, seed=seed),
            registry=registry,
        )

    try:
        baseline = fresh_model()
        trainer(baseline).fit(train)

        survivor = fresh_model()
        trainer(survivor).fit(faulted(train))

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as directory:
            killer = KillSwitchCheckpoint(
                directory, kill_after, registry=registry
            )
            victim = fresh_model()
            killed = False
            try:
                trainer(
                    victim, checkpoint=killer, resume=True
                ).fit(faulted(train))
            except ChaosKilledError:
                killed = True
            resumed = fresh_model()
            trainer(
                resumed,
                checkpoint=CheckpointManager(directory, registry=registry),
                resume=True,
            ).fit(faulted(train))
    finally:
        train.close()

    counters = {
        name: _counter_value(registry, name)
        for name in (
            "resilience.faults_injected",
            "resilience.retries",
            "resilience.checkpoints",
            "resilience.resumes",
        )
    }
    verdict = {
        "model_key": model_key,
        "n_shards": n_shards,
        "epochs": epochs,
        "fault_rate": fault_rate,
        "effective_fault_rate": (
            len(schedule.shards(TRANSIENT)) / train.n_shards
        ),
        "kill_after": kill_after,
        "killed": killed,
        "faulted_identical": models_identical(baseline, survivor),
        "resumed_identical": models_identical(baseline, resumed),
        **counters,
    }
    verdict["ok"] = bool(
        killed
        and verdict["faulted_identical"]
        and verdict["resumed_identical"]
        and counters["resilience.faults_injected"] >= 1
        and counters["resilience.retries"] >= 1
        and counters["resilience.checkpoints"] >= 1
        and counters["resilience.resumes"] >= 1
    )
    return verdict
