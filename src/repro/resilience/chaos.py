"""Chaos soak: training and serving under faults, correctness asserted.

Fault injection (:mod:`repro.resilience.faults`) and recovery
machinery (:class:`~repro.resilience.RetryPolicy`,
:class:`~repro.resilience.CheckpointManager`, the serving plane's load
shedding and quarantine) are only trustworthy together, so this module
runs them together and *checks the answers*:

- **Training leg** (:func:`chaos_training_run`) — fits a clean
  baseline, then the same model under a seeded transient-fault
  schedule with retrying prefetch, then a third run that is killed
  after ``kill_after`` shard steps and resumed from its checkpoint.
  All three must produce bit-identical parameter arrays; a chaos run
  that merely *finishes* proves nothing.
- **Serving leg** (:func:`chaos_serving_run`) — replays one request
  stream through a clean server and through a server whose model is
  wrapped in :class:`~repro.resilience.FaultInjectingModel`, with a
  bounded admission queue and quarantine enabled.  Every admitted,
  non-poisoned request must answer exactly what the clean server
  answered; poisoned rows must surface as
  :class:`~repro.resilience.PoisonedRowError`, shed requests and
  expired deadlines must match the server's own accounting.

:func:`chaos_soak` runs both legs and folds the verdicts into one
:class:`ChaosReport` (``repro chaos`` prints its :meth:`render`).
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.strategies import no_join_strategy
from repro.data.prefetch import PrefetchingSource
from repro.data.source import FeatureSource, SourceDecorator
from repro.data.spec import SourceSpec
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServerOverloadedError,
)
from repro.obs import MetricsRegistry
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import (
    FaultInjectingModel,
    FaultInjectingSource,
    FaultSchedule,
    PoisonedRowError,
)
from repro.resilience.retry import RetryPolicy

#: Streaming models whose training loop can checkpoint (epoch-looped
#: paths; count/histogram ``fit_stream`` models cannot be cut mid-pass).
CHAOS_TRAINABLE = ("ann", "lr_l1")


class ChaosKilledError(ReproError):
    """The kill switch fired: the simulated process death mid-training.

    Deliberately *not* an :class:`OSError`: a process crash is not a
    transient read, so no :class:`~repro.resilience.RetryPolicy` may
    swallow it — it must reach the top of ``fit`` like a real SIGKILL
    would end it.
    """


class KillSwitchSource(SourceDecorator):
    """Kill the pass after ``kill_after`` shards have been delivered.

    Wraps the *outermost* source (after prefetch), and overrides
    :meth:`iter_shards` around the wrapped iterator rather than relying
    on the base class's per-index loop — otherwise a wrapped
    :class:`~repro.data.PrefetchingSource`'s own background pass would
    be silently bypassed.  The counter spans epochs: "delivered" means
    shards the *trainer consumed*, which is exactly the cursor a
    checkpoint records.
    """

    def __init__(self, source: FeatureSource, kill_after: int):
        if kill_after < 1:
            raise ValueError(f"kill_after must be >= 1, got {kill_after}")
        super().__init__(source)
        self.kill_after = kill_after
        self.delivered = 0

    def shard(self, index: int):
        return self.source.shard(index)

    def iter_shards(self, order=None):
        for item in self.source.iter_shards(order):
            if self.delivered >= self.kill_after:
                raise ChaosKilledError(
                    f"kill switch: {self.delivered} shards delivered, "
                    f"simulating process death"
                )
            self.delivered += 1
            yield item


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
    checkpoint_dir: str | Path | None = None,
    registry: MetricsRegistry | None = None,
) -> dict:
    """Train clean, under faults, and through a kill/resume; compare.

    Returns a JSON-serializable verdict dict whose ``ok`` is true iff
    the faulted fit and the killed-then-resumed fit both reproduced the
    clean baseline bit for bit *and* the machinery demonstrably fired
    (faults injected, retries taken, checkpoints written, one resume).

    Parameters
    ----------
    dataset:
        A :class:`~repro.datasets.splits.SplitDataset`.
    model_key:
        One of :data:`CHAOS_TRAINABLE` (epoch-looped trainers only).
    n_shards, epochs:
        Shard layout and pass count; ``kill_after`` defaults to half
        the total shard steps so the kill lands mid-run.
    fault_rate:
        Fraction of shards given a first-attempt transient fault
        (:meth:`FaultSchedule.seeded` guarantees at least one).
    checkpoint_dir:
        Where the kill/resume leg checkpoints; a private temporary
        directory when omitted.
    """
    from repro.experiments.runner import make_streaming_model
    from repro.streaming import StreamingTrainer

    if model_key not in CHAOS_TRAINABLE:
        raise ValueError(
            f"chaos training needs a checkpointable streaming model "
            f"{CHAOS_TRAINABLE}, got {model_key!r}"
        )
    registry = registry if registry is not None else MetricsRegistry()
    mode = "incremental" if model_key == "lr_l1" else "exact"
    spec = SourceSpec(n_shards=n_shards)
    train = spec.split_sources(
        dataset, no_join_strategy(), splits=("train",), registry=registry
    )["train"]
    total_steps = epochs * train.n_shards
    if kill_after is None:
        kill_after = max(1, total_steps // 2)
    if not 1 <= kill_after < total_steps:
        raise ValueError(
            f"kill_after must lie in [1, {total_steps}) so the kill "
            f"lands mid-run, got {kill_after}"
        )

    def trainer(model, **extra) -> StreamingTrainer:
        return StreamingTrainer(
            model, epochs=epochs, seed=seed, mode=mode, **extra
        )

    def faulted(source: FeatureSource) -> FeatureSource:
        # Fresh wrappers per leg: attempt counters restart, so every
        # leg faces the same schedule from the same starting state.
        schedule = FaultSchedule.seeded(
            source.n_shards, rate=fault_rate, seed=seed
        )
        injected = FaultInjectingSource(source, schedule, registry=registry)
        return PrefetchingSource(
            injected,
            registry=registry,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0005, seed=seed
            ),
        )

    try:
        baseline = make_streaming_model(model_key, scale, seed)
        trainer(baseline).fit(train)

        survivor = make_streaming_model(model_key, scale, seed)
        trainer(survivor).fit(faulted(train))

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as private:
            manager = CheckpointManager(
                checkpoint_dir if checkpoint_dir is not None else private,
                registry=registry,
            )
            victim = make_streaming_model(model_key, scale, seed)
            killer = KillSwitchSource(faulted(train), kill_after)
            killed = False
            try:
                trainer(
                    victim, checkpoint=manager, resume=True
                ).fit(killer)
            except ChaosKilledError:
                killed = True
            resumed = make_streaming_model(model_key, scale, seed)
            trainer(
                resumed, checkpoint=manager, resume=True
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


def chaos_serving_run(
    dataset,
    model_key: str = "dt_gini",
    *,
    rows: int = 160,
    poison_rate: float = 0.08,
    max_queue_rows: int = 16,
    deadline_rows: int = 4,
    seed: int = 0,
    scale=None,
) -> dict:
    """Serve one request stream clean and under chaos; compare answers.

    The chaos server's model poisons a content-keyed fraction of rows,
    its admission queue is bounded below the stream length (so shedding
    *must* happen; shed requests are retried after an explicit flush,
    mimicking a client honouring back-pressure), and quarantine
    bisection isolates poisoned rows.  ``deadline_rows`` extra requests
    are submitted with a microsecond deadline and must all expire.

    ``ok`` is true iff every admitted non-poisoned request matched the
    clean server's answer, at least one row was poisoned (when
    ``poison_rate > 0``) and the server's shed/quarantine/deadline
    accounting equals what the client actually observed.
    """
    from repro.experiments.runner import fit_pipeline
    from repro.serving.artifacts import artifact_from_pipeline
    from repro.serving.benchmark import _request_stream
    from repro.serving.server import PredictionServer

    pipeline = fit_pipeline(dataset, model_key, no_join_strategy(), scale=scale)
    artifact = artifact_from_pipeline(pipeline, dataset.schema)
    chaos_artifact = dataclasses.replace(
        artifact,
        model=FaultInjectingModel(artifact.model, rate=poison_rate, seed=seed),
    )

    with PredictionServer(
        artifact, dataset.schema, max_wait_s=None, background_flush=False
    ) as clean_server:
        requests = _request_stream(clean_server, dataset, rows)
        clean = [clean_server.predict_one(row) for row in requests]

    shed = 0
    poisoned: list[int] = []
    mismatched = 0
    expired = 0
    with PredictionServer(
        chaos_artifact,
        dataset.schema,
        max_wait_s=None,
        background_flush=False,
        max_queue_rows=max_queue_rows,
        quarantine=True,
    ) as server:
        handles = []
        for row in requests:
            try:
                handles.append(server.submit(row))
            except ServerOverloadedError:
                # A well-behaved client's response to back-pressure:
                # drain, then resubmit the shed request.
                shed += 1
                server.flush()
                handles.append(server.submit(row))
        server.flush()
        for index, handle in enumerate(handles):
            try:
                answer = handle.result(timeout=60.0)
            except PoisonedRowError:
                poisoned.append(index)
            else:
                if answer != clean[index]:
                    mismatched += 1
        # The deadline leg: admission long before the flush, with a
        # deadline only a time machine could meet.
        late = [
            server.submit(requests[i % len(requests)], deadline_s=1e-6)
            for i in range(deadline_rows)
        ]
        server.flush()
        for handle in late:
            try:
                handle.result(timeout=60.0)
            except DeadlineExceededError:
                expired += 1
        stats = server.stats()

    verdict = {
        "model_key": model_key,
        "rows": rows,
        "poison_rate": poison_rate,
        "max_queue_rows": max_queue_rows,
        "mismatched": mismatched,
        "shed": shed,
        "poisoned_rows": len(poisoned),
        "deadline_rows": deadline_rows,
        "deadline_expired": expired,
        "stats": stats.as_dict(),
    }
    verdict["ok"] = bool(
        mismatched == 0
        and shed >= 1
        and (poison_rate == 0 or poisoned)
        and expired == deadline_rows
        and stats.shed_requests == shed
        and stats.rows_quarantined == len(poisoned)
        and stats.deadline_expired == expired
    )
    return verdict


@dataclass
class ChaosReport:
    """Both legs' verdicts, renderable for ``repro chaos``."""

    dataset: str
    training: dict
    serving: dict

    @property
    def ok(self) -> bool:
        """Whether every chaos assertion held."""
        return bool(self.training.get("ok") and self.serving.get("ok"))

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "ok": self.ok,
            "training": self.training,
            "serving": self.serving,
        }

    def render(self) -> str:
        t, s = self.training, self.serving
        check = {True: "ok", False: "FAILED"}
        lines = [
            f"Chaos soak: {self.dataset}",
            (
                f"  training [{check[bool(t.get('ok'))]}] "
                f"{t['model_key']}, {t['n_shards']} shards x "
                f"{t['epochs']} epoch(s), killed after shard "
                f"{t['kill_after']}"
            ),
            (
                f"    faults injected {t['resilience.faults_injected']}, "
                f"retries {t['resilience.retries']}, checkpoints "
                f"{t['resilience.checkpoints']}, resumes "
                f"{t['resilience.resumes']}"
            ),
            (
                f"    bit-identical to clean baseline: faulted "
                f"{t['faulted_identical']}, resumed {t['resumed_identical']}"
            ),
            (
                f"  serving  [{check[bool(s.get('ok'))]}] "
                f"{s['model_key']}, {s['rows']} requests, queue bound "
                f"{s['max_queue_rows']}"
            ),
            (
                f"    shed {s['shed']}, quarantined {s['poisoned_rows']} "
                f"poisoned row(s), {s['deadline_expired']}/"
                f"{s['deadline_rows']} deadline(s) expired, "
                f"{s['mismatched']} mismatched answer(s)"
            ),
            f"chaos soak {'PASSED' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)


def chaos_soak(
    dataset,
    train_model: str = "ann",
    serve_model: str = "dt_gini",
    *,
    n_shards: int = 6,
    epochs: int = 2,
    fault_rate: float = 0.25,
    kill_after: int | None = None,
    rows: int = 160,
    poison_rate: float = 0.08,
    max_queue_rows: int = 16,
    seed: int = 0,
    scale=None,
    checkpoint_dir: str | Path | None = None,
) -> ChaosReport:
    """Run both chaos legs over one dataset (see the leg functions)."""
    training = chaos_training_run(
        dataset,
        train_model,
        n_shards=n_shards,
        epochs=epochs,
        fault_rate=fault_rate,
        kill_after=kill_after,
        seed=seed,
        scale=scale,
        checkpoint_dir=checkpoint_dir,
    )
    serving = chaos_serving_run(
        dataset,
        serve_model,
        rows=rows,
        poison_rate=poison_rate,
        max_queue_rows=max_queue_rows,
        seed=seed,
        scale=scale,
    )
    return ChaosReport(
        dataset=dataset.name, training=training, serving=serving
    )
