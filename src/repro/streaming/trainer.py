"""Deterministic out-of-core training loops.

:class:`StreamingTrainer` drives a model over any
:class:`~repro.data.FeatureSource` without the full feature matrix ever
existing.  ``fit`` follows one rule:

- A model with its own ``fit_stream`` gets the source whole:
  :class:`~repro.ml.linear.logistic.L1LogisticRegression` runs exact
  full-batch FISTA, one shard pass per iteration (the streamed fit *is*
  the in-memory fit; shard layout only changes floating-point
  association), :class:`~repro.ml.naive_bayes.CategoricalNB`
  accumulates counts and the histogram-streamed
  :class:`~repro.ml.tree.DecisionTreeClassifier` accumulates
  per-frontier split statistics.  Each owns its pass structure, so
  epochs and shard shuffling do not apply.
- A model with ``partial_fit`` (:class:`~repro.ml.neural.mlp.MLPClassifier`)
  trains epoch by epoch, its own ``epochs`` of them, one
  ``partial_fit`` call per shard.  With a single shard this reproduces
  ``fit`` bit for bit: the trainer's shard-shuffling RNG is separate
  from the model's minibatch RNG, so the model sees exactly the draws
  an in-memory fit would make.

Shard order is shuffled between epochs with a dedicated generator from
:mod:`repro.rng` — deterministic for a given ``seed``, independent of
the model's own randomness.  The epoch loop reads through one
:class:`~repro.data.source.ShardPasses` per fit, like exact FISTA and
the streamed tree: the first
:data:`~repro.data.source.RESIDENT_SHARDS` shards read stay resident
for every later epoch, so a stream within the cap is joined and
encoded once per fit, not once per epoch.

The epoch loop can checkpoint through
:class:`~repro.streaming.checkpoint.CheckpointManager` and resume bit
for bit (``checkpoint=``, ``resume=``; ``repro fit --checkpoint-dir``).

Scoring streams too: :meth:`StreamingTrainer.score` is the shared
:func:`repro.data.source_accuracy` loop, so evaluation has the same
bounded footprint as training.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.source import FeatureSource, ShardPasses, source_accuracy
from repro.errors import CheckpointError
from repro.obs import trace
from repro.rng import ensure_rng
from repro.streaming.checkpoint import CheckpointManager


class StreamingTrainer:
    """Fit a streaming-capable model over bounded shards.

    Parameters
    ----------
    model:
        An estimator with a source-consuming ``fit_stream`` (L1
        logistic regression, Naive Bayes, the decision tree), or one
        exposing ``partial_fit(X, y, n_classes=...)``, ``epochs`` and
        ``predict`` (the MLP).
    seed:
        Seed for the shard-order generator (independent of the model's
        ``random_state``).
    checkpoint:
        A :class:`~repro.streaming.CheckpointManager` (or a directory
        path, wrapped in one) enabling periodic checkpoints: after
        every ``checkpoint_every`` shard steps (and always at epoch
        boundaries) the full training state — model, optimizer and RNG
        state included, plus the epoch shard orders and the
        ``(epoch, shard)`` cursor — is written atomically.  Only the
        epoch loop of ``partial_fit`` models checkpoints; a
        ``fit_stream`` model raises
        :class:`~repro.errors.CheckpointError`, because its
        single-algorithm passes hold state the trainer cannot cut at a
        shard boundary.
    checkpoint_every:
        Shard steps between checkpoints within an epoch.
    resume:
        When true (requires ``checkpoint``), :meth:`fit` restores the
        latest verified checkpoint before training and continues from
        its cursor.  The resumed run is bit-identical to an
        uninterrupted one: the checkpoint carries the model's exact
        arrays and RNG state and the *original* epoch orders, so the
        remaining shard steps are the very steps the killed run would
        have taken.  With no checkpoint on disk the run simply starts
        from scratch (so kill/rerun loops need no first-run special
        case).
    """

    def __init__(
        self,
        model,
        seed: int | np.random.Generator | None = 0,
        checkpoint=None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointManager(checkpoint)
        self.model = model
        self.seed = seed
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume = resume

    def _epoch_orders(self, n_shards: int, n_epochs: int) -> list[np.ndarray]:
        """Deterministic shard order per epoch."""
        rng = ensure_rng(self.seed)
        if n_shards > 1:
            return [rng.permutation(n_shards) for _ in range(n_epochs)]
        return [np.arange(n_shards) for _ in range(n_epochs)]

    def fit(self, source: FeatureSource):
        """Train the model over the source; returns the fitted model.

        The whole fit runs inside a ``fit`` span (the epoch loop nests
        ``fit.epoch`` / merged ``fit.shard`` spans under it), so a
        ``--telemetry`` run report shows where training time went.
        """
        if source.n_rows == 0:
            raise ValueError("cannot fit on zero examples")
        with trace(
            "fit",
            model=type(self.model).__name__,
            n_shards=source.n_shards,
            n_rows=source.n_rows,
        ):
            if hasattr(self.model, "fit_stream"):
                if self.checkpoint is not None:
                    raise CheckpointError(
                        f"{type(self.model).__name__}.fit_stream owns its "
                        f"own pass structure; the trainer cannot cut it at "
                        f"a shard boundary to checkpoint"
                    )
                return self.model.fit_stream(source)
            if not hasattr(self.model, "partial_fit"):
                raise TypeError(
                    f"{type(self.model).__name__} does not support "
                    f"streaming training (no fit_stream or partial_fit)"
                )
            return self._fit_partial(source)

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _fingerprint(self, source: FeatureSource, n_epochs: int) -> dict:
        """Identity of the run a checkpoint belongs to."""
        return {
            "model": type(self.model).__name__,
            "n_shards": source.n_shards,
            "n_epochs": n_epochs,
        }

    def _resume_state(self, fingerprint: dict):
        """The latest verified checkpoint, restored into ``self.model``.

        Returns ``(epoch, pos, state)`` — the cursor to continue from —
        or ``None`` when not resuming or nothing is on disk.  Restoring
        swaps the model's ``__dict__`` in place, so references callers
        already hold see the checkpointed state.
        """
        if not self.resume or self.checkpoint is None:
            return None
        latest = self.checkpoint.latest()
        if latest is None:
            return None
        epoch, pos, state = latest
        if state.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint belongs to a different run: it recorded "
                f"{state.get('fingerprint')}, this trainer would run "
                f"{fingerprint}"
            )
        self.checkpoint.count_resume()
        self.model.__dict__.clear()
        self.model.__dict__.update(state["model"].__dict__)
        return epoch, pos, state

    def _save_checkpoint(
        self, epoch: int, pos: int, n_in_epoch: int, state: dict
    ) -> None:
        """Checkpoint after shard ``pos`` of the epoch, when due.

        The saved cursor always points at the *next* step: mid-epoch
        that is ``(epoch, pos)``; at the boundary it normalises to
        ``(epoch + 1, 0)`` so a resumed run re-enters at an epoch start
        exactly like an uninterrupted run would.
        """
        if self.checkpoint is None:
            return
        at_boundary = pos == n_in_epoch
        if not at_boundary and pos % self.checkpoint_every != 0:
            return
        cursor = (epoch + 1, 0) if at_boundary else (epoch, pos)
        self.checkpoint.save(cursor[0], cursor[1], state)

    def _fit_partial(self, source: FeatureSource):
        """The epoch loop of a ``partial_fit`` model (the MLP).

        ``fit`` means *fit*: any state a previous training session left
        on the model is dropped first, matching the from-scratch
        semantics of the model's own ``fit`` (and of ``fit_stream``).
        ``n_classes`` comes from the labels actually present across all
        shards — the same ``max(y) + 1`` an in-memory fit sees — so a
        single-shard streamed fit stays bit-identical even when the
        target's closed domain is wider than the observed labels.  (A
        later shard can still contribute classes an earlier one lacks:
        the label scan covers every shard up front.)
        """
        n_epochs = int(self.model.epochs)
        if n_epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {n_epochs}")
        fingerprint = self._fingerprint(source, n_epochs)
        resumed = self._resume_state(fingerprint)
        if resumed is None:
            reset = getattr(self.model, "_reset", None)
            if reset is not None:
                reset()
            labels = source.labels()
            n_classes = max(int(labels.max()) + 1, 2)
            orders = self._epoch_orders(source.n_shards, n_epochs)
            start_epoch, start_pos = 0, 0
        else:
            start_epoch, start_pos, state = resumed
            n_classes = state["n_classes"]
            orders = [np.asarray(o) for o in state["orders"]]
        passes = ShardPasses(source)
        for epoch in range(start_epoch, n_epochs):
            order = orders[epoch]
            begin = start_pos if epoch == start_epoch else 0
            pos = begin
            with trace("fit.epoch", epoch=epoch):
                for _, (X, y) in passes(order[begin:]):
                    with trace("fit.shard", merge=True):
                        self.model.partial_fit(X, y, n_classes=n_classes)
                    pos += 1
                    self._save_checkpoint(
                        epoch, pos, len(order),
                        {
                            "fingerprint": fingerprint,
                            "model": self.model,
                            "orders": orders,
                            "n_classes": n_classes,
                        },
                    )
        return self.model

    def score(self, source: FeatureSource) -> float:
        """Accuracy over a source, accumulated shard by shard."""
        return source_accuracy(self.model, source)
