"""Deterministic out-of-core training loops.

:class:`StreamingTrainer` drives a model over any
:class:`~repro.data.FeatureSource` without the full feature matrix ever
existing:

- :class:`~repro.ml.linear.logistic.L1LogisticRegression` trains with
  ``mode="exact"`` (default): the model's own :meth:`fit_stream` runs
  full-batch FISTA, one shard pass per iteration — the streamed fit *is*
  the in-memory fit, shard layout only changes floating-point
  association.  ``mode="incremental"`` instead advances
  :meth:`partial_fit` on each shard (momentum restarted at every epoch
  boundary) — cheaper per epoch, approximate.
- Models with their own shard-exact ``fit_stream``
  (:class:`~repro.ml.naive_bayes.CategoricalNB` accumulates counts, the
  histogram-streamed :class:`~repro.ml.tree.DecisionTreeClassifier`
  accumulates per-frontier split statistics) hand the whole source to
  it; their results are order-independent, so epochs and shard
  shuffling do not apply.
- :class:`~repro.ml.neural.mlp.MLPClassifier` (or any estimator with a
  compatible ``partial_fit``) trains epoch by epoch, one
  ``partial_fit`` call per shard.  With a single shard this reproduces
  ``fit`` bit for bit: the trainer's shard-shuffling RNG is separate
  from the model's minibatch RNG, so the model sees exactly the draws
  an in-memory fit would make.

Shard order is shuffled between epochs with a dedicated generator from
:mod:`repro.rng` — deterministic for a given ``seed``, independent of
the model's own randomness.  Both epoch loops read through one
:class:`~repro.data.source.ShardPasses` per fit, like exact FISTA and
the streamed tree: the first
:data:`~repro.data.source.RESIDENT_SHARDS` shards read stay resident
for every later epoch, so a stream within the cap is joined and
encoded once per fit, not once per epoch.

The epoch loops can checkpoint through
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
from repro.ml.linear import L1LogisticRegression
from repro.obs import trace, tracer
from repro.rng import ensure_rng
from repro.streaming.checkpoint import CheckpointManager

#: Training modes for L1 logistic regression.
LR_MODES = ("exact", "incremental")


class StreamingTrainer:
    """Fit a streaming-capable model over bounded shards.

    Parameters
    ----------
    model:
        An :class:`L1LogisticRegression`, an estimator with a
        source-consuming ``fit_stream`` (Naive Bayes, the decision
        tree), or any estimator exposing
        ``partial_fit(X, y, n_classes=...)`` plus ``predict`` (the MLP
        does).
    epochs:
        Passes over the shard set for ``partial_fit``-style training.
        ``None`` uses the model's own ``epochs`` hyper-parameter when it
        has one, else 1.  Ignored by the exact logistic mode and by
        ``fit_stream`` models, which make exactly the passes their
        algorithm needs.
    shuffle_shards:
        Whether to permute shard order between epochs (the streaming
        analogue of example shuffling).  Exact logistic mode always
        keeps the stable order: its result does not depend on shard
        order beyond floating-point association, and a stable order
        keeps runs reproducible across shard-size choices.
    seed:
        Seed for the shard-order generator (independent of the model's
        ``random_state``).
    mode:
        Logistic-regression training mode, ``"exact"`` or
        ``"incremental"``; see module docstring.
    checkpoint:
        A :class:`~repro.streaming.CheckpointManager` (or a directory
        path, wrapped in one) enabling periodic checkpoints: after
        every ``checkpoint_every`` shard steps (and always at epoch
        boundaries) the full training state — model, optimizer and RNG
        state included, plus the epoch shard orders and the
        ``(epoch, shard)`` cursor — is written atomically.  Only the
        epoch-looped paths (``partial_fit`` models, incremental
        logistic) checkpoint; the exact logistic mode and
        ``fit_stream`` models raise :class:`~repro.errors.CheckpointError`
        because their single-algorithm passes hold state the trainer
        cannot cut at a shard boundary.
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
        epochs: int | None = None,
        shuffle_shards: bool = True,
        seed: int | np.random.Generator | None = 0,
        mode: str = "exact",
        checkpoint=None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ):
        if mode not in LR_MODES:
            raise ValueError(f"mode must be one of {LR_MODES}, got {mode!r}")
        if epochs is not None and epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointManager(checkpoint)
        self.model = model
        self.epochs = epochs
        self.shuffle_shards = shuffle_shards
        self.seed = seed
        self.mode = mode
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume = resume

    def _resolve_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return int(getattr(self.model, "epochs", 1))

    def _epoch_orders(self, n_shards: int, n_epochs: int) -> list[np.ndarray]:
        """Deterministic shard order per epoch."""
        rng = ensure_rng(self.seed)
        if self.shuffle_shards and n_shards > 1:
            return [rng.permutation(n_shards) for _ in range(n_epochs)]
        return [np.arange(n_shards) for _ in range(n_epochs)]

    def fit(self, source: FeatureSource):
        """Train the model over the source; returns the fitted model.

        The whole fit runs inside a ``fit`` span (epoch-looped paths
        nest ``fit.epoch`` / merged ``fit.shard`` spans under it), so a
        ``--telemetry`` run report shows where training time went.
        """
        if source.n_rows == 0:
            raise ValueError("cannot fit on zero examples")
        with trace(
            "fit",
            model=type(self.model).__name__,
            mode=self.mode,
            n_shards=source.n_shards,
            n_rows=source.n_rows,
        ):
            if isinstance(self.model, L1LogisticRegression):
                if self.mode == "exact":
                    if self.checkpoint is not None:
                        raise CheckpointError(
                            "exact logistic mode cannot checkpoint: each "
                            "FISTA iteration is one indivisible pass over "
                            "every shard; use mode='incremental' for "
                            "checkpointed logistic training"
                        )
                    return self.model.fit_stream(source)
                return self._fit_incremental_lr(source)
            if hasattr(self.model, "fit_stream"):
                if self.checkpoint is not None:
                    raise CheckpointError(
                        f"{type(self.model).__name__}.fit_stream owns its "
                        f"own pass structure; the trainer cannot cut it at "
                        f"a shard boundary to checkpoint"
                    )
                # Shard-exact streaming algorithms (count/histogram
                # models) own their pass structure; hand them the
                # source whole.
                return self.model.fit_stream(source)
            if not hasattr(self.model, "partial_fit"):
                raise TypeError(
                    f"{type(self.model).__name__} does not support "
                    f"streaming training (no fit_stream or partial_fit)"
                )
            return self._fit_partial(source)

    # ------------------------------------------------------------------
    # Checkpoint plumbing (shared by both epoch-looped paths)
    # ------------------------------------------------------------------
    def _fingerprint(self, source: FeatureSource, n_epochs: int) -> dict:
        """Identity of the run a checkpoint belongs to."""
        return {
            "model": type(self.model).__name__,
            "mode": self.mode,
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
        (where incremental LR restarts momentum) exactly like an
        uninterrupted run would.
        """
        if self.checkpoint is None:
            return
        at_boundary = pos == n_in_epoch
        if not at_boundary and pos % self.checkpoint_every != 0:
            return
        cursor = (epoch + 1, 0) if at_boundary else (epoch, pos)
        self.checkpoint.save(cursor[0], cursor[1], state)

    def _fit_partial(self, source: FeatureSource):
        """Epoch loop for ``partial_fit``-style models (MLP & friends).

        ``fit`` means *fit*: any state a previous training session left
        on the model is dropped first, matching the from-scratch
        semantics of the models' own ``fit`` (and of the exact logistic
        path).  ``n_classes`` comes from the labels actually present
        across all shards — the same ``max(y) + 1`` an in-memory fit
        sees — so a single-shard streamed fit stays bit-identical even
        when the target's closed domain is wider than the observed
        labels.  (A later shard can still contribute classes an earlier
        one lacks: the label scan covers every shard up front.)
        """
        n_epochs = self._resolve_epochs()
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

    def _fit_incremental_lr(self, source: FeatureSource):
        """One FISTA step per shard visit, momentum restarted per epoch.

        A single step per shard is what keeps the scheme stable: each
        step moves against one shard's gradient only, so letting FISTA
        iterate to shard-local optimality would just overfit whichever
        shard came last.  When ``epochs`` is unset, the total number of
        shard steps approximates the model's ``max_iter`` budget, making
        an incremental run cost about as much as an in-memory fit.
        """
        if self.epochs is not None:
            n_epochs = self.epochs
        else:
            n_epochs = max(1, self.model.max_iter // max(1, source.n_shards))
        fingerprint = self._fingerprint(source, n_epochs)
        resumed = self._resume_state(fingerprint)
        # The step-size bound depends only on a shard's data: estimate it
        # on the first visit, reuse on every later epoch (one float per
        # shard, vs ~30 power-iteration passes per visit otherwise).
        # Checkpoints carry the memo so a resumed run skips the
        # re-estimation too.
        if resumed is None:
            self.model._reset()  # fit means fit, same as the other paths
            bounds: dict[int, float] = {}
            orders = self._epoch_orders(source.n_shards, n_epochs)
            start_epoch, start_pos = 0, 0
        else:
            start_epoch, start_pos, state = resumed
            bounds = dict(state["bounds"])
            orders = [np.asarray(o) for o in state["orders"]]
        # Traced runs record a per-epoch loss trajectory: the penalised
        # objective on the last shard each epoch visited — shard-local
        # (the data is already in hand, no extra pass), but a usable
        # convergence signal in a run report.
        trajectory: list[float] = []
        passes = ShardPasses(source)
        for epoch in range(start_epoch, n_epochs):
            order = orders[epoch]
            begin = start_pos if epoch == start_epoch else 0
            # Momentum restarts at epoch *starts*; a mid-epoch resume
            # continues the epoch, so its restart already happened in
            # the checkpointed state.
            restart = begin == 0
            pos = begin
            with trace("fit.epoch", epoch=epoch):
                for index, (X, y) in passes(order[begin:]):
                    if index not in bounds:
                        bounds[index] = self.model.lipschitz_bound(X)
                    with trace("fit.shard", merge=True):
                        self.model.partial_fit(
                            X, y, n_iter=1, restart=restart,
                            lipschitz=bounds[index],
                        )
                    restart = False
                    pos += 1
                    self._save_checkpoint(
                        epoch, pos, len(order),
                        {
                            "fingerprint": fingerprint,
                            "model": self.model,
                            "orders": orders,
                            "bounds": bounds,
                        },
                    )
                if tracer().active:
                    trajectory.append(self.model.loss(X, y))
        if trajectory:
            current = tracer().current()
            if current is not None:
                current.annotate(loss_trajectory=trajectory)
        return self.model

    def score(self, source: FeatureSource) -> float:
        """Accuracy over a source, accumulated shard by shard."""
        return source_accuracy(self.model, source)
