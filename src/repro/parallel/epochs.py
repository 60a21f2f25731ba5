"""Data-parallel epoch execution: FISTA passes fanned across processes.

:meth:`~repro.ml.linear.logistic.L1LogisticRegression.fit_stream` is
exact full-batch FISTA: every iteration makes one pass over the shards
to accumulate the gradient (and the step size costs ~30 power-iteration
passes up front).  Each shard's contribution is independent —
``Σ_s X_sᵀ r_s`` — so the passes data-parallelise: workers hold a
static stripe of the shards (shipped once, encoded once, resident for
the whole session) and evaluate their shards' partials per iteration;
the parent folds the partials **in stream order, starting from zeros**,
which is float-for-float the same left-to-right accumulation the serial
loop performs.  Coefficients, intercepts and iteration counts are
therefore *bit-identical* to the serial path — the property
``tests/test_parallel_epochs.py`` enforces against the PR-5
equivalence harness.

The trade the caller makes: the serial path re-reads (and re-encodes)
out-of-core shards every pass and holds one shard at a time; the
parallel session holds every shard encoded across the worker pool.
Data-parallel epochs buy wall-clock with memory — pick them when the
dataset fits the machine but not the GIL.

A worker that dies mid-session is detected on the next pass; its
stripe is recomputed inline by the parent from the wrapped source
(worker death is a survivable, counted fault, not a crashed fit), and
results stay bit-identical because the fold order never changes.
"""

from __future__ import annotations

import queue
import time
from collections.abc import Sequence

import numpy as np

from repro.data.source import FeatureSource
from repro.ml import sparse
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear.logistic import _sigmoid
from repro.obs import MetricsRegistry
from repro.parallel.prefetch import _resolve_context

__all__ = ["ProcessFISTAPasses"]

_POLL_SECONDS = 0.05
_JOIN_SECONDS = 5.0


def _shard_power(encoded, v: np.ndarray) -> np.ndarray:
    """One shard's contribution to the power-iteration step."""
    return sparse.rmatmul(encoded, sparse.matmul(encoded, v))


def _shard_gradient(
    encoded,
    signed: np.ndarray,
    z_w: np.ndarray,
    z_b: float,
    n: int,
    fit_intercept: bool,
) -> tuple[np.ndarray, float]:
    """One shard's contribution to the full-batch logistic gradient.

    Identical arithmetic to the serial ``fit_stream`` inner loop — the
    partial *is* the value the serial loop adds into its accumulator.
    """
    margin = signed * (sparse.matmul(encoded, z_w) + z_b)
    probs = _sigmoid(-margin)
    residual = -(signed * probs) / n
    grad_w = sparse.rmatmul(encoded, residual)
    grad_b = float(residual.sum()) if fit_intercept else 0.0
    return grad_w, grad_b


def _shard_score(
    encoded, y: np.ndarray, w: np.ndarray, b: float
) -> tuple[int, int]:
    """One shard's ``(hits, rows)`` under a linear decision rule."""
    predicted = (sparse.matmul(encoded, w) + b >= 0).astype(np.int64)
    return int((predicted == np.asarray(y)).sum()), int(y.shape[0])


def _pack_shard(index: int, X, y) -> tuple:
    """One shard as the picklable stripe entry shipped to a worker.

    Gathered shards ship as plain code tables; factorized shards ship
    whole — a :class:`~repro.ml.sparse.FactorizedMatrix` is already the
    compact form (fact codes + small blocks), far smaller than the
    gathered ``n×d`` table would be.
    """
    if isinstance(X, sparse.FactorizedMatrix):
        return (int(index), X, np.asarray(y))
    return (
        int(index),
        (
            np.ascontiguousarray(X.codes, dtype=np.int64),
            tuple(X.n_levels),
            tuple(X.names),
        ),
        np.asarray(y),
    )


def _prepare(shard):
    """Encode one shipped shard into the worker's resident form."""
    index, packed, y = shard
    if isinstance(packed, sparse.FactorizedMatrix):
        X = packed
    else:
        codes, n_levels, names = packed
        X = CategoricalMatrix(codes, n_levels, names, validate=False)
    encoded = sparse.encode_features(X)
    signed = np.where(np.asarray(y) > 0, 1.0, -1.0)
    return index, encoded, signed, y


def _epoch_worker(shards, tasks, results) -> None:
    """Worker entry point: evaluate per-shard partials on demand.

    Module-level so ``spawn`` can pickle it.  ``shards`` is the
    worker's stripe as plain ``(index, codes, n_levels, names, y)``
    tuples; the encodings are built once here and stay resident.
    """
    try:
        resident = [_prepare(shard) for shard in shards]
        while True:
            op, *args = tasks.get()
            if op == "stop":
                return
            if op == "power":
                (v,) = args
                out = [
                    (index, _shard_power(encoded, v))
                    for index, encoded, _, _ in resident
                ]
            elif op == "grad":
                z_w, z_b, n, fit_intercept = args
                out = [
                    (
                        index,
                        _shard_gradient(
                            encoded, signed, z_w, z_b, n, fit_intercept
                        ),
                    )
                    for index, encoded, signed, _ in resident
                ]
            elif op == "score":
                w, b = args
                out = [
                    (index, _shard_score(encoded, y, w, b))
                    for index, encoded, _, y in resident
                ]
            else:
                raise ValueError(f"unknown epoch op {op!r}")
            results.put(("ok", out))
    # The results queue IS the error route back to the parent.
    # repro: lint-ignore[exception-hygiene]
    except BaseException as error:
        results.put(("error", error))


class ProcessFISTAPasses:
    """A process pool evaluating exact FISTA passes over a source.

    Implements the pass-runner protocol
    :meth:`~repro.ml.linear.logistic.L1LogisticRegression.fit_stream`
    accepts: :meth:`power_step` and :meth:`gradient` (plus
    :meth:`score` for parallel shard scoring), every reduction folded
    in stream order so results are bit-identical to the serial path.

    Use as a context manager; the worker pool lives for the whole fit
    (shards ship and encode once, then every pass is pure compute).

    Parameters
    ----------
    source:
        Any :class:`FeatureSource`; its natural shard order defines the
        reduction order.  Factorized shards ship compact (per-row codes
        plus per-dimension blocks, never the gathered ``n×d`` table).
    workers:
        Worker processes; each holds ``~n_shards / workers`` encoded
        shards resident.
    registry:
        Metrics registry for ``parallel.epochs.*`` (passes evaluated,
        worker deaths, inline-fallback shards).
    start_method:
        As for :class:`~repro.parallel.ProcessPrefetchingSource`.
    """

    def __init__(
        self,
        source: FeatureSource,
        workers: int = 2,
        registry: MetricsRegistry | None = None,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.source = source
        self.n_rows = int(source.n_rows)
        self.onehot_width = int(source.onehot_width)
        self.n_features = int(source.n_features)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._passes = self.metrics.counter("parallel.epochs.passes")
        self._deaths = self.metrics.counter("parallel.epochs.worker_deaths")
        self._fallbacks = self.metrics.counter(
            "parallel.epochs.fallback_shards"
        )
        ctx = _resolve_context(start_method)
        order: list[int] = []
        stripes: list[list] = [[] for _ in range(workers)]
        stripe_indexes: list[list[int]] = [[] for _ in range(workers)]
        for position, (index, X, y) in enumerate(source.iter_shards(None)):
            order.append(int(index))
            w = position % workers
            stripes[w].append(_pack_shard(index, X, y))
            stripe_indexes[w].append(int(index))
        self._order = order
        self._stripe_indexes = stripe_indexes
        self._alive = [bool(stripe) for stripe in stripes]
        self._tasks = [ctx.Queue() for _ in range(workers)]
        self._results = [ctx.Queue() for _ in range(workers)]
        self._procs = [
            ctx.Process(
                target=_epoch_worker,
                args=(stripes[w], self._tasks[w], self._results[w]),
                name=f"repro-pepoch-{w}",
                daemon=False,
            )
            for w in range(workers)
        ]
        for w, proc in enumerate(self._procs):
            if self._alive[w]:
                proc.start()
        self._closed = False

    # ------------------------------------------------------------------
    # Pass-runner protocol
    # ------------------------------------------------------------------
    def power_step(self, v: np.ndarray) -> np.ndarray:
        partials = self._evaluate("power", (v,))
        acc = np.zeros(self.onehot_width)
        for index in self._order:
            acc += partials[index]
        return acc

    def gradient(
        self, z_w: np.ndarray, z_b: float, n: int, fit_intercept: bool
    ) -> tuple[np.ndarray, float]:
        partials = self._evaluate("grad", (z_w, z_b, n, fit_intercept))
        grad_w = np.zeros(self.onehot_width)
        grad_b = 0.0
        for index in self._order:
            gw, gb = partials[index]
            grad_w += gw
            if fit_intercept:
                grad_b += gb
        return grad_w, grad_b

    def score(self, w: np.ndarray, b: float) -> float:
        """Accuracy of the linear rule ``Xw + b >= 0`` over the source."""
        partials = self._evaluate("score", (w, b))
        hits = sum(partials[index][0] for index in self._order)
        rows = sum(partials[index][1] for index in self._order)
        return hits / rows if rows else 0.0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _evaluate(self, op, args) -> dict:
        """Broadcast one op, gather every shard's partial by index."""
        if self._closed:
            raise RuntimeError("ProcessFISTAPasses is closed")
        self._passes.inc()
        live = [w for w in range(len(self._procs)) if self._alive[w]]
        dead = [
            w
            for w in range(len(self._procs))
            if not self._alive[w] and self._stripe_indexes[w]
        ]
        for w in live:
            self._tasks[w].put((op, *args))
        partials: dict = {}
        for w in live:
            outcome = self._collect(w)
            if outcome is None:
                # Worker died: recompute its stripe inline from the
                # wrapped source — slower, never wrong.
                self._deaths.inc()
                self._alive[w] = False
                partials.update(self._inline_stripe(w, op, args))
                continue
            kind, payload = outcome
            if kind == "error":
                raise payload
            partials.update(payload)
        # Stripes of workers that died on an earlier pass are always
        # recomputed inline.
        for w in dead:
            partials.update(self._inline_stripe(w, op, args))
        return partials

    def _collect(self, w: int):
        """One result read with worker-death detection."""
        proc, results = self._procs[w], self._results[w]
        while True:
            try:
                return results.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if proc.is_alive():
                    continue
                try:
                    return results.get_nowait()
                except queue.Empty:
                    return None

    def _inline_stripe(self, w: int, op, args) -> dict:
        """Recompute a dead worker's stripe in the parent."""
        out: dict = {}
        for index in self._stripe_indexes[w]:
            self._fallbacks.inc()
            X, y = self.source.shard(index)
            encoded = sparse.encode_features(X)
            if op == "power":
                (v,) = args
                out[index] = _shard_power(encoded, v)
            elif op == "grad":
                z_w, z_b, n, fit_intercept = args
                signed = np.where(np.asarray(y) > 0, 1.0, -1.0)
                out[index] = _shard_gradient(
                    encoded, signed, z_w, z_b, n, fit_intercept
                )
            elif op == "score":
                weights, bias = args
                out[index] = _shard_score(encoded, y, weights, bias)
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _kill_worker(self, w: int) -> None:
        """Chaos/test hook: hard-kill worker ``w`` (SIGKILL semantics).

        The next pass must detect the death, fall back inline for the
        stripe, and still produce bit-identical results — exactly the
        recovery the chaos suite asserts.
        """
        proc = self._procs[w]
        if proc.pid is not None and proc.is_alive():
            proc.terminate()
            proc.join()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for w, proc in enumerate(self._procs):
            if self._alive[w] and proc.is_alive():
                self._tasks[w].put(("stop",))
        deadline = time.monotonic() + _JOIN_SECONDS
        for w, proc in enumerate(self._procs):
            if proc.pid is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for channel in (*self._tasks, *self._results):
            channel.close()
            channel.join_thread()

    def __enter__(self) -> "ProcessFISTAPasses":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessFISTAPasses({len(self._order)} shards, "
            f"workers={len(self._procs)})"
        )
