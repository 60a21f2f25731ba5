"""Micro-batching: coalesce single-row requests into vectorized batches.

Every predictor in :mod:`repro.ml` is vectorized over rows, so the cost
of a predict call is dominated by per-call overhead (feature assembly,
one-hot allocation, tree routing setup) amortised over the batch.  A
:class:`MicroBatcher` exploits that: callers ``submit()`` individual
rows and receive a :class:`PendingPrediction` handle; the batcher runs
the underlying batch function once per *batch*, flushing when

- the batch reaches ``max_batch_size`` rows (flushed inline in the
  submitting thread), or
- the oldest queued row has waited ``max_wait_s`` (enforced by a
  background deadline-flusher thread, so the deadline holds even when
  no further ``submit``/``poll`` arrives), or
- a caller forces it (``flush()``, or — in inline mode —
  ``PendingPrediction.result()`` on a still-queued row).

The batcher is thread-safe: any number of threads may ``submit``
concurrently, the queue and all statistics are guarded by one lock, and
the batch function itself always runs *outside* the lock so a slow
model never blocks enqueueing.  Results are delivered strictly in
submission order within each batch.

For deterministic single-threaded tests, construct with
``background_flush=False``: no flusher thread is started, the deadline
is checked inline on ``submit``/``poll`` (the pre-concurrency
semantics), and ``PendingPrediction.result()`` forces a whole-queue
flush instead of blocking.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence

import numpy as np
from dataclasses import dataclass, field
from typing import Any

from repro.obs import Counter, MetricsRegistry


def _chained_copy(error: BaseException) -> BaseException:
    """A per-handle copy of a batch failure, chained from the original.

    Every co-batched handle re-raises its failure from ``result()``,
    and each ``raise`` mutates the raised object's ``__traceback__`` —
    so handing the *same* exception instance to every handle lets
    concurrent claimers race on one traceback chain.  Each handle gets
    its own instance instead, with ``__cause__`` pointing at the
    original (which keeps the batch thread's traceback intact).
    """
    try:
        copy = type(error)(*error.args)
    # Exception types whose constructors don't round-trip ``args`` fall
    # back to a typed wrapper; the original still rides along as the
    # cause.  # repro: lint-ignore[exception-hygiene]
    except Exception:
        copy = RuntimeError(f"{type(error).__name__}: {error}")
    copy.__cause__ = error
    return copy


class PendingPrediction:
    """A handle to a submitted row's eventual prediction.

    Deliberately cheap to construct — one is allocated per submitted
    row on the hot path, so delivery blocking is coordinated through
    the batcher's shared condition rather than a per-handle event.
    """

    __slots__ = ("_batcher", "_result", "_error", "_done")

    def __init__(self, batcher: "MicroBatcher"):
        self._batcher = batcher
        self._result: Any = None
        self._error: BaseException | None = None
        self._done = False

    def done(self) -> bool:
        """Whether the prediction has been computed (or failed)."""
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        """The prediction, blocking until the row's batch has run.

        With a background flusher the call waits on the batcher's
        delivery condition, notified by whichever thread runs the batch
        (the flusher or a size-triggered submitter); in inline mode, or
        when no deadline thread exists to ever deliver the row, the
        call first forces a flush of the whole queue so a result can
        always be claimed, then waits out any batch another thread
        already has in flight.

        If the batch call failed, every co-batched handle re-raises the
        failure here — a lost prediction is never silently ``None``.

        Raises
        ------
        TimeoutError
            If ``timeout`` seconds elapse while waiting for another
            thread to deliver the batch.  A forced flush executes the
            batch function in *this* thread, and that execution is not
            interruptible by ``timeout``.
        """
        if not self._done:
            self._batcher._claim(self, timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def _resolve(self, value: Any) -> None:
        self._result = value
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True


@dataclass
class BatcherStats:
    """Accounting for flush behaviour; exposed via server stats.

    A point-in-time snapshot view over the batcher's registry-backed
    metrics (``serving.batcher.*``).  ``flushes``/``rows_flushed``
    count *successful* batch runs only; failed runs are accounted
    separately in ``failed_flushes``/``rows_failed`` (with the raising
    exception type tallied in ``failure_reasons``), so once in-flight
    batches complete, ``submitted`` reconciles against ``rows_flushed +
    rows_failed + len(queue)`` — rows detached into a batch that is
    still executing are transiently in neither bucket.
    """

    submitted: int = 0
    flushes: int = 0
    rows_flushed: int = 0
    flush_reasons: dict[str, int] = field(default_factory=dict)
    max_batch: int = 0
    failed_flushes: int = 0
    rows_failed: int = 0
    failure_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch(self) -> float:
        """Average rows per flushed batch (0.0 before any flush)."""
        return self.rows_flushed / self.flushes if self.flushes else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (fields plus derived means)."""
        return {
            "submitted": self.submitted,
            "flushes": self.flushes,
            "rows_flushed": self.rows_flushed,
            "flush_reasons": dict(self.flush_reasons),
            "max_batch": self.max_batch,
            "mean_batch": self.mean_batch,
            "failed_flushes": self.failed_flushes,
            "rows_failed": self.rows_failed,
            "failure_reasons": dict(self.failure_reasons),
        }


class MicroBatcher:
    """Coalesces submitted rows and runs a batch function over them.

    Parameters
    ----------
    batch_fn:
        Called with the list of queued payloads; must return one result
        per payload, in order.  May be called concurrently from several
        threads (the submitting thread on a size trigger, the flusher
        thread on a deadline), so it must itself be thread-safe.
    max_batch_size:
        Queue length that triggers an inline flush on ``submit``.
    max_wait_s:
        Maximum age of the oldest queued payload before a deadline
        flush (0 degenerates to flushing on every submit; ``None``
        disables the deadline, leaving only the size trigger and
        explicit flushes).
    clock:
        Injectable monotonic clock, for deterministic tests.  Only
        honoured for deadline *checks*; the background flusher sleeps in
        real time, so tests that drive a fake clock should pass
        ``background_flush=False``.
    background_flush:
        When true (the default) and ``max_wait_s`` is set, a daemon
        thread enforces the deadline.  When false, deadlines are only
        checked inline on ``submit``/``poll`` and ``result()`` forces a
        flush — the deterministic, single-threaded semantics.
    registry:
        Metrics registry backing the ``serving.batcher.*`` metrics and
        the ``serving.latency.queue_wait_s`` / ``serving.latency.request_s``
        histograms.  A :class:`~repro.serving.server.PredictionServer`
        passes its own, so per-stage serving latency lands in one
        snapshot.  ``None`` keeps a private registry.

    A failing batch fails every co-batched handle: each re-raises its
    own chained copy of the error from ``result()``, the failure is
    tallied (``failed_flushes``, ``rows_failed``, ``failure_reasons``),
    and the batcher keeps serving.
    """

    #: Per-reason flush/failure tallies live under these metric prefixes.
    _FLUSH_REASON_PREFIX = "serving.batcher.flush_reason."
    _FAILURE_REASON_PREFIX = "serving.batcher.failure_reason."

    def __init__(
        self,
        batch_fn: Callable[[Sequence[Any]], Sequence[Any]],
        max_batch_size: int = 64,
        max_wait_s: float | None = 0.005,
        clock: Callable[[], float] = time.monotonic,
        background_flush: bool = True,
        registry: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s is not None and max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.batch_fn = batch_fn
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.clock = clock
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._submitted = self.metrics.counter("serving.batcher.submitted")
        self._flushes = self.metrics.counter("serving.batcher.flushes")
        self._rows_flushed = self.metrics.counter("serving.batcher.rows_flushed")
        self._failed_flushes = self.metrics.counter(
            "serving.batcher.failed_flushes"
        )
        self._rows_failed = self.metrics.counter("serving.batcher.rows_failed")
        self._batch_rows = self.metrics.gauge("serving.batcher.batch_rows")
        self._queue_depth = self.metrics.gauge("serving.batcher.queue_depth")
        self._queue_wait = self.metrics.histogram("serving.latency.queue_wait_s")
        self._request_latency = self.metrics.histogram(
            "serving.latency.request_s"
        )
        # Per-reason counters by metric name, filled on each reason's
        # first flush (see _count_reason).
        self._reason_counters: dict[str, Counter] = {}
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        # Delivery signal for blocking result() calls: notified once per
        # completed batch (success or failure), on its own lock so
        # waiters never contend with submitters.
        self._delivered = threading.Condition()
        # Each entry carries its submission time (per self.clock), so a
        # flush can account the row's full queue wait.
        self._queue: list[tuple[Any, PendingPrediction, float]] = []
        # Human-readable description of the most recent batch failure,
        # folded into result() timeout messages so an operator can tell
        # a wedged flusher from a failing model.  A bare string
        # assignment: last-writer-wins is exactly the semantics wanted.
        self._last_failure: str | None = None
        # Submissions since the last flush, tallied as a plain int under
        # the already-held queue lock; ``_take_locked`` folds them into
        # the ``serving.batcher.submitted`` counter in one ``inc``, so
        # the hot path pays no per-row metric call.  Rows only leave the
        # queue through ``_take_locked``, so a non-empty queue is the
        # only state in which this is non-zero.
        self._new_submits = 0
        self._oldest: float | None = None
        self._closed = False
        self._flusher: threading.Thread | None = None
        if background_flush and max_wait_s is not None:
            self._flusher = threading.Thread(
                target=self._flush_loop,
                name="microbatcher-deadline-flusher",
                daemon=True,
            )
            self._flusher.start()

    @property
    def stats(self) -> BatcherStats:
        """Point-in-time snapshot of the registry-backed metrics."""
        return BatcherStats(
            submitted=self._submitted.value + self._new_submits,
            flushes=self._flushes.value,
            rows_flushed=self._rows_flushed.value,
            flush_reasons=self._reasons(self._FLUSH_REASON_PREFIX),
            max_batch=int(self._batch_rows.high_water),
            failed_flushes=self._failed_flushes.value,
            rows_failed=self._rows_failed.value,
            failure_reasons=self._reasons(self._FAILURE_REASON_PREFIX),
        )

    def _reasons(self, prefix: str) -> dict[str, int]:
        """Non-zero per-reason tallies registered under ``prefix``."""
        reasons = {}
        for name in self.metrics.names():
            if name.startswith(prefix):
                count = self.metrics.counter(name).value
                if count:
                    reasons[name[len(prefix):]] = count
        return reasons

    def _count_reason(self, prefix: str, reason: str) -> None:
        """Count one flush or failure under its reason's counter.

        Each reason's counter is looked up in the registry once and then
        kept, so a flush makes no registry lookup.
        """
        name = prefix + reason
        try:
            counter = self._reason_counters[name]
        except KeyError:
            counter = self._reason_counters[name] = self.metrics.counter(name)
        counter.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, payload: Any) -> PendingPrediction:
        """Queue one row; may flush inline if a trigger fires.

        Thread-safe; the batch function runs outside the lock, so other
        submitters are never blocked behind a running batch.
        """
        pending = PendingPrediction(self)
        batch = None
        now = self.clock()
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._new_submits += 1
            if self._oldest is None:
                self._oldest = now
            self._queue.append((payload, pending, now))
            if len(self._queue) >= self.max_batch_size:
                batch = self._take_locked()
            elif self._flusher is not None and len(self._queue) == 1:
                # Wake the deadline flusher for the new oldest row.
                self._wakeup.notify_all()
        if batch is not None:
            self._run_batch(batch, reason="size", reraise=True)
        elif self._flusher is None:
            self._flush_if_stale()
        return pending

    def poll(self) -> bool:
        """Flush if the oldest queued row exceeded ``max_wait_s``.

        Returns whether a flush happened.  With a background flusher
        this is never required, but callers with idle loops may still
        use it to bound latency below the flusher's wake-up jitter.
        """
        return self._flush_if_stale()

    def flush(self, reason: str = "explicit") -> int:
        """Run the batch function over everything queued; returns row count."""
        with self._lock:
            batch = self._take_locked()
        if batch is None:
            return 0
        self._run_batch(batch, reason=reason, reraise=True)
        return len(batch)

    def close(self) -> None:
        """Stop the deadline flusher and drain the queue.

        Idempotent.  Further ``submit`` calls raise.  Queued rows run
        through the batch function one last time, so no handle is left
        permanently pending and a blocked ``result()`` always wakes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
        self.flush(reason="close")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _take_locked(self) -> list[tuple[Any, PendingPrediction, float]] | None:
        """Detach the current queue (caller holds the lock)."""
        if self._new_submits:
            self._submitted.inc(self._new_submits)
            self._new_submits = 0
        if not self._queue:
            return None
        # Occupancy sampled at the flush boundary: the gauge reads as
        # "rows coalesced by the last flush", its high-water mark as the
        # deepest the queue ever got before a trigger fired.
        self._queue_depth.set(len(self._queue))
        batch, self._queue = self._queue, []
        self._oldest = None
        return batch

    def _claim(self, pending: PendingPrediction, timeout: float | None) -> None:
        """Deliver ``pending``: wait for its batch, forcing one if needed.

        Without a deadline-flusher thread nothing else is guaranteed to
        ever run the row's batch, so the queue is flushed here first.
        That flush can be a no-op when another thread has already
        detached the row into an in-flight batch — either way, delivery
        is then awaited on the shared condition, which ``_run_batch``
        notifies unconditionally, so a still-pending handle never reads
        its unset result.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if (self._flusher is None or self._closed) and not pending._done:
            # No live thread will ever deliver this row (never had a
            # flusher, or close() already stopped it): run the queue
            # through in this thread.
            self.flush(reason="forced")
        with self._delivered:
            while not pending._done:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    # Fold in the failure accounting so an operator can
                    # tell a wedged flusher from a failing model.
                    failed = self._failed_flushes.value
                    if failed:
                        health = (
                            f"{failed} failed flush(es) so far, last "
                            f"failure: {self._last_failure}"
                        )
                    else:
                        health = "no failed flushes so far"
                    raise TimeoutError(
                        f"prediction not delivered within {timeout} s "
                        f"(deadline flusher wedged, or timeout < "
                        f"max_wait_s {self.max_wait_s}; {health})"
                    )
                self._delivered.wait(remaining)

    def _flush_if_stale(self) -> bool:
        with self._lock:
            stale = (
                bool(self._queue)
                and self.max_wait_s is not None
                and self._oldest is not None
                and self.clock() - self._oldest >= self.max_wait_s
            )
            batch = self._take_locked() if stale else None
        if batch is None:
            return False
        self._run_batch(batch, reason="deadline", reraise=True)
        return True

    def _flush_loop(self) -> None:
        """Deadline enforcement: sleep until the oldest row has waited
        ``max_wait_s``, then flush."""
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed:
                    return
                remaining = self._oldest + self.max_wait_s - self.clock()
                while remaining > 0 and self._queue and not self._closed:
                    self._wakeup.wait(timeout=remaining)
                    if not self._queue:
                        break  # a size/explicit flush beat the deadline
                    remaining = self._oldest + self.max_wait_s - self.clock()
                if self._closed:
                    return
                batch = self._take_locked()
            if batch is not None:
                # Errors are recorded on every handle (result() re-raises
                # them); the daemon thread itself must survive them.
                self._run_batch(batch, reason="deadline", reraise=False)

    def _run_batch(
        self,
        batch: list[tuple[Any, PendingPrediction, float]],
        reason: str,
        reraise: bool,
    ) -> None:
        """Execute ``batch_fn`` outside the lock; account and deliver."""
        flushed_at = self.clock()
        # One float array of submission times serves both latency
        # histograms; the subtraction is vectorized and observe_many
        # parks the result in one append, so per-row accounting costs
        # the batch almost nothing.
        submitted_times = np.fromiter(
            (submitted_at for _, _, submitted_at in batch),
            np.float64,
            len(batch),
        )
        self._queue_wait.observe_many(flushed_at - submitted_times)
        payloads = [payload for payload, _, _ in batch]
        try:
            results = self.batch_fn(payloads)
            if len(results) != len(payloads):
                raise ValueError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(payloads)} payloads"
                )
        except BaseException as error:
            self._failed_flushes.inc()
            self._last_failure = f"{type(error).__name__}: {error}"
            self._rows_failed.inc(len(payloads))
            self._count_reason(
                self._FAILURE_REASON_PREFIX, type(error).__name__
            )
            # The flush trigger's caller sees the raise (when there is
            # one); every co-batched handle records its own chained
            # copy so concurrent result() re-raises never share (and
            # race on) one traceback.
            for _, pending, _ in batch:
                pending._fail(_chained_copy(error))
            with self._delivered:
                self._delivered.notify_all()
            if reraise:
                raise
            return
        for (_, pending, _), result in zip(batch, results):
            pending._resolve(result)
        with self._delivered:
            self._delivered.notify_all()
        # End-to-end latency: submit → result delivered, per payload —
        # queue wait *and* batch execution, the number the old
        # mean_latency_ms silently under-reported.
        delivered_at = self.clock()
        self._request_latency.observe_many(delivered_at - submitted_times)
        self._flushes.inc()
        self._rows_flushed.inc(len(payloads))
        self._batch_rows.set(len(payloads))
        self._count_reason(self._FLUSH_REASON_PREFIX, reason)
