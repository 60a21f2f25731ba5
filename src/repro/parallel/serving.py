"""Process-sharded prediction: micro-batches fanned across predictors.

:class:`ProcessPredictorPool` moves the assemble+predict stage of a
:class:`~repro.serving.server.PredictionServer` out of the GIL and into
worker processes: each worker loads its own copy of the
model artifact and feature service at startup, a flushed micro-batch's
payloads are partitioned into contiguous chunks dispatched one per
worker, and the chunk results are gathered back in order — per-row
results are independent of chunk boundaries, so the output is
byte-identical to the single-process path.

Telemetry crosses back with the per-worker metric merge
(:meth:`repro.obs.MetricsRegistry.export_state`): each worker's
``serving.latency.*`` histograms and cache counters accumulate in its
private registry; :meth:`merge_stats` drains every worker's delta into
the parent server's registry, so ``ServerStats`` reads exactly as if
every observation had happened in-process.

Chunks cross the process boundary over the same shared-memory
transport the training tier uses (:mod:`repro.parallel.shm`): the
parent exports each merged chunk's columns into one named segment and
queues only the :class:`~repro.parallel.shm.ColumnsHandle`; the worker
attaches, serves the borrowed views, and releases the segment in a
``finally`` — so a chunk's bytes are copied once (the parent's
export), never pickled through a pipe.  Segment names are
deterministic (``reprosrv<pid>w<worker>d<dispatch>a<attempt>``), so
when a worker dies mid-flight the parent sweeps the one segment that
worker could still hold before re-exporting the kept chunk under the
next attempt's name.

A predictor that dies is detected at dispatch, counted
(``parallel.serving.worker_deaths``), respawned, and its chunk is
re-dispatched — worker death is a retryable fault, not a failed batch
(its un-merged telemetry delta dies with it; counters may undercount
after a crash, results never do).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Sequence

import numpy as np

from repro.obs import MetricsRegistry
from repro.parallel.prefetch import _resolve_context
from repro.parallel.shm import (
    export_columns,
    import_columns,
    release,
    sweep,
)

__all__ = ["ProcessPredictorPool"]

_POLL_SECONDS = 0.05
_JOIN_SECONDS = 5.0


def _merge_payloads(payloads: Sequence) -> dict:
    """Concatenate per-request column dicts into one contiguous dict.

    Done in the *parent* so a dispatched chunk crosses the process
    boundary as one dict of contiguous arrays — pickling hundreds of
    per-row dicts costs more than the predict itself would.
    """
    if len(payloads) == 1:
        return dict(payloads[0])
    return {
        column: np.concatenate([np.asarray(p[column]) for p in payloads])
        for column in payloads[0]
    }


def _predictor_worker(
    artifact, schema, cache_capacity: int, tasks, results
) -> None:
    """Worker entry point: serve chunks through a private server.

    Module-level so ``spawn`` can pickle it.  The worker's server is
    the plain inline-flush configuration — the same assemble/predict
    path the parent would have run — with its own
    registry accumulating the worker's telemetry between ``stats``
    drains.  The fingerprint was validated by the parent; revalidating
    here would only re-run the strategy replay per worker.
    """
    from repro.serving.server import PredictionServer

    try:
        server = PredictionServer(
            artifact,
            schema,
            cache_capacity=cache_capacity,
            max_wait_s=None,
            background_flush=False,
            validate_fingerprint=False,
        )
        while True:
            op, *args = tasks.get()
            if op == "stop":
                return
            if op == "predict":
                (handle,) = args
                segment, merged = import_columns(handle)
                try:
                    results.put(("ok", server._predict_merged(merged)))
                finally:
                    # The views die here; predictions are decoded
                    # labels, so nothing in the result borrows the
                    # segment.
                    release(segment)
            elif op == "stats":
                state = server.metrics.export_state()
                server.metrics.reset()
                results.put(("ok", state))
            else:
                raise ValueError(f"unknown predictor op {op!r}")
    # The results queue IS the error route back to the parent.
    # repro: lint-ignore[exception-hygiene]
    except BaseException as error:
        results.put(("error", error))


class ProcessPredictorPool:
    """A pool of predictor processes serving payload chunks.

    Parameters
    ----------
    artifact, schema:
        Pickled into each worker at startup (under ``fork`` they are
        inherited); every worker builds its own feature service, so no
        state is shared between predictors.
    workers:
        Predictor processes.
    cache_capacity:
        Dimension-index cache capacity per worker.
    registry:
        Parent-side registry for ``parallel.serving.*`` pool metrics
        (dispatches, worker deaths).  Worker-side serving metrics merge
        in through :meth:`merge_stats`.
    start_method:
        As for :class:`~repro.parallel.ProcessPrefetchingSource`.
    """

    def __init__(
        self,
        artifact,
        schema,
        workers: int = 2,
        cache_capacity: int = 8,
        registry: MetricsRegistry | None = None,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._dispatches = self.metrics.counter("parallel.serving.dispatches")
        self._deaths = self.metrics.counter("parallel.serving.worker_deaths")
        self._artifact = artifact
        self._schema = schema
        self._cache_capacity = cache_capacity
        self._ctx = _resolve_context(start_method)
        self._tasks = [self._ctx.Queue() for _ in range(workers)]
        self._results = [self._ctx.Queue() for _ in range(workers)]
        self._procs = [self._spawn(w) for w in range(workers)]
        self._closed = False
        self._pid = os.getpid()
        self._dispatch_serial = 0
        # One dispatch in flight at a time: chunks of a single batch
        # run in parallel across the pool; concurrent flush triggers
        # serialise here.
        self._dispatch_lock = threading.Lock()

    def _spawn(self, w: int):
        proc = self._ctx.Process(
            target=_predictor_worker,
            args=(
                self._artifact,
                self._schema,
                self._cache_capacity,
                self._tasks[w],
                self._results[w],
            ),
            name=f"repro-predictor-{w}",
            daemon=False,
        )
        proc.start()
        return proc

    def _respawn(self, w: int) -> None:
        """Replace a dead predictor (fresh queues drop stale results)."""
        self._deaths.inc()
        self._procs[w].join()
        for channel in (self._tasks[w], self._results[w]):
            channel.close()
            channel.join_thread()
        self._tasks[w] = self._ctx.Queue()
        self._results[w] = self._ctx.Queue()
        self._procs[w] = self._spawn(w)

    def _call(self, w: int, op, *args, retries: int = 1):
        """One op on worker ``w``, respawning and retrying on death."""
        self._tasks[w].put((op, *args))
        proc, results = self._procs[w], self._results[w]
        while True:
            try:
                kind, payload = results.get(timeout=_POLL_SECONDS)
                break
            except queue.Empty:
                if proc.is_alive():
                    continue
                try:
                    kind, payload = results.get_nowait()
                    break
                except queue.Empty:
                    self._respawn(w)
                    if retries > 0:
                        return self._call(w, op, *args, retries=retries - 1)
                    raise RuntimeError(
                        f"predictor worker {w} died twice running {op!r}"
                    ) from None
        if kind == "error":
            raise payload
        return payload

    def _segment_name(self, w: int, dispatch: int, attempt: int) -> str:
        """Deterministic per-chunk segment name, the sweep window's key.

        One name per (worker, dispatch, attempt): the parent knows
        exactly which segment a dead worker could still hold, so crash
        cleanup is a one-name :func:`~repro.parallel.shm.sweep`."""
        return f"reprosrv{self._pid}w{w}d{dispatch}a{attempt}"

    def _dispatch_chunk(self, w: int, merged: dict, dispatch: int, attempt: int):
        """Export one merged chunk and queue its handle to worker ``w``."""
        handle = export_columns(
            self._segment_name(w, dispatch, attempt), merged
        )
        self._tasks[w].put(("predict", handle))
        return handle

    def predict(self, payloads: Sequence) -> list:
        """Predict a flushed batch's payload list, sharded by chunk.

        Payloads are split into up to ``workers`` contiguous chunks,
        one per predictor; each chunk crosses as one shared-memory
        segment; results come back in chunk order, so the output order
        matches the single-process path exactly.
        """
        if self._closed:
            raise RuntimeError("ProcessPredictorPool is closed")
        with self._dispatch_lock:
            dispatch = self._dispatch_serial
            self._dispatch_serial += 1
            self._dispatches.inc()
            n_chunks = min(self.workers, len(payloads))
            bounds = np.linspace(0, len(payloads), n_chunks + 1, dtype=int)
            chunks = [
                (w, _merge_payloads(list(payloads[lo:hi])))
                for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
                if hi > lo
            ]
            # Export every chunk before gathering any: all workers run
            # their chunks concurrently.
            inflight = [
                (w, merged, self._dispatch_chunk(w, merged, dispatch, 0))
                for w, merged in chunks
            ]
            out: list = []
            for w, merged, handle in inflight:
                out.extend(self._gather(w, merged, dispatch, handle))
            return out

    def _gather(
        self, w: int, merged: dict, dispatch: int, handle, attempt: int = 0
    ) -> list:
        """Collect one dispatched chunk, re-running it on a respawned
        worker if the predictor died mid-flight.

        The parent kept the merged chunk, so redelivery is sweep the
        dead worker's segment (it may have died before attaching, so
        the name can still exist), re-export under the next attempt's
        name, and gather again."""
        proc, results = self._procs[w], self._results[w]
        while True:
            try:
                kind, payload = results.get(timeout=_POLL_SECONDS)
                break
            except queue.Empty:
                if proc.is_alive():
                    continue
                try:
                    kind, payload = results.get_nowait()
                    break
                except queue.Empty:
                    sweep([handle.segment])
                    self._respawn(w)
                    if attempt < 1:
                        retry = self._dispatch_chunk(
                            w, merged, dispatch, attempt + 1
                        )
                        return self._gather(
                            w, merged, dispatch, retry, attempt + 1
                        )
                    raise RuntimeError(
                        f"predictor worker {w} died twice running 'predict'"
                    ) from None
        if kind == "error":
            raise payload
        return payload

    def merge_stats(self, registry: MetricsRegistry) -> None:
        """Drain every worker's telemetry delta into ``registry``.

        Each worker exports-and-resets its private registry, so every
        observation merges exactly once however often this is called.
        A dead worker is respawned by the stats call itself (its
        un-exported delta is lost with it).
        """
        with self._dispatch_lock:
            for w in range(self.workers):
                registry.merge_state(self._call(w, "stats"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._dispatch_lock:
            for w, proc in enumerate(self._procs):
                if proc.is_alive():
                    self._tasks[w].put(("stop",))
            deadline = time.monotonic() + _JOIN_SECONDS
            for proc in self._procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            for channel in (*self._tasks, *self._results):
                channel.close()
                channel.join_thread()

    def __enter__(self) -> "ProcessPredictorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ProcessPredictorPool(workers={self.workers})"
