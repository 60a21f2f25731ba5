"""The in-process prediction server facade.

:class:`PredictionServer` ties the serving subsystem together: it loads
a :class:`~repro.serving.artifacts.ModelArtifact` against a live star
schema (verifying the schema fingerprint), builds a
:class:`~repro.serving.feature_service.FeatureService` for the
artifact's strategy, and exposes three serving styles:

- ``predict_one(row)`` — the low-latency single-row path,
- ``predict_batch(rows)`` — a caller-assembled batch,
- ``submit(row)`` — the high-throughput micro-batched path, returning a
  :class:`~repro.serving.batcher.PendingPrediction`.

Requests are plain ``{fact column: label}`` mappings — the shape a fact
row has *before* any join, which is the whole point: under a NoJoin
artifact the server answers without touching a single dimension table.

The server is thread-safe end to end: any number of request threads may
call the three paths concurrently.  Request counters and latency
accounting are guarded by a lock, the micro-batcher is the thread-safe
:class:`~repro.serving.batcher.MicroBatcher` (with a background
deadline flusher unless ``background_flush=False``), and the dimension
index cache builds each cold entry exactly once however many threads
race on it.

Linear and Naive Bayes artifacts are scored through a
:class:`~repro.serving.factorized.FactorizedScorer` built at load time:
each joined dimension's features fold into one per-dimension-row score
table, so a request batch needs only its FK resolution, never the
per-row feature gather.  Every other model predicts from the
assembled feature matrix.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchemaError
from repro.obs import MetricsRegistry
from repro.relational.schema import StarSchema
from repro.relational.table import Table
from repro.serving.artifacts import ModelArtifact
from repro.serving.batcher import MicroBatcher, PendingPrediction
from repro.serving.factorized import (
    FactorizedScorer,
    supports_factorized_serving,
)
from repro.serving.feature_service import FeatureService

#: The per-stage serving latency histograms a server maintains, as
#: (stage key, metric name) pairs; :meth:`ServerStats.as_dict` and the
#: benchmarks report all four.
LATENCY_STAGES = (
    ("queue_wait", "serving.latency.queue_wait_s"),
    ("assemble", "serving.latency.assemble_s"),
    ("predict", "serving.latency.predict_s"),
    ("request", "serving.latency.request_s"),
)


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of a server's counters.

    Built from the server's metrics registry; ``latency_ms`` carries
    the per-stage breakdown (``queue_wait``/``assemble``/``predict``
    and end-to-end ``request``), each stage a dict with ``mean``,
    ``p50``, ``p95``, ``p99`` and ``count`` — milliseconds throughout.
    """

    requests: int
    rows: int
    predict_calls: int
    assemble_seconds: float
    predict_seconds: float
    batches_flushed: int
    mean_batch_rows: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    failed_flushes: int = 0
    rows_failed: int = 0
    queue_wait_seconds: float = 0.0
    latency_ms: dict = field(default_factory=dict)
    shed_requests: int = 0
    deadline_expired: int = 0
    rows_quarantined: int = 0

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency per request, in ms.

        The mean of ``serving.latency.request_s``, which every path
        records once per request; a submitted row's includes the time
        it spent queued before its flush.
        """
        request = self.latency_ms.get("request")
        return request["mean"] if request else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (fields plus derived means)."""
        return {
            "requests": self.requests,
            "rows": self.rows,
            "predict_calls": self.predict_calls,
            "assemble_seconds": self.assemble_seconds,
            "predict_seconds": self.predict_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
            "mean_latency_ms": self.mean_latency_ms,
            "batches_flushed": self.batches_flushed,
            "mean_batch_rows": self.mean_batch_rows,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "failed_flushes": self.failed_flushes,
            "rows_failed": self.rows_failed,
            "shed_requests": self.shed_requests,
            "deadline_expired": self.deadline_expired,
            "rows_quarantined": self.rows_quarantined,
            "latency_ms": {
                stage: dict(values)
                for stage, values in self.latency_ms.items()
            },
        }

    def __str__(self) -> str:
        return (
            f"requests={self.requests} rows={self.rows} "
            f"predict_calls={self.predict_calls} "
            f"mean_latency={self.mean_latency_ms:.3f}ms "
            f"mean_batch={self.mean_batch_rows:.1f} "
            f"cache_hit_rate={self.cache_hit_rate:.1%} "
            f"failed_flushes={self.failed_flushes}"
        )


class PredictionServer:
    """Serve predictions from a loaded model artifact.

    Parameters
    ----------
    artifact:
        A loaded :class:`ModelArtifact`.
    schema:
        The live star schema to serve against.  Its fingerprint must
        match the artifact's training schema unless
        ``validate_fingerprint=False``.  Fingerprints cover structure
        and closed domains only — dimension *rows* may change freely —
        so disabling the check is rarely the right fix.
    cache_capacity:
        Dimension-index cache capacity of the feature service.
    max_batch_size, max_wait_s:
        Micro-batcher configuration for the ``submit`` path.
    background_flush:
        Passed to the :class:`MicroBatcher`; set false for
        deterministic tests that control flushing explicitly.
    telemetry:
        When true (the default) the server keeps one metrics registry —
        request counters, cache accounting, and the per-stage latency
        histograms — shared by its feature service and micro-batcher.
        ``telemetry=False`` swaps in a disabled registry: instrumented
        code runs with no-op metrics, and :meth:`stats` reports zeros.
        This is the off-switch the overhead benchmark measures against.
    max_queue_rows:
        Admission bound on the ``submit`` path: with this many rows
        already queued, further submissions are shed with
        :class:`~repro.errors.ServerOverloadedError` (counted as
        ``serving.shed_requests``) instead of growing the queue without
        bound.  ``None`` (the default) admits everything.
    quarantine:
        Enable poisoned-row quarantine on the micro-batcher: a predict
        exception fails only the offending rows (isolated by
        micro-batch bisection), not every co-batched request, and the
        server survives.
    default_deadline_s:
        Default per-request deadline applied by :meth:`submit` when the
        caller passes none; ``None`` (the default) leaves requests
        without a deadline.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        schema: StarSchema,
        cache_capacity: int = 8,
        max_batch_size: int = 64,
        max_wait_s: float | None = 0.005,
        validate_fingerprint: bool = True,
        background_flush: bool = True,
        telemetry: bool = True,
        max_queue_rows: int | None = None,
        quarantine: bool = False,
        default_deadline_s: float | None = None,
    ):
        if validate_fingerprint:
            artifact.check_schema(schema)
        self.artifact = artifact
        self.schema = schema
        self.metrics = MetricsRegistry(enabled=telemetry)
        self.features = FeatureService(
            schema,
            artifact.strategy,
            cache_capacity=cache_capacity,
            registry=self.metrics,
        )
        if self.features.feature_names != artifact.feature_names:
            raise SchemaError(
                f"strategy replay produced features "
                f"{list(self.features.feature_names)} but the artifact was "
                f"trained on {list(artifact.feature_names)}"
            )
        self._scorer = (
            FactorizedScorer(artifact, self.features)
            if supports_factorized_serving(artifact.model)
            else None
        )
        self.default_deadline_s = default_deadline_s
        self.batcher = MicroBatcher(
            self._predict_encoded,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            background_flush=background_flush,
            registry=self.metrics,
            max_queue_rows=max_queue_rows,
            quarantine=quarantine,
        )
        self._requests = self.metrics.counter("serving.requests")
        self._rows = self.metrics.counter("serving.rows")
        self._assemble_seconds = self.metrics.histogram(
            "serving.latency.assemble_s"
        )
        self._predict_seconds = self.metrics.histogram(
            "serving.latency.predict_s"
        )
        self._request_latency = self.metrics.histogram(
            "serving.latency.request_s"
        )

    # ------------------------------------------------------------------
    # Prediction paths
    # ------------------------------------------------------------------
    def predict_one(self, row: Mapping[str, object]) -> object:
        """Predict a single request row immediately (low-latency path)."""
        self._requests.inc()
        started = time.perf_counter()
        result = self._predict_encoded(
            [self.features.encode_requests([row])]
        )[0]
        self._request_latency.observe(time.perf_counter() - started)
        return result

    def predict_batch(self, rows: Sequence[Mapping[str, object]]) -> list:
        """Predict a caller-assembled batch of request rows."""
        if not rows:
            return []
        self._requests.inc()
        started = time.perf_counter()
        results = self._predict_encoded([self.features.encode_requests(rows)])
        self._request_latency.observe(time.perf_counter() - started)
        return results

    def predict_table(self, fact_rows: Table) -> list:
        """Predict for pre-encoded rows shaped like the fact table."""
        self._requests.inc()
        started = time.perf_counter()
        codes = {
            column: fact_rows.codes(column)
            for column in self.features.required_columns
        }
        results = self._predict_encoded([codes])
        self._request_latency.observe(time.perf_counter() - started)
        return results

    def submit(
        self,
        row: Mapping[str, object],
        deadline_s: float | None = None,
    ) -> PendingPrediction:
        """Queue one row on the micro-batcher (high-throughput path).

        Safe to call from any number of request threads; encoding runs
        in the calling thread, the batch prediction wherever the flush
        trigger fires (the submitter or the deadline flusher).
        The row's end-to-end submit → delivery latency (queue wait
        included) lands in the shared ``serving.latency.request_s``
        histogram when its batch runs.  Submissions are counted by the
        batcher (``serving.batcher.submitted``) rather than by a second
        counter here — :meth:`stats` folds them back into ``requests``,
        keeping this path at zero per-row metric calls.

        ``deadline_s`` (defaulting to the server's
        ``default_deadline_s``) bounds how stale the row may go: if its
        batch runs after the deadline the handle fails with
        :class:`~repro.errors.DeadlineExceededError`.  When the
        admission queue is full (``max_queue_rows``) the request is
        shed with :class:`~repro.errors.ServerOverloadedError` before
        encoding results are queued.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        return self.batcher.submit(
            self.features.encode_requests([row]), deadline_s=deadline_s
        )

    def flush(self) -> int:
        """Force the micro-batcher to drain; returns rows flushed."""
        return self.batcher.flush()

    def poll(self) -> bool:
        """Flush the micro-batcher if its wait deadline expired."""
        return self.batcher.poll()

    def close(self) -> None:
        """Drain the batcher and stop its flusher."""
        self.batcher.close()

    def __enter__(self) -> "PredictionServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _merge(
        self, payloads: Sequence[Mapping[str, np.ndarray]]
    ) -> Mapping[str, np.ndarray]:
        if len(payloads) == 1:
            return payloads[0]
        return {
            column: np.concatenate(
                [np.asarray(p[column]) for p in payloads]
            )
            for column in self.features.required_columns
        }

    def _predict_encoded(
        self, payloads: Sequence[Mapping[str, np.ndarray]]
    ) -> list:
        """Assemble and predict a batch of encoded column-dicts.

        The payloads are concatenated into one column dict and
        predicted in a single vectorized call, in submission order.
        With a :class:`~repro.serving.factorized.FactorizedScorer` the
        assemble stage is only the FK resolution of each joined
        dimension; otherwise it builds the feature matrix the
        artifact's model predicts from.
        """
        merged = self._merge(payloads)
        started = time.perf_counter()
        if self._scorer is not None:
            dim_rows = self.features.dimension_rows(merged)
            assembled = time.perf_counter()
            codes = self._scorer.predict_codes(merged, dim_rows)
        else:
            X = self.features.assemble(merged)
            assembled = time.perf_counter()
            codes = self.artifact.predict_codes(X)
        finished = time.perf_counter()
        self._assemble_seconds.observe(assembled - started)
        self._predict_seconds.observe(finished - assembled)
        self._rows.inc(len(codes))
        return self.artifact.decode_labels(codes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        """Snapshot request counters, latency and cache accounting.

        One point-in-time read of the server's shared registry; the
        ``latency_ms`` breakdown reports each serving stage's mean and
        p50/p95/p99 in milliseconds.
        """
        cache = self.features.cache.stats
        batcher = self.batcher.stats
        latency_ms = {}
        for stage, metric_name in LATENCY_STAGES:
            histogram = self.metrics.histogram(metric_name)
            latency_ms[stage] = {
                "count": histogram.count,
                "mean": 1000.0 * histogram.mean,
                "p50": 1000.0 * histogram.p50,
                "p95": 1000.0 * histogram.p95,
                "p99": 1000.0 * histogram.p99,
            }
        return ServerStats(
            # Direct-path calls increment ``serving.requests``; the
            # submit path is tallied by the batcher, so total requests
            # is the sum of both.
            requests=self._requests.value + batcher.submitted,
            rows=self._rows.value,
            # Every predict call observes the assemble stage exactly
            # once, so the histogram's count *is* the call count — no
            # separate hot-path counter needed.
            predict_calls=self._assemble_seconds.count,
            assemble_seconds=self._assemble_seconds.sum,
            predict_seconds=self._predict_seconds.sum,
            batches_flushed=batcher.flushes,
            mean_batch_rows=batcher.mean_batch,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_hit_rate=cache.hit_rate,
            failed_flushes=batcher.failed_flushes,
            rows_failed=batcher.rows_failed,
            shed_requests=batcher.shed_requests,
            deadline_expired=batcher.deadline_expired,
            rows_quarantined=batcher.rows_quarantined,
            queue_wait_seconds=self.metrics.histogram(
                "serving.latency.queue_wait_s"
            ).sum,
            latency_ms=latency_ms,
        )

    def __repr__(self) -> str:
        return (
            f"PredictionServer({self.artifact.summary()}, "
            f"{self.stats()})"
        )
