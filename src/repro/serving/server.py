"""The in-process prediction server facade.

:class:`PredictionServer` ties the serving subsystem together: it loads
a :class:`~repro.serving.artifacts.ModelArtifact` against a live star
schema (verifying the schema fingerprint), builds a
:class:`~repro.data.encoder.ShardEncoder` for the artifact's strategy
(the encode path training shards take too), and exposes three serving
styles:

- ``predict_one(row)`` — the low-latency single-row path,
- ``predict_batch(rows)`` — a caller-assembled batch,
- ``submit(row)`` — the high-throughput micro-batched path, returning a
  :class:`~repro.serving.batcher.PendingPrediction`.

Requests are plain ``{fact column: label}`` mappings — the shape a fact
row has *before* any join, which is the whole point: under a NoJoin
artifact the server answers without touching a single dimension table.
Every path hands the encoder one ``(n, k)`` int64 code table, its
columns in ``required_columns`` order: a submitted row is encoded on
arrival into a list of its ``k`` required columns' codes, and its flush
turns the batch's lists into one table; ``predict_batch`` builds it
with :meth:`~repro.data.encoder.ShardEncoder.encode_requests` and
``predict_table`` with
:meth:`~repro.data.encoder.ShardEncoder.code_table`.

A server reads only what its model reads.  A decision tree under
``unseen="majority"`` or ``"random"`` is served, from load on, as a copy
over the features it splits on
(:meth:`~repro.ml.tree.DecisionTreeClassifier.project`), with the
encoder built over those features alone: its ``required_columns`` are
the read fact features plus the FK of each dimension with a read
feature, and a dimension with none is never looked up or gathered.  A
JoinAll tree that splits on foreign keys alone (the paper's usual case)
thus serves like its NoJoin twin.  Predictions and probabilities are the
full tree's, bit for bit, and a row the full server would reject for a
column the tree never reads (missing, out of domain, or an FK dangling
in an unread dimension) is answered.  The artifact on disk is unchanged,
and every other model, a tree under ``unseen="error"`` (whose seen check
reads every column) and any wrapper but a tuner are served as loaded.

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
per-row feature gather, and the scorer reads the fact codes straight
off the batch's code table.  Every other model predicts from the
assembled feature matrix.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.encoder import ShardEncoder
from repro.errors import SchemaError
from repro.ml.tree import DecisionTreeClassifier
from repro.obs import MetricsRegistry
from repro.relational.schema import StarSchema
from repro.relational.table import Table
from repro.serving.artifacts import ModelArtifact
from repro.serving.batcher import MicroBatcher, PendingPrediction
from repro.serving.factorized import (
    FactorizedScorer,
    _unwrap,
    supports_factorized_serving,
)

#: The per-stage serving latency histograms a server maintains, as
#: (stage key, metric name) pairs; :meth:`ServerStats.as_dict` and the
#: benchmarks report all four.
LATENCY_STAGES = (
    ("queue_wait", "serving.latency.queue_wait_s"),
    ("assemble", "serving.latency.assemble_s"),
    ("predict", "serving.latency.predict_s"),
    ("request", "serving.latency.request_s"),
)


def _served(artifact: ModelArtifact) -> ModelArtifact:
    """The artifact a server predicts through.

    A decision tree that answers unseen levels (``unseen="majority"`` or
    ``"random"``) reads a feature only at the splits on it, so it is
    served as a copy of itself over the features it splits on
    (:meth:`~repro.ml.tree.DecisionTreeClassifier.project`), whose
    predictions are the full tree's, bit for bit.  Every other artifact
    is served as loaded: under ``unseen="error"`` the tree checks every
    column's level, a feature-selecting wrapper scores a subset of its
    own, and a wrapper that is not a tuner may read anything.
    """
    try:
        model = _unwrap(artifact.model)
    except ValueError:  # a feature-selecting wrapper
        return artifact
    if not isinstance(model, DecisionTreeClassifier) or model.unseen == "error":
        return artifact
    read = [j for j, splits in enumerate(model.split_counts_.values()) if splits]
    return replace(
        artifact,
        model=model.project(read),
        feature_names=tuple(artifact.feature_names[j] for j in read),
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
        match the artifact's training schema.  Fingerprints cover
        structure and closed domains only — dimension *rows* may change
        freely.
    max_batch_size, max_wait_s:
        Micro-batcher configuration for the ``submit`` path.
    background_flush:
        Passed to the :class:`MicroBatcher`; set false for
        deterministic tests that control flushing explicitly.
    telemetry:
        When true (the default) the server keeps one metrics registry —
        request counters, cache accounting, and the per-stage latency
        histograms — shared by its encoder and micro-batcher.
        ``telemetry=False`` swaps in a disabled registry: instrumented
        code runs with no-op metrics, and :meth:`stats` reports zeros.
        This is the off-switch the overhead benchmark measures against.

    A failing batch fails every request in it (each handle re-raises
    its own copy of the error), and the server keeps serving.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        schema: StarSchema,
        max_batch_size: int = 64,
        max_wait_s: float | None = 0.005,
        background_flush: bool = True,
        telemetry: bool = True,
    ):
        artifact.check_schema(schema)
        replayed = tuple(artifact.strategy.feature_names(schema))
        if replayed != artifact.feature_names:
            raise SchemaError(
                f"strategy replay produced features {list(replayed)} but "
                f"the artifact was trained on {list(artifact.feature_names)}"
            )
        self.artifact = _served(artifact)
        self.schema = schema
        self.metrics = MetricsRegistry(enabled=telemetry)
        self.features = ShardEncoder(
            schema,
            artifact.strategy,
            registry=self.metrics,
            features=self.artifact.feature_names,
        )
        self._scorer = (
            FactorizedScorer(artifact, self.features)
            if supports_factorized_serving(artifact.model)
            else None
        )
        self.batcher = MicroBatcher(
            self._predict_submitted,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            background_flush=background_flush,
            registry=self.metrics,
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
        return self.predict_batch([row])[0]

    def predict_batch(self, rows: Sequence[Mapping[str, object]]) -> list:
        """Predict a caller-assembled batch of request rows."""
        if not rows:
            return []
        self._requests.inc()
        started = time.perf_counter()
        results = self._predict_encoded(self.features.encode_requests(rows))
        self._rows.inc(len(results))
        self._request_latency.observe(time.perf_counter() - started)
        return results

    def predict_table(self, fact_rows: Table) -> list:
        """Predict for pre-encoded rows shaped like the fact table, through
        the code table :meth:`~repro.data.encoder.ShardEncoder.code_table`
        reads off them."""
        self._requests.inc()
        started = time.perf_counter()
        results = self._predict_encoded(self.features.code_table(fact_rows))
        self._rows.inc(len(results))
        self._request_latency.observe(time.perf_counter() - started)
        return results

    def submit(self, row: Mapping[str, object]) -> PendingPrediction:
        """Queue one row on the micro-batcher (high-throughput path).

        Safe to call from any number of request threads; the row is
        encoded in the calling thread into a list of codes (a bad row
        raises ``SchemaError`` here and queues nothing), the batch
        predicted wherever the flush trigger fires (the submitter or the
        deadline flusher).  The row's end-to-end submit → delivery
        latency (queue wait included) lands in the shared
        ``serving.latency.request_s`` histogram when its batch runs.
        Submissions and flushed rows are counted by the batcher
        (``serving.batcher.submitted``, ``serving.batcher.rows_flushed``)
        rather than by second counters here — :meth:`stats` folds them
        back into ``requests`` and ``rows``, keeping this path at zero
        per-row metric calls.
        """
        return self.batcher.submit(self.features.request_codes(row))

    def flush(self) -> int:
        """Force the micro-batcher to drain; returns rows flushed."""
        return self.batcher.flush()

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
    def _predict_submitted(self, payloads: Sequence[list[int]]) -> list:
        """The batcher's batch function: one flush's code lists, predicted
        as one ``(n, k)`` array in submission order."""
        return self._predict_encoded(np.array(payloads, dtype=np.int64))

    def _predict_encoded(self, encoded: np.ndarray) -> list:
        """Assemble and predict an ``(n, k)`` code table in one call.

        With a :class:`~repro.serving.factorized.FactorizedScorer` the
        assemble stage is only the FK resolution of each joined
        dimension, and the scorer reads the table itself; otherwise the
        stage builds the feature matrix the artifact's model predicts
        from.
        """
        started = time.perf_counter()
        if self._scorer is not None:
            dim_rows = self.features.dimension_rows(encoded)
            assembled = time.perf_counter()
            codes = self._scorer.predict_codes(encoded, dim_rows)
        else:
            X = self.features.assemble(encoded)
            assembled = time.perf_counter()
            codes = self.artifact.predict_codes(X)
        finished = time.perf_counter()
        self._assemble_seconds.observe(assembled - started)
        self._predict_seconds.observe(finished - assembled)
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
            # Direct-path calls increment ``serving.requests`` and
            # ``serving.rows``; the submit path is tallied by the
            # batcher, so each total is the sum of both.
            requests=self._requests.value + batcher.submitted,
            rows=self._rows.value + batcher.rows_flushed,
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
