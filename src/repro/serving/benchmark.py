"""Serving-throughput measurement: single-row vs micro-batched paths.

The paper's Figure 1 argument is about *training* time; this module
makes the serving-side counterpart measurable.  It fits one pipeline per
strategy (JoinAll gathers, per request batch, the features of every
dimension its model reads; NoJoin touches no dimension at all), then
replays the same label-valued request stream through two paths:

- **single** — one ``predict_one`` call per request row, paying the full
  per-call overhead (encode, assemble, predict) every time;
- **batched** — ``submit`` onto the micro-batcher, which coalesces rows
  into vectorized predict calls.

:func:`concurrent_serving_throughput` adds the multi-threaded
counterpart: an open-loop load generator with K client threads drives
the thread-safe serving runtime, comparing the per-request baseline
against the micro-batched runtime and verifying the concurrent
predictions are identical to a single-threaded run of the same stream.

Used by ``repro serve-bench``, ``benchmarks/bench_serving_throughput.py``
and ``benchmarks/bench_serving_concurrency.py``.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import dataclass, field

from repro.core.strategies import (
    JoinStrategy,
    join_all_strategy,
    no_join_strategy,
)
from repro.datasets.splits import SplitDataset
from repro.serving.artifacts import artifact_from_pipeline
from repro.serving.server import PredictionServer


@dataclass
class ThroughputReport:
    """Rows/second per (strategy, path), plus the headline ratio.

    ``latency_ms`` carries each configuration's per-stage latency
    breakdown (``queue_wait``/``assemble``/``predict``/``request``,
    each with mean and p50/p95/p99 in milliseconds) — the
    :attr:`~repro.serving.server.ServerStats.latency_ms` snapshot of
    the server that ran the measurement.
    """

    dataset: str
    model_key: str
    rows: int
    batch_size: int
    rates: dict[tuple[str, str], float] = field(default_factory=dict)
    latency_ms: dict[tuple[str, str], dict] = field(default_factory=dict)
    #: Per strategy, the request columns its server reads, and the
    #: dimension-index lookups its two measured servers made.  A tree
    #: is served over the features it splits on, so a JoinAll tree that
    #: splits on FKs alone reads what the NoJoin tree reads.
    required_columns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    dimension_lookups: dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float | None:
        """Micro-batched NoJoin throughput over single-row JoinAll.

        ``None`` when the report was measured with custom strategies
        that don't include both reference points.
        """
        batched = self.rates.get(("NoJoin", "batched"))
        single = self.rates.get(("JoinAll", "single"))
        if batched is None or single is None:
            return None
        return batched / single

    def render(self) -> str:
        """Human-readable table of the measured rates."""
        lines = [
            f"Serving throughput: {self.dataset}/{self.model_key}, "
            f"{self.rows} requests, micro-batch size {self.batch_size}",
            f"{'strategy':10s} {'path':8s} {'rows/s':>12s} "
            f"{'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s}",
        ]
        for (strategy, path), rate in sorted(self.rates.items()):
            request = self.latency_ms.get((strategy, path), {}).get(
                "request", {}
            )
            lines.append(
                f"{strategy:10s} {path:8s} {rate:12.0f} "
                f"{request.get('p50', 0.0):8.3f} "
                f"{request.get('p95', 0.0):8.3f} "
                f"{request.get('p99', 0.0):8.3f}"
            )
        for strategy, columns in self.required_columns.items():
            lines.append(
                f"{strategy} reads {len(columns)} request columns and made "
                f"{self.dimension_lookups.get(strategy, 0)} dimension lookups"
            )
        if self.speedup is not None:
            lines.append(
                f"micro-batched NoJoin vs single-row JoinAll: "
                f"{self.speedup:.1f}x"
            )
        return "\n".join(lines)


def _request_stream(
    server: PredictionServer, dataset: SplitDataset, rows: int
) -> list[dict]:
    """Label-valued request rows cycled from the dataset's test split."""
    fact = dataset.schema.fact
    columns = server.features.required_columns
    decoded = {c: fact.column(c).labels() for c in columns}
    test = dataset.test
    return [
        {c: decoded[c][test[i % test.size]] for c in columns}
        for i in range(rows)
    ]


def _measure(fn) -> float:
    """Seconds ``fn()`` takes, after a full collection: a collection the
    phases before it made due would otherwise land inside it."""
    gc.collect()
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def serving_throughput(
    dataset: SplitDataset,
    model_key: str = "dt_gini",
    rows: int = 2000,
    batch_size: int = 64,
    scale=None,
    strategies: tuple[JoinStrategy, ...] | None = None,
) -> ThroughputReport:
    """Measure single-row and micro-batched serving rates per strategy.

    Parameters
    ----------
    dataset:
        The star-schema dataset to fit and serve against.
    model_key:
        Model registry key; the default gini tree is the paper's primary
        model and has a cheap, serving-friendly predict path.
    rows:
        Request-stream length per measurement.
    batch_size:
        Micro-batcher ``max_batch_size`` for the batched path.
    scale:
        Training scale profile (resolved via ``REPRO_SCALE`` if omitted).
    strategies:
        Strategies to compare; defaults to (JoinAll, NoJoin).
    """
    from repro.experiments.runner import fit_pipeline

    if strategies is None:
        strategies = (join_all_strategy(), no_join_strategy())
    report = ThroughputReport(
        dataset=dataset.name, model_key=model_key, rows=rows,
        batch_size=batch_size,
    )
    for strategy in strategies:
        pipeline = fit_pipeline(dataset, model_key, strategy, scale=scale)
        artifact = artifact_from_pipeline(pipeline, dataset.schema)

        def fresh_server() -> PredictionServer:
            return PredictionServer(
                artifact,
                dataset.schema,
                max_batch_size=batch_size,
                max_wait_s=None,
            )

        server = fresh_server()
        requests = _request_stream(server, dataset, rows)
        # Warm both paths once so compilation/caching effects don't skew
        # the first strategy measured.
        server.predict_one(requests[0])
        server.submit(requests[0]).result()

        single = fresh_server()
        seconds = _measure(
            lambda: [single.predict_one(row) for row in requests]
        )
        report.rates[(strategy.name, "single")] = rows / seconds
        report.latency_ms[(strategy.name, "single")] = (
            single.stats().latency_ms
        )

        batched = fresh_server()

        def run_batched(server: PredictionServer = batched) -> None:
            handles = [server.submit(row) for row in requests]
            server.flush()
            for handle in handles:
                handle.result()

        seconds = _measure(run_batched)
        report.rates[(strategy.name, "batched")] = rows / seconds
        report.latency_ms[(strategy.name, "batched")] = (
            batched.stats().latency_ms
        )
        report.required_columns[strategy.name] = (
            server.features.required_columns
        )
        report.dimension_lookups[strategy.name] = sum(
            measured.features.cache.stats.lookups
            for measured in (single, batched)
        )
    return report


# ----------------------------------------------------------------------
# Concurrent serving: open-loop load generation over K client threads
# ----------------------------------------------------------------------
@dataclass
class ConcurrencyReport:
    """Throughput of the concurrent runtime against a baseline.

    ``baseline_rows_per_s`` is the per-request baseline: the same K
    client threads, but each request served one at a time through the
    per-request path (no cross-request batching) — the throughput a
    naive thread-safe server would sustain.  ``batched_rows_per_s`` is
    the micro-batched runtime's rate.  ``identical`` records whether
    both concurrent runs' predictions matched the single-threaded
    reference row for row.
    """

    dataset: str
    model_key: str
    strategy: str
    rows: int
    batch_size: int
    clients: int
    max_wait_s: float
    cpu_count: int
    baseline_rows_per_s: float = 0.0
    batched_rows_per_s: float = 0.0
    mean_batch_rows: float = 0.0
    identical: bool = True
    #: Per-stage latency breakdowns (ms, with p50/p95/p99) of the
    #: baseline server and of the micro-batched one.
    baseline_latency_ms: dict = field(default_factory=dict)
    latency_ms: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float | None:
        """Concurrent-runtime throughput over the per-request baseline."""
        if not self.baseline_rows_per_s:
            return None
        return self.batched_rows_per_s / self.baseline_rows_per_s

    def render(self) -> str:
        """Human-readable table of the measured rates."""
        lines = [
            f"Concurrent serving: {self.dataset}/{self.model_key} "
            f"({self.strategy}), {self.rows} requests, "
            f"{self.clients} client threads, micro-batch size "
            f"{self.batch_size}, {self.cpu_count} CPU(s)",
            f"{'configuration':24s} {'rows/s':>12s} {'mean batch':>11s} "
            f"{'speedup':>8s} {'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s}",
            f"{'per-request':24s} {self.baseline_rows_per_s:12.0f} "
            f"{1.0:11.1f} {'1.0x':>8s}"
            + _render_request_latency(self.baseline_latency_ms),
            f"{'batched':24s} {self.batched_rows_per_s:12.0f} "
            f"{self.mean_batch_rows:11.1f} "
            f"{f'{self.speedup:.1f}x':>8s}"
            + _render_request_latency(self.latency_ms),
            "concurrent predictions identical to single-threaded: "
            f"{self.identical}",
        ]
        return "\n".join(lines)


def _render_request_latency(latency_ms: dict) -> str:
    """The end-to-end stage's percentile columns for one table row."""
    request = latency_ms.get("request", {})
    return (
        f" {request.get('p50', 0.0):8.3f}"
        f" {request.get('p95', 0.0):8.3f}"
        f" {request.get('p99', 0.0):8.3f}"
    )


def _drive_clients(
    server: PredictionServer,
    requests: list[dict],
    clients: int,
    batched: bool,
    arrival_rate: float | None = None,
    result_timeout: float = 60.0,
) -> tuple[float, list]:
    """Replay ``requests`` through ``server`` from ``clients`` threads.

    The stream is dealt round-robin across client threads.  Arrival is
    open-loop: with ``arrival_rate`` set (aggregate requests/second)
    each client submits on a fixed schedule independent of completions;
    with ``None`` clients submit as fast as they can (the unbounded-rate
    limit, i.e. a saturation measurement).  Returns the wall-clock
    seconds from the start barrier until every prediction resolved, and
    the predictions in stream order.
    """
    if arrival_rate is not None and arrival_rate <= 0:
        raise ValueError(
            f"arrival_rate must be positive (requests/s), got {arrival_rate}"
        )
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    results: list = [None] * len(requests)
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)
    interval = (
        None if arrival_rate is None else clients / arrival_rate
    )

    def client(offset: int) -> None:
        indexes = range(offset, len(requests), clients)
        try:
            barrier.wait()
            started = time.monotonic()
            if batched:
                handles = []
                for k, i in enumerate(indexes):
                    if interval is not None:
                        # A late client sends at once: time.sleep
                        # raises on a negative delay.
                        delay = started + k * interval - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                    handles.append((i, server.submit(requests[i])))
                for i, handle in handles:
                    results[i] = handle.result(timeout=result_timeout)
            else:
                for k, i in enumerate(indexes):
                    if interval is not None:
                        delay = started + k * interval - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                    results[i] = server.predict_one(requests[i])
        # Client threads park failures for the coordinator, which
        # re-raises the first one after joining all threads.
        # repro: lint-ignore[exception-hygiene]
        except BaseException as error:
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(offset,), daemon=True)
        for offset in range(clients)
    ]
    for thread in threads:
        thread.start()
    gc.collect()  # as in _measure: no earlier phase's garbage on the clock
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    if errors:
        raise errors[0]
    return seconds, results


def concurrent_serving_throughput(
    dataset: SplitDataset,
    model_key: str = "dt_gini",
    rows: int = 4000,
    batch_size: int = 64,
    clients: int = 8,
    max_wait_s: float = 0.002,
    arrival_rate: float | None = None,
    scale=None,
    strategy: JoinStrategy | None = None,
) -> ConcurrencyReport:
    """Measure the concurrent serving runtime under K client threads.

    Fits one pipeline (NoJoin by default — the paper's serving payoff),
    computes a single-threaded reference prediction for the whole
    request stream, then drives the same stream concurrently through

    - the per-request baseline: ``predict_one`` per request from
      every client thread (no cross-request coalescing), and
    - the micro-batched runtime: clients ``submit`` onto the shared
      thread-safe batcher, whose background deadline flusher coalesces
      the cross-client batches into one vectorized predict per flush.

    Every concurrent run's predictions are compared against the
    reference; ``report.identical`` is the conjunction.
    """
    from repro.experiments.runner import fit_pipeline

    if arrival_rate is not None and arrival_rate <= 0:
        # Fail before the pipeline fit and baseline run, not after.
        raise ValueError(
            f"arrival_rate must be positive (requests/s), got {arrival_rate}"
        )
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if strategy is None:
        strategy = no_join_strategy()
    pipeline = fit_pipeline(dataset, model_key, strategy, scale=scale)
    artifact = artifact_from_pipeline(pipeline, dataset.schema)

    def fresh_server(**kwargs) -> PredictionServer:
        return PredictionServer(
            artifact, dataset.schema, max_batch_size=batch_size, **kwargs
        )

    reference_server = fresh_server(max_wait_s=None, background_flush=False)
    requests = _request_stream(reference_server, dataset, rows)
    reference = reference_server.predict_batch(requests)

    report = ConcurrencyReport(
        dataset=dataset.name,
        model_key=model_key,
        strategy=strategy.name,
        rows=rows,
        batch_size=batch_size,
        clients=clients,
        max_wait_s=max_wait_s,
        cpu_count=os.cpu_count() or 1,
    )

    baseline = fresh_server(max_wait_s=None, background_flush=False)
    baseline.predict_one(requests[0])  # warm caches off the clock
    seconds, results = _drive_clients(
        baseline, requests, clients, batched=False, arrival_rate=arrival_rate
    )
    report.baseline_rows_per_s = rows / seconds
    report.baseline_latency_ms = baseline.stats().latency_ms
    report.identical &= results == reference

    with fresh_server(max_wait_s=max_wait_s) as server:
        server.predict_one(requests[0])  # warm caches off the clock
        seconds, results = _drive_clients(
            server, requests, clients, batched=True, arrival_rate=arrival_rate
        )
        stats = server.stats()
    report.batched_rows_per_s = rows / seconds
    report.mean_batch_rows = stats.mean_batch_rows
    report.latency_ms = stats.latency_ms
    report.identical &= results == reference
    return report
