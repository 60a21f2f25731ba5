"""The telemetry gate's op tables equal the serving hot path's metric calls.

``benchmarks/bench_telemetry_overhead.py`` enforces the <2% telemetry
budget as op microbenchmarks times two hand-kept tables,
``BATCHED_OPS_PER_FLUSH`` and ``SINGLE_OPS_PER_REQUEST``.  These tests
count the metric calls a live NoJoin ``dt_gini`` server makes on one
size-triggered 64-row flush and on one ``predict_one``, so a metric
call added to or dropped from either path fails here instead of
silently moving the gate.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import no_join_strategy
from repro.datasets import generate_real_world
from repro.experiments import fit_pipeline, get_scale
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving import MicroBatcher, PredictionServer, artifact_from_pipeline
from repro.serving.benchmark import _request_stream

BENCH = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "bench_telemetry_overhead.py"
)

#: The ops the gate prices, as (table key, owning class, method name).
OPS = (
    ("counter_inc", Counter, "inc"),
    ("gauge_set", Gauge, "set"),
    ("histogram_observe", Histogram, "observe"),
    ("histogram_observe_many", Histogram, "observe_many"),
    ("batcher_account", MicroBatcher, "_account"),
    ("registry_counter_lookup", MetricsRegistry, "counter"),
)

BATCH_ROWS = 64


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_telemetry_overhead", BENCH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def served():
    dataset = generate_real_world("yelp", n_fact=300, seed=0)
    pipeline = fit_pipeline(
        dataset, "dt_gini", no_join_strategy(), scale=get_scale("smoke")
    )
    artifact = artifact_from_pipeline(pipeline, dataset.schema)
    with PredictionServer(
        artifact,
        dataset.schema,
        max_batch_size=BATCH_ROWS,
        max_wait_s=None,
        background_flush=False,
    ) as server:
        yield server, _request_stream(server, dataset, BATCH_ROWS)


def _count_ops(action) -> dict[str, int]:
    """Calls of each priced op while ``action()`` runs."""
    counts = dict.fromkeys((key for key, _, _ in OPS), 0)

    def counting(key, method):
        def counted(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        for key, owner, name in OPS:
            patch.setattr(owner, name, counting(key, getattr(owner, name)))
        action()
    return counts


def _table(ops: dict[str, int]) -> dict[str, int]:
    """An op table with the ops it leaves out counted as zero."""
    return {**dict.fromkeys((key for key, _, _ in OPS), 0), **ops}


def test_one_size_triggered_flush_makes_the_batched_table(served, bench):
    server, requests = served

    def submit_one_batch():
        handles = [server.submit(row) for row in requests]
        # The last submit fills the batch and flushes it inline.
        assert all(handle.done() for handle in handles)

    submit_one_batch()  # warm: tree flat form, the "size" reason counter
    counts = _count_ops(submit_one_batch)
    assert counts == _table(bench.BATCHED_OPS_PER_FLUSH)
    # The reason counter is kept on the batcher: no registry lookup.
    assert counts["registry_counter_lookup"] == 0
    assert server.batcher.stats.flush_reasons == {"size": 2}


def test_the_instrument_swap_silences_the_reason_counters(served, bench):
    """With the gate's end-to-end swap off, a flush counts no reason, so
    the kept per-reason counters are among the instruments it swaps."""
    server, requests = served
    swap = bench._InstrumentSwap(server)
    before = server.batcher.stats.flush_reasons
    try:
        swap.set_enabled(False)
        for row in requests:
            server.submit(row)
        assert server.batcher.stats.flush_reasons == before
    finally:
        swap.set_enabled(True)
    for row in requests:
        server.submit(row)
    after = server.batcher.stats.flush_reasons
    assert after == {**before, "size": before["size"] + 1}


def test_one_predict_one_makes_the_single_table(served, bench):
    server, requests = served
    server.predict_one(requests[0])
    counts = _count_ops(lambda: server.predict_one(requests[1]))
    assert counts == _table(bench.SINGLE_OPS_PER_REQUEST)
