"""Telemetry hot-path overhead: instrumented vs disabled serving.

The observability layer promises that keeping metrics on costs nearly
nothing.  The design that makes it true: counters are one lock + one
add, a histogram observation is one append (binned lazily, in one
branch-free pass, at read time), the batcher tallies submissions under
its already-held queue lock, and a successful flush keeps one record
that reads fold into the batcher's counters, gauge and both latency
histograms.  This benchmark holds the layer to the promise with two
measurements:

**Accounted overhead (the gated number).**  Every metric call on the
serving hot paths is enumerated (the batched ``submit``/flush path
makes *zero* per-row metric calls and a fixed set of per-flush calls;
``predict_one`` makes two counter increments and three histogram
observations per request).  Each op is timed in a tight loop over
fresh inputs, one per call — minimum over repeats — including its
amortised drains or folds, and the per-row telemetry cost that follows
from the op counts is divided by the measured per-row serving time.
The batched-path fraction must stay under ``--max-overhead`` (2%).
This is deliberately *not* an end-to-end A/B:
two measured quantities with nanosecond-stable numerators make a small
ceiling enforceable, and any future per-row metric call on the hot path
moves the accounted number deterministically, failing the gate.

**End-to-end check (reported, not gated).**  The same request stream is
timed with the server's metric instruments swapped between the real
registry and a disabled registry's no-op instruments *on the same
server object* (an on/off/on sandwich per trial, median ratio across
trials).  Same object means identical memory layout — a two-server A/B
carries a per-process allocation-layout bias that null experiments
(on-vs-on, off-vs-off sandwiches) showed to be several times larger
than the true overhead.  Even same-object, shared-host scheduling noise
leaves a percent-level floor on what a wall-clock ratio can resolve,
which is exactly why the budget is enforced on the accounted number and
this one is informational.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
    # CI smoke
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py \
        --rows 2000 --trials 5 --out /tmp/bench_telemetry_overhead.json

Exits non-zero when the accounted batched-path overhead exceeds
``--max-overhead``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from array import array
from collections import deque

import numpy as np

from repro.core.strategies import no_join_strategy
from repro.rng import ensure_rng
from repro.datasets import generate_real_world
from repro.experiments import get_scale
from repro.experiments.runner import fit_pipeline
from repro.obs import MetricsRegistry, machine_info
from repro.serving import MicroBatcher, PredictionServer, artifact_from_pipeline
from repro.serving.benchmark import _request_stream


# ----------------------------------------------------------------------
# Part 1: accounted overhead — op microbenchmarks x hot-path op counts
# ----------------------------------------------------------------------
def _time_calls(op, inputs: list[tuple], repeats: int = 5) -> float:
    """Seconds per call of ``op(*args)`` over ``inputs``, one call per
    input: min over ``repeats`` tight loops."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for args in inputs:
            op(*args)
        best = min(best, time.perf_counter() - started)
    return best / len(inputs)


def _flush_records(rng, batch_size: int, count: int) -> list[tuple]:
    """``count`` realistic flush records: ``batch_size`` submission times
    spread over up to 5 ms, then the flush and its delivery."""
    records = []
    now = 1000.0
    for _ in range(count):
        times = now + np.sort(rng.uniform(0.0, 5e-3, batch_size))
        flushed_at = float(times[-1]) + rng.uniform(0.0, 1e-4)
        delivered_at = flushed_at + rng.uniform(5e-5, 5e-4)
        records.append(("size", array("d", times), flushed_at, delivered_at))
        now = delivered_at
    return records


def measure_op_costs(batch_size: int, number: int) -> dict[str, float]:
    """Nanosecond cost of each metric op the serving hot paths make.

    Ops run against a live registry sized like a server's, so dict
    sizes and lock behaviour match production.  Every op takes a fresh
    input per call, drawn before the timed loop — stage latencies,
    per-row queue waits, whole flush records — so no branch predictor
    learns a replayed value.  The histogram ops and the batcher's flush
    record *include* their amortised drains and folds: each loop runs
    past the pending and fold thresholds repeatedly, so that cost lands
    inside the timed region as often as it does in a long-running
    server.
    """
    rng = ensure_rng(0)
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("bench.counter")
    gauge = registry.gauge("bench.gauge")
    histogram = registry.histogram("bench.histogram")
    many = registry.histogram("bench.histogram_many")
    batcher = MicroBatcher(
        list, max_batch_size=batch_size, max_wait_s=None,
        background_flush=False, registry=registry,
    )
    flushes = max(1, number // batch_size)
    stage_latencies = [(float(v),) for v in rng.lognormal(-8.3, 1.0, number)]
    queue_waits = [(rng.uniform(0.0, 5e-3, batch_size),) for _ in range(flushes)]
    costs = {
        "counter_inc": _time_calls(
            counter.inc, [(int(n),) for n in rng.integers(1, 65, number)]
        ),
        "gauge_set": _time_calls(
            gauge.set, [(int(n),) for n in rng.integers(1, 65, number)]
        ),
        "histogram_observe": _time_calls(histogram.observe, stage_latencies),
        "histogram_observe_many": _time_calls(many.observe_many, queue_waits),
        # One successful flush's accounting: its record, plus the
        # amortised fold into four metrics and two histograms.
        "batcher_account": _time_calls(
            batcher._account, _flush_records(rng, batch_size, flushes)
        ),
        # A registry lookup (one registry lock + dict hit).  The batched
        # path makes none (the batcher keeps its reason counters); the op
        # stays priced so a lookup put on the hot path shows in the gate.
        "registry_counter_lookup": _time_calls(
            registry.counter, [("bench.reason.size",)] * number
        ),
    }
    return {name: cost * 1e9 for name, cost in costs.items()}


#: Metric calls per flushed batch on the submit/flush path.  The per-row
#: count is zero by design: submissions are tallied as a plain int under
#: the queue lock and folded into the counter on read.
BATCHED_OPS_PER_FLUSH = {
    # _run_batch: _account (one flush record; reads fold the records
    #             into submitted, rows_flushed, the reason counters,
    #             batch_rows and both latency histograms)
    # _predict_encoded (one code array per flush): assemble/predict
    #             observe.  Rows flushed are the batcher's to count.
    "counter_inc": 0,
    "gauge_set": 0,
    "histogram_observe": 2,
    "histogram_observe_many": 0,
    "batcher_account": 1,
    "registry_counter_lookup": 0,
}

#: Metric calls per request on the predict_one path.
SINGLE_OPS_PER_REQUEST = {
    # requests.inc + request_latency.observe, then _predict_encoded's
    # assemble/predict observes and rows.inc on the one-row code array.
    "counter_inc": 2,
    "histogram_observe": 3,
}


def _accounted_ns(op_costs: dict[str, float], op_counts: dict[str, int]) -> float:
    return sum(op_costs[name] * count for name, count in op_counts.items())


# ----------------------------------------------------------------------
# Part 2: serving-path timing + end-to-end instrument swap
# ----------------------------------------------------------------------
def _time_single(server: PredictionServer, requests: list[dict]) -> float:
    started = time.perf_counter()
    for row in requests:
        server.predict_one(row)
    return time.perf_counter() - started


def _time_batched(server: PredictionServer, requests: list[dict]) -> float:
    started = time.perf_counter()
    handles = [server.submit(row) for row in requests]
    server.flush()
    for handle in handles:
        handle.result()
    return time.perf_counter() - started


class _InstrumentSwap:
    """Swap a live server's metric instruments with no-op ones.

    Holds (owner, attribute) -> real instrument for every metric object
    the hot paths touch, plus a no-op replacement of the matching kind
    from a disabled registry.  Swapping attributes on the *same* server
    object keeps memory layout identical between the on and off
    timings, which a two-server comparison cannot.
    """

    def __init__(self, server: PredictionServer):
        null = MetricsRegistry(enabled=False)
        batcher = server.batcher
        self._real = {
            # The flush records, which carry everything the batcher
            # accounts for a successful flush; a zero-length deque drops
            # each record on append.
            (batcher, "_flushed"): batcher._flushed,
            (server, "_assemble_seconds"): server._assemble_seconds,
            (server, "_predict_seconds"): server._predict_seconds,
            (server, "_rows"): server._rows,
            (server, "_requests"): server._requests,
            (server, "_request_latency"): server._request_latency,
        }
        self._null = {
            (owner, name): (
                deque(maxlen=0) if name == "_flushed" else null.counter("x")
            )
            for owner, name in self._real
        }

    def set_enabled(self, enabled: bool) -> None:
        source = self._real if enabled else self._null
        for (owner, name), instrument in source.items():
            setattr(owner, name, instrument)


def end_to_end_overhead(
    server: PredictionServer,
    requests: list[dict],
    timer,
    trials: int,
) -> dict:
    """Median on/off/on sandwich ratio with same-object instrument swap.

    The sandwich cancels drift that is linear across one trial; the
    swap removes inter-object layout bias; reading ``server.stats()``
    between trials drains deferred histogram binning outside the timed
    regions, where a production metrics scrape pays it.
    """
    swap = _InstrumentSwap(server)
    ratios: list[float] = []
    on_best = off_best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(trials):
            swap.set_enabled(True)
            t_on1 = timer(server, requests)
            swap.set_enabled(False)
            t_off = timer(server, requests)
            swap.set_enabled(True)
            t_on2 = timer(server, requests)
            ratios.append((t_on1 + t_on2) / (2.0 * t_off))
            on_best = min(on_best, t_on1, t_on2)
            off_best = min(off_best, t_off)
            server.stats()
    finally:
        swap.set_enabled(True)
        gc.enable()
    return {
        "median_sandwich_ratio": statistics.median(ratios),
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "telemetry_on_rows_per_s": len(requests) / on_best,
        "telemetry_off_rows_per_s": len(requests) / off_best,
        "trials": trials,
    }


def run(args) -> dict:
    scale = get_scale(args.scale)
    dataset = generate_real_world(
        args.dataset, n_fact=scale.n_fact, seed=args.seed
    )
    strategy = no_join_strategy()
    pipeline = fit_pipeline(dataset, args.model, strategy, scale=scale)
    artifact = artifact_from_pipeline(pipeline, dataset.schema)
    server = PredictionServer(
        artifact,
        dataset.schema,
        max_batch_size=args.batch_size,
        max_wait_s=None,
        telemetry=True,
    )
    requests = _request_stream(server, dataset, args.rows)
    _time_single(server, requests[:64])  # warm: index builds, dispatch
    _time_batched(server, requests[:64])

    op_costs = measure_op_costs(args.batch_size, args.ops)
    batched_flush_ns = _accounted_ns(op_costs, BATCHED_OPS_PER_FLUSH)
    batched_row_ns = batched_flush_ns / args.batch_size
    single_row_ns = _accounted_ns(op_costs, SINGLE_OPS_PER_REQUEST)

    gc.collect()
    gc.disable()
    try:
        batched_row_s = (
            min(_time_batched(server, requests) for _ in range(args.trials))
            / args.rows
        )
        single_row_s = (
            min(_time_single(server, requests) for _ in range(args.trials))
            / args.rows
        )
    finally:
        gc.enable()

    batched_overhead = batched_row_ns / (batched_row_s * 1e9)
    single_overhead = single_row_ns / (single_row_s * 1e9)
    end_to_end = {
        "batched": end_to_end_overhead(
            server, requests, _time_batched, args.trials
        ),
        "single": end_to_end_overhead(
            server, requests, _time_single, args.trials
        ),
    }
    return {
        "benchmark": "telemetry_overhead",
        "dataset": dataset.name,
        "model_key": args.model,
        "strategy": strategy.name,
        "rows": args.rows,
        "batch_size": args.batch_size,
        "trials": args.trials,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "op_cost_ns": op_costs,
        "batched": {
            "ops_per_flush": BATCHED_OPS_PER_FLUSH,
            "ops_per_row": 0,
            "telemetry_ns_per_row": batched_row_ns,
            "serving_ns_per_row": batched_row_s * 1e9,
            "overhead_fraction": batched_overhead,
        },
        "single": {
            "ops_per_request": SINGLE_OPS_PER_REQUEST,
            "telemetry_ns_per_row": single_row_ns,
            "serving_ns_per_row": single_row_s * 1e9,
            "overhead_fraction": single_overhead,
        },
        "end_to_end": end_to_end,
        "max_overhead_fraction": args.max_overhead,
        "within_budget": batched_overhead <= args.max_overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dataset", default="yelp")
    parser.add_argument("--model", default="dt_gini")
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--trials", type=int, default=7)
    parser.add_argument(
        "--ops",
        type=int,
        default=200_000,
        help="tight-loop iterations per metric-op microbenchmark",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.02,
        help="tolerated accounted batched-path overhead (fraction)",
    )
    parser.add_argument("--scale", choices=["smoke", "default", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_telemetry_overhead.json")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")

    results = run(args)
    for name, cost in results["op_cost_ns"].items():
        print(f"op {name:24s} {cost:8.0f} ns")
    for path in ("batched", "single"):
        block = results[path]
        e2e = results["end_to_end"][path]
        print(
            f"{path:8s} accounted {block['telemetry_ns_per_row']:6.0f} ns/row "
            f"of {block['serving_ns_per_row']:7.0f} ns/row "
            f"= {block['overhead_fraction'] * 100:5.2f}%   "
            f"(end-to-end sandwich {e2e['overhead_fraction'] * 100:+.2f}%)"
        )
    print(
        f"budget   {results['max_overhead_fraction'] * 100:.0f}% accounted "
        f"on the batched path: "
        f"{'ok' if results['within_budget'] else 'EXCEEDED'}"
    )
    results["machine"] = machine_info()
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if not results["within_budget"]:
        print(
            f"FAIL: accounted batched-path telemetry overhead "
            f"{results['batched']['overhead_fraction'] * 100:.2f}% exceeds "
            f"the --max-overhead budget "
            f"{results['max_overhead_fraction'] * 100:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
