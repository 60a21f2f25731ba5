"""Process-tier scaling: sharded serving and data-parallel FISTA epochs.

Two measurements, one JSON, both on the `repro.parallel` process tier
and both checked for *exact* output identity against the serial path:

- **Serving** — ``concurrent_serving_throughput(process_workers=...)``:
  K open-loop client threads submit onto the shared micro-batcher, whose
  flushed batches are partitioned into contiguous chunks across
  predictor processes.  Same baseline (``predict_one`` per request) and
  same row-for-row identity check as the in-process benchmark
  (``benchmarks/bench_serving_concurrency.py``), so the two compare
  like for like.  Micro-batches are merged into one contiguous column-dict
  per chunk before crossing the process boundary, so the win survives
  even a single-core host — it comes from cross-client coalescing and
  per-chunk vectorisation, not from core count.
- **Epochs** — exact FISTA over an out-of-core strategy stream
  (:class:`~repro.streaming.StreamingMatrices`): the serial pass
  re-joins and re-encodes every shard on every FISTA iteration (the
  price of the bounded footprint), while
  :class:`~repro.parallel.ProcessFISTAPasses` ships each worker its
  stripe once and every subsequent pass is pure compute + width-sized
  IPC.  Coefficients, intercept, and iteration count must match the
  serial fit bit for bit — the reduction is folded in stream order.

Enforcement (outside ``--no-enforce``): the serving speedup at the
highest worker count must clear ``--min-serving-speedup`` and the epoch
speedup ``--min-epoch-speedup``; any output mismatch exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_process_scaling.py
    # CI smoke: tiny stream, correctness + relaxed floors
    PYTHONPATH=src python benchmarks/bench_process_scaling.py \
        --rows 800 --epoch-rows 12000 --max-iter 10 \
        --min-serving-speedup 1.0 --min-epoch-speedup 1.0 \
        --out /tmp/bench_process_scaling_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core import join_all_strategy
from repro.datasets import OneXrScenario, generate_real_world
from repro.experiments import get_scale
from repro.ml import L1LogisticRegression
from repro.obs import machine_info
from repro.parallel import ProcessFISTAPasses
from repro.serving import concurrent_serving_throughput
from repro.streaming import ShardedDataset, StreamingMatrices


def run_serving(args) -> dict:
    scale = get_scale(args.scale)
    dataset = generate_real_world(
        args.dataset, n_fact=scale.n_fact, seed=args.seed
    )
    report = concurrent_serving_throughput(
        dataset,
        model_key=args.model,
        rows=args.rows,
        batch_size=args.batch_size,
        clients=args.clients,
        process_workers=tuple(args.workers),
        max_wait_s=args.max_wait_s,
        scale=scale,
    )
    print(report.render())
    top = max(report.rates)
    return {
        "dataset": report.dataset,
        "model_key": report.model_key,
        "rows": report.rows,
        "batch_size": report.batch_size,
        "clients": report.clients,
        "max_wait_s": report.max_wait_s,
        "baseline_single_worker_rows_per_s": report.baseline_rows_per_s,
        "workers": {
            str(workers): {
                "rows_per_s": rate,
                "mean_batch_rows": report.mean_batch_rows.get(workers),
                "speedup_vs_single_worker_baseline": report.speedup(workers),
                "latency_ms": report.latency_ms.get(workers, {}),
            }
            for workers, rate in sorted(report.rates.items())
        },
        "headline_speedup": report.speedup(top),
        "headline_workers": top,
        "predictions_identical_to_single_threaded": report.identical,
    }


def run_epochs(args) -> dict:
    """Serial vs process-pool exact FISTA over an out-of-core stream."""
    population = OneXrScenario(n_r=args.n_r).population()
    sharded = ShardedDataset.from_population(
        population,
        n_rows=args.epoch_rows,
        shard_rows=args.epoch_shard_rows,
        seed=args.seed,
    )
    source = StreamingMatrices(sharded, join_all_strategy())

    def fresh_model():
        # tol=0 keeps every run at exactly --max-iter passes, so the
        # serial and pooled timings cover identical work.
        return L1LogisticRegression(max_iter=args.max_iter, tol=0.0)

    started = time.perf_counter()
    serial = fresh_model().fit_stream(source)
    serial_seconds = time.perf_counter() - started

    results: dict[int, dict] = {}
    identical = True
    for workers in args.workers:
        started = time.perf_counter()
        with ProcessFISTAPasses(source, workers=workers) as passes:
            fitted = fresh_model().fit_stream(source, passes=passes)
        elapsed = time.perf_counter() - started
        same = (
            np.array_equal(serial.coef_, fitted.coef_)
            and serial.intercept_ == fitted.intercept_
            and serial.n_iter_ == fitted.n_iter_
        )
        identical = identical and same
        results[workers] = {
            "seconds": elapsed,
            "speedup_vs_serial": serial_seconds / elapsed,
            "coefficients_bit_identical_to_serial": same,
        }
        print(
            f"epochs workers={workers}: {elapsed:.2f}s "
            f"({serial_seconds / elapsed:.2f}x vs serial "
            f"{serial_seconds:.2f}s, identical={same})"
        )
    top = max(results)
    return {
        "scenario": f"OneXr(n_r={args.n_r}) join_all",
        "rows": int(source.n_rows),
        "shards": int(source.n_shards),
        "onehot_width": int(source.onehot_width),
        "fista_iterations": args.max_iter,
        "serial_seconds": serial_seconds,
        "workers": {str(w): results[w] for w in sorted(results)},
        "headline_speedup": results[top]["speedup_vs_serial"],
        "headline_workers": top,
        "coefficients_bit_identical_to_serial": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dataset", default="yelp")
    parser.add_argument("--model", default="dt_gini")
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument(
        "--batch-size",
        type=int,
        default=512,
        help="micro-batch rows; chunks of batch/workers rows cross the "
        "process boundary, so keep this >= 64*workers",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--max-wait-s", type=float, default=0.002)
    parser.add_argument("--scale", choices=["smoke", "default", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-r", type=int, default=10)
    parser.add_argument("--epoch-rows", type=int, default=60000)
    parser.add_argument("--epoch-shard-rows", type=int, default=3000)
    parser.add_argument("--max-iter", type=int, default=30)
    parser.add_argument("--min-serving-speedup", type=float, default=3.0)
    parser.add_argument("--min-epoch-speedup", type=float, default=1.5)
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="record results without failing on the speedup floors",
    )
    parser.add_argument("--out", default="BENCH_process_scaling.json")
    args = parser.parse_args(argv)
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")
    if any(w < 1 for w in args.workers):
        parser.error(f"--workers entries must be >= 1, got {args.workers}")

    serving = run_serving(args)
    epochs = run_epochs(args)
    results = {
        "benchmark": "process_scaling",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "start_method_env": os.environ.get("REPRO_MP_START_METHOD"),
        "machine": machine_info(),
        "serving": serving,
        "epochs": epochs,
    }
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")

    failures = []
    if not serving["predictions_identical_to_single_threaded"]:
        failures.append("process-sharded predictions diverged from serial")
    if not epochs["coefficients_bit_identical_to_serial"]:
        failures.append("pooled FISTA coefficients diverged from serial")
    if not args.no_enforce:
        if serving["headline_speedup"] < args.min_serving_speedup:
            failures.append(
                f"serving speedup {serving['headline_speedup']:.2f}x at "
                f"{serving['headline_workers']} workers is below the "
                f"{args.min_serving_speedup:.2f}x floor"
            )
        if epochs["headline_speedup"] < args.min_epoch_speedup:
            failures.append(
                f"epoch speedup {epochs['headline_speedup']:.2f}x at "
                f"{epochs['headline_workers']} workers is below the "
                f"{args.min_epoch_speedup:.2f}x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
