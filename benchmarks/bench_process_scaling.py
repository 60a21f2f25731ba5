"""Process-tier scaling: process-sharded serving.

``concurrent_serving_throughput(process_workers=...)`` on the
`repro.parallel` process tier, checked for *exact* output identity
against the serial path: K open-loop client threads submit onto the
shared micro-batcher, whose flushed batches are partitioned into
contiguous chunks across predictor processes.  Same baseline
(``predict_one`` per request) and same row-for-row identity check as
the in-process benchmark (``benchmarks/bench_serving_concurrency.py``),
so the two compare like for like.  Micro-batches are merged into one
contiguous column-dict per chunk before crossing the process boundary,
so the win survives even a single-core host — it comes from
cross-client coalescing and per-chunk vectorisation, not from core
count.

Enforcement (outside ``--no-enforce``): the serving speedup at the
highest worker count must clear ``--min-serving-speedup``; any output
mismatch exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_process_scaling.py
    # CI smoke: small request stream, correctness + relaxed floor
    PYTHONPATH=src python benchmarks/bench_process_scaling.py \
        --rows 800 --min-serving-speedup 1.0 \
        --out /tmp/bench_process_scaling_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from repro.datasets import generate_real_world
from repro.experiments import get_scale
from repro.obs import machine_info
from repro.serving import concurrent_serving_throughput


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
    parser.add_argument("--min-serving-speedup", type=float, default=3.0)
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="record results without failing on the speedup floor",
    )
    parser.add_argument("--out", default="BENCH_process_scaling.json")
    args = parser.parse_args(argv)
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")
    if any(w < 1 for w in args.workers):
        parser.error(f"--workers entries must be >= 1, got {args.workers}")

    serving = run_serving(args)
    results = {
        "benchmark": "process_scaling",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "start_method_env": os.environ.get("REPRO_MP_START_METHOD"),
        "machine": machine_info(),
        "serving": serving,
    }
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")

    failures = []
    if not serving["predictions_identical_to_single_threaded"]:
        failures.append("process-sharded predictions diverged from serial")
    if (
        not args.no_enforce
        and serving["headline_speedup"] < args.min_serving_speedup
    ):
        failures.append(
            f"serving speedup {serving['headline_speedup']:.2f}x at "
            f"{serving['headline_workers']} workers is below the "
            f"{args.min_serving_speedup:.2f}x floor"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
