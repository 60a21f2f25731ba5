"""Data-layer decorators on a CSV source: spill cache + prefetch payoff.

Exact FISTA makes one full pass over the shards *per iteration* (plus
30 power-iteration passes for the step-size bound).  It keeps its first
:data:`~repro.ml.linear.logistic.RESIDENT_SHARDS` shards prepared in
memory, so a CSV-backed :class:`~repro.streaming.StreamingMatrices`
re-seeks, re-parses and re-encodes every shard past that cap dozens of
times per fit.  The :class:`~repro.data.SpillCacheSource` decorator
spills each shard's encoded ``(codes, labels)`` to disk on first
production, turning those re-reads into ``np.load`` calls;
:class:`~repro.data.PrefetchingSource` additionally overlaps shard
loading with the optimiser's arithmetic.  A stream within the cap is
read once per fit, so the cache only pays on streams with more shards
than the cap.

This benchmark writes a synthetic star-schema CSV, fits the same L1
logistic regression three ways — plain, spill-cached, spill+prefetch —
verifies the coefficients are **bit-identical** across all three
(decorators must not change results), and records wall-clock times.
The committed ``BENCH_prefetch_spill.json`` holds a reference run; the
script exits non-zero if the spill-cache speedup falls below
``--min-speedup`` or any fit disagrees.

Usage::

    PYTHONPATH=src python benchmarks/bench_prefetch_spill.py
    # CI smoke: 20 shards (12 past the cap), relaxed floor
    PYTHONPATH=src python benchmarks/bench_prefetch_spill.py \
        --rows 20000 --shard-rows 1000 --max-iter 10 --min-speedup 1.2 \
        --out /tmp/bench_prefetch_spill.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.strategies import join_all_strategy
from repro.data import PrefetchingSource, SpillCacheSource
from repro.ml.linear import L1LogisticRegression
from repro.obs import machine_info
from repro.rng import ensure_rng
from repro.streaming import ShardedDataset, StreamingMatrices


def write_star_csvs(
    directory: Path, rows: int, n_fk: int, seed: int
) -> tuple[Path, Path]:
    """A synthetic fact CSV (target, two home features, FK) + dimension."""
    rng = ensure_rng(seed)
    dim_path = directory / "vendors.csv"
    dim_path.write_text(
        "vendor,region,tier\n"
        + "".join(
            f"v{i},r{i % 7},t{i % 3}\n" for i in range(n_fk)
        )
    )
    fact_path = directory / "orders.csv"
    churn = rng.integers(0, 2, size=rows)
    channel = rng.integers(0, 4, size=rows)
    device = rng.integers(0, 3, size=rows)
    fk = rng.integers(0, n_fk, size=rows)
    with fact_path.open("w") as handle:
        handle.write("churn,channel,device,vendor\n")
        for i in range(rows):
            handle.write(f"c{churn[i]},ch{channel[i]},d{device[i]},v{fk[i]}\n")
    return fact_path, dim_path


def make_stream(fact_path: Path, dim_path: Path, shard_rows: int):
    sharded = ShardedDataset.from_csv(
        fact_path,
        target="churn",
        dimensions=[(dim_path, "vendor", "vendor")],
        shard_rows=shard_rows,
    )
    return StreamingMatrices(sharded, join_all_strategy())


def timed_fit(source, max_iter: int):
    model = L1LogisticRegression(lam=1e-3, max_iter=max_iter, tol=0.0)
    started = time.perf_counter()
    model.fit_stream(source)
    return model, time.perf_counter() - started


def run(args) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-prefetch-spill-"))
    try:
        return _run_in(workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(workdir: Path, args) -> dict:
    fact_path, dim_path = write_star_csvs(
        workdir, rows=args.rows, n_fk=args.fk_domain, seed=args.seed
    )

    plain_stream = make_stream(fact_path, dim_path, args.shard_rows)
    plain_model, plain_seconds = timed_fit(plain_stream, args.max_iter)

    with SpillCacheSource(
        make_stream(fact_path, dim_path, args.shard_rows)
    ) as spilled_stream:
        spilled_model, spilled_seconds = timed_fit(spilled_stream, args.max_iter)
        spill_stats = {
            "hits": spilled_stream.stats.hits,
            "misses": spilled_stream.stats.misses,
        }

    with PrefetchingSource(
        SpillCacheSource(make_stream(fact_path, dim_path, args.shard_rows)),
        depth=args.prefetch_depth,
    ) as stacked_stream:
        stacked_model, stacked_seconds = timed_fit(stacked_stream, args.max_iter)

    identical = bool(
        np.array_equal(plain_model.coef_, spilled_model.coef_)
        and np.array_equal(plain_model.coef_, stacked_model.coef_)
        and plain_model.intercept_
        == spilled_model.intercept_
        == stacked_model.intercept_
    )
    return {
        "settings": {
            "rows": args.rows,
            "shard_rows": args.shard_rows,
            "fk_domain": args.fk_domain,
            "max_iter": args.max_iter,
            "prefetch_depth": args.prefetch_depth,
            "seed": args.seed,
        },
        "csv_plain_seconds": round(plain_seconds, 4),
        "spill_cache_seconds": round(spilled_seconds, 4),
        "spill_plus_prefetch_seconds": round(stacked_seconds, 4),
        "spill_cache_speedup": round(plain_seconds / spilled_seconds, 2),
        "spill_plus_prefetch_speedup": round(
            plain_seconds / stacked_seconds, 2
        ),
        "spill_stats": spill_stats,
        "coefficients_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=60_000)
    parser.add_argument("--shard-rows", type=int, default=4_000)
    parser.add_argument("--fk-domain", type=int, default=500)
    parser.add_argument(
        "--max-iter",
        type=int,
        default=40,
        help="FISTA iterations (each re-reads the shards past the "
        "residency cap when uncached)",
    )
    parser.add_argument("--prefetch-depth", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail unless the spill cache delivers at least this speedup",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)

    report = run(args)
    report["machine"] = machine_info()
    rendered = json.dumps(report, indent=2)
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    if not report["coefficients_identical"]:
        print("FAIL: decorated fits diverged from the plain fit", file=sys.stderr)
        return 2
    if report["spill_cache_speedup"] < args.min_speedup:
        print(
            f"FAIL: spill-cache speedup {report['spill_cache_speedup']}x "
            f"below the {args.min_speedup}x floor",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
