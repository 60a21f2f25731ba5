"""The factorize-or-gather plan against both forced layouts.

Trains L1 logistic regression (FISTA, fixed iteration count) over a
streamed OneXr star schema at every point of a sweep over the kept
dimension features ``d_R``, the dimension rows ``|D|`` and the tuple
ratio ``n / |D|``, with one shard of ``n`` rows.  Each point fits three
times over:

- **plan** — the encoder's own per-dimension decision
  (:func:`repro.data.encoder.factorize_dimension`);
- **gather** — every dimension gathered into per-row code columns, so a
  kernel pass costs ``O(n · (d_S + d_R))``;
- **factorize** — every dimension kept as a ``(|D|, d_R)`` block behind
  the FK, so a pass costs ``O(n · d_S + n + |D| · d_R)`` at a higher
  constant per block cell.

The forced layouts come from substituting the plan function for the
duration of their fits; nothing else differs.  Fits of the three
layouts are interleaved, at least ``--repeats`` rounds and until each
layout has fitted for ``MIN_FIT_SECONDS``, and the best time is kept, so
a slow phase of a shared host hits all three alike.

Every point also serves the plan's model through
:class:`~repro.serving.PredictionServer` in ``BATCH_ROWS``-row batches:
once as the server picks it (the load-time
:class:`~repro.serving.factorized.FactorizedScorer` for this linear
model) and once with the scorer withheld (gathered assembly + the
model's own predict), timing both.

The script exits non-zero unless, at every point, the three fits'
coefficients agree within 1e-10 and both servers return identical
predictions.  With ``--enforce`` it also fails when the plan's fit is
more than ``PLAN_SLACK`` slower than the faster forced layout, or the
scorer serves slower than the gathered path.

Usage::

    PYTHONPATH=src python benchmarks/bench_factorized.py --enforce
    # CI smoke: tiny sweep, equivalence checks only
    PYTHONPATH=src python benchmarks/bench_factorized.py \
        --d-r 8 --n-r 20 --ratios 10 100 --max-iter 10 --repeats 1 \
        --serve-rows 64 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from repro.core import join_all_strategy
from repro.data import encoder as encoder_module
from repro.data.spec import SourceSpec
from repro.datasets import OneXrScenario
from repro.ml.linear import L1LogisticRegression
from repro.obs import machine_info
from repro.rng import ensure_rng
from repro.serving import PredictionServer
from repro.serving import server as server_module
from repro.serving.artifacts import ModelArtifact, schema_fingerprint
from repro.streaming import StreamingTrainer

EQUIVALENCE_ATOL = 1e-10
#: Each layout keeps fitting until it has spent this long, so a
#: millisecond fit is timed as often as it takes to find its floor.
MIN_FIT_SECONDS = 1.0
#: How much slower than the faster forced layout ``--enforce`` lets the
#: plan's fit be.
PLAN_SLACK = 0.15
#: Rows per served request batch (the server's default batch size).
BATCH_ROWS = 64

#: How each layout decides a dimension: the plan itself, or a constant.
LAYOUTS = {
    "plan": encoder_module.factorize_dimension,
    "gather": lambda n_rows, dim_rows, kept_features: False,
    "factorize": lambda n_rows, dim_rows, kept_features: True,
}


@contextlib.contextmanager
def substituted(module, name: str, value):
    """Replace ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def make_dataset(ratio: int, n_r: int, d_s: int, d_r: int, seed: int):
    """One OneXr draw at tuple ratio ``n_train / n_r``."""
    scenario = OneXrScenario(
        n_train=max(4, ratio * n_r), n_r=n_r, d_s=d_s, d_r=d_r
    )
    return scenario.sample(seed)


def fit_layouts(dataset, max_iter: int, repeats: int):
    """Best fit time, the last model and the rounds run, per layout.

    One source per layout: its single shard is encoded under that
    layout on the first fit and stays resident for the later ones.
    Rounds of one fit per layout repeat at least ``repeats`` times and
    until every layout has spent ``MIN_FIT_SECONDS`` fitting.
    """
    n_train = dataset.train.size
    spec = SourceSpec(shard_rows=n_train)
    sources = {
        layout: spec.build(dataset, join_all_strategy(), "train")
        for layout in LAYOUTS
    }
    seconds = {layout: float("inf") for layout in LAYOUTS}
    spent = {layout: 0.0 for layout in LAYOUTS}
    models = {}
    rounds = 0
    while rounds < repeats or min(spent.values()) < MIN_FIT_SECONDS:
        for layout, decide in LAYOUTS.items():
            # tol=0 disables early convergence: every layout runs
            # exactly max_iter FISTA passes, work for work.
            model = L1LogisticRegression(lam=1e-4, max_iter=max_iter, tol=0.0)
            with substituted(encoder_module, "factorize_dimension", decide):
                started = time.perf_counter()
                StreamingTrainer(model).fit(sources[layout])
                elapsed = time.perf_counter() - started
            seconds[layout] = min(seconds[layout], elapsed)
            spent[layout] += elapsed
            models[layout] = model
        rounds += 1
    feature_names = tuple(sources["plan"].feature_names)
    for source in sources.values():
        source.close()
    return models, feature_names, seconds, rounds


def make_artifact(model, feature_names, dataset) -> ModelArtifact:
    schema = dataset.schema
    target_domain = schema.fact.column(schema.target).domain
    return ModelArtifact(
        model=model,
        strategy=join_all_strategy(),
        feature_names=feature_names,
        target=schema.target,
        target_labels=tuple(target_domain.labels),
        fingerprint=schema_fingerprint(schema),
        model_key="lr_l1",
        dataset_name="one_xr_bench",
        metadata={"benchmark": "bench_factorized"},
    )


def serve_rows(dataset, n: int, seed: int) -> list[dict]:
    """Label-valued request rows drawn from the fact table's domains."""
    fact = dataset.schema.fact
    rng = ensure_rng(seed)
    columns = [c for c in fact.column_names if c != dataset.schema.target]
    idx = rng.integers(0, fact.n_rows, size=n)
    return [
        {c: fact.domain(c).decode([fact.codes(c)[i]])[0] for c in columns}
        for i in idx
    ]


def measure_serving(artifact, dataset, rows, repeats: int):
    """Best-of-``repeats`` time to serve ``rows`` in ``BATCH_ROWS``-row
    batches, with the server's own scorer and with it withheld."""
    batches = [
        rows[start : start + BATCH_ROWS]
        for start in range(0, len(rows), BATCH_ROWS)
    ]
    servers = {"scorer": PredictionServer(artifact, dataset.schema)}
    with substituted(
        server_module, "supports_factorized_serving", lambda model: False
    ):
        servers["gathered"] = PredictionServer(artifact, dataset.schema)
    assert servers["scorer"]._scorer is not None
    assert servers["gathered"]._scorer is None
    out = {}
    for path, server in servers.items():
        predictions = [p for batch in batches for p in server.predict_batch(batch)]
        out[path] = {"seconds": float("inf"), "predictions": predictions}
    for _ in range(repeats):
        for path, server in servers.items():
            started = time.perf_counter()
            for batch in batches:
                server.predict_batch(batch)
            out[path]["seconds"] = min(
                out[path]["seconds"], time.perf_counter() - started
            )
    for server in servers.values():
        server.close()
    return out


def run_point(args, d_r: int, n_r: int, ratio: int) -> dict:
    dataset = make_dataset(ratio, n_r, args.d_s, d_r, args.seed)
    n_train = int(dataset.train.size)
    models, names, seconds, rounds = fit_layouts(
        dataset, args.max_iter, args.repeats
    )
    best = min(seconds["gather"], seconds["factorize"])
    reference = models["gather"]
    coef_gap = max(
        max(
            float(np.max(np.abs(model.coef_ - reference.coef_))),
            abs(model.intercept_ - reference.intercept_),
        )
        for model in models.values()
    )
    artifact = make_artifact(models["plan"], names, dataset)
    rows = serve_rows(dataset, args.serve_rows, args.seed)
    served = measure_serving(
        artifact, dataset, rows, args.repeats
    )
    return {
        "d_r": d_r,
        "n_r": n_r,
        "tuple_ratio": ratio,
        "n_train": n_train,
        "plan_layout": (
            "factorize"
            if encoder_module.factorize_dimension(n_train, n_r, d_r)
            else "gather"
        ),
        "train_seconds": seconds,
        "train_rounds": rounds,
        "factorize_speedup": seconds["gather"] / seconds["factorize"],
        "plan_over_best": seconds["plan"] / best,
        "coef_max_abs_gap": coef_gap,
        "serving": {
            path: {"seconds": served[path]["seconds"], "rows": len(rows)}
            for path in served
        },
        "serving_predictions_identical": (
            served["scorer"]["predictions"] == served["gathered"]["predictions"]
        ),
    }


def failures(entry: dict, args) -> list[str]:
    """Why one sweep point fails its checks (empty when it passes)."""
    where = (
        f"d_R={entry['d_r']} |D|={entry['n_r']} "
        f"n/|D|={entry['tuple_ratio']}"
    )
    problems = []
    if entry["coef_max_abs_gap"] > EQUIVALENCE_ATOL:
        problems.append(
            f"{where}: coefficients differ by {entry['coef_max_abs_gap']:.2e}"
        )
    if not entry["serving_predictions_identical"]:
        problems.append(f"{where}: scorer and gathered serving diverged")
    if args.enforce:
        if entry["plan_over_best"] > 1.0 + PLAN_SLACK:
            problems.append(
                f"{where}: the plan fit {entry['plan_over_best']:.2f}x the "
                f"faster forced layout"
            )
        serving = entry["serving"]
        if serving["scorer"]["seconds"] > serving["gathered"]["seconds"]:
            problems.append(f"{where}: the scorer served slower than gathering")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--d-r", type=int, nargs="+", default=[8, 40],
        help="kept dimension features d_R to sweep",
    )
    parser.add_argument(
        "--n-r", type=int, nargs="+", default=[100, 1000],
        help="dimension rows |D| to sweep",
    )
    parser.add_argument(
        "--ratios", type=int, nargs="+", default=[5, 10, 20, 40, 100],
        help="tuple ratios n/|D| to sweep (one shard of n rows)",
    )
    parser.add_argument(
        "--d-s", type=int, default=2, help="home (fact) features"
    )
    parser.add_argument(
        "--max-iter", type=int, default=40, help="FISTA iterations per fit"
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="least interleaved fits per layout; the best time is kept",
    )
    parser.add_argument(
        "--serve-rows", type=int, default=512,
        help="request rows served per timing",
    )
    parser.add_argument(
        "--enforce", action="store_true",
        help="also fail on the timing checks (plan slack, scorer speed)",
    )
    parser.add_argument(
        "--out", default="BENCH_factorized.json", help="JSON output path"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    results = {
        "model": "L1LogisticRegression (FISTA, fixed iterations)",
        "plan": (
            "n * d_R >= BLOCK_FIXED_COST + d_R * (BLOCK_COLUMN_COST "
            "+ BLOCK_ROW_COST * |D|)"
        ),
        "block_costs": {
            name: getattr(encoder_module, name)
            for name in (
                "BLOCK_FIXED_COST", "BLOCK_COLUMN_COST", "BLOCK_ROW_COST"
            )
        },
        "d_s": args.d_s,
        "max_iter": args.max_iter,
        "repeats": args.repeats,
        "min_fit_seconds": MIN_FIT_SECONDS,
        "batch_rows": BATCH_ROWS,
        "equivalence_atol": EQUIVALENCE_ATOL,
        "points": [],
    }
    problems = []
    for d_r in args.d_r:
        for n_r in args.n_r:
            for ratio in args.ratios:
                entry = run_point(args, d_r, n_r, ratio)
                results["points"].append(entry)
                problems += failures(entry, args)
                seconds = entry["train_seconds"]
                serving = entry["serving"]
                print(
                    f"d_R={d_r:>3d} |D|={n_r:>5d} n/|D|={ratio:>4d}  "
                    f"gather {seconds['gather']:.4f}s  "
                    f"factorize {seconds['factorize']:.4f}s  "
                    f"({entry['factorize_speedup']:.2f}x)  "
                    f"plan={entry['plan_layout']:<9s} "
                    f"{entry['plan_over_best']:.2f}x best  "
                    f"serve scorer/gathered "
                    f"{serving['scorer']['seconds'] * 1e3:.2f}/"
                    f"{serving['gathered']['seconds'] * 1e3:.2f}ms  "
                    f"gap {entry['coef_max_abs_gap']:.1e}"
                )
    results["machine"] = machine_info()
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
