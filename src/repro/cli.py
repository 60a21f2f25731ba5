"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

The subcommands cover the workflows a downstream user reaches for
first:

- ``advise``      — join-safety advice for an emulated dataset.
- ``stats``       — Table-1-style statistics for the emulated datasets.
- ``run``         — one experiment cell (dataset × model × strategy).
- ``fit``         — fit one model configuration, in memory or
  out-of-core (``--stream`` with ``--shard-rows``/``--shards``).
- ``simulate``    — a OneXr Monte Carlo sweep over the FK domain size.
- ``usage``       — FK split-usage analysis of a fitted tree.
- ``save-model``  — fit a pipeline and export it as a serving artifact.
- ``predict``     — serve predictions from a saved artifact.
- ``serve-bench`` — single-row vs micro-batched serving throughput.

``fit``, ``predict`` and ``serve-bench`` accept ``--telemetry OUT.json``:
the command runs inside the process-wide tracer and writes its span-tree
run report (plus a metrics snapshot) when done.  ``stats`` appends the
process-wide metric registry to its output.

Everything the CLI does is a thin veneer over the public API, so the
commands double as living documentation of it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro import obs
from repro.obs import emit
from repro.core import (
    FAMILY_THRESHOLDS,
    advise,
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.datasets import (
    OneXrScenario,
    dataset_statistics,
    generate_real_world,
)
from repro.datasets.realworld import DATASET_ORDER
from repro.experiments import (
    MODEL_REGISTRY,
    STREAMABLE_MODELS,
    FigureSeries,
    get_scale,
    run_experiment,
    sweep,
)
from repro.resilience.chaos import CHAOS_TRAINABLE

_STRATEGIES = {
    "JoinAll": join_all_strategy,
    "NoJoin": no_join_strategy,
    "NoFK": no_fk_strategy,
}


def _parse_parallel(value: str) -> int:
    """``--parallel workers=N`` (or bare ``N``) -> the worker count."""
    text = value[len("workers="):] if value.startswith("workers=") else value
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected workers=N (or a bare integer), got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1, got {workers}"
        )
    return workers


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Are Key-Foreign Key Joins Safe to Avoid when "
            "Learning High-Capacity Classifiers?' (VLDB 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_advise = sub.add_parser("advise", help="join-safety advice for a dataset")
    p_advise.add_argument("dataset", choices=DATASET_ORDER)
    p_advise.add_argument(
        "--family",
        choices=sorted(FAMILY_THRESHOLDS),
        default="decision_tree",
    )
    p_advise.add_argument("--n-fact", type=int, default=2000)
    p_advise.add_argument("--seed", type=int, default=0)

    p_stats = sub.add_parser("stats", help="Table-1-style dataset statistics")
    p_stats.add_argument("--n-fact", type=int, default=2000)
    p_stats.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="run one experiment cell")
    p_run.add_argument("dataset", choices=DATASET_ORDER)
    p_run.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p_run.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="NoJoin"
    )
    p_run.add_argument("--scale", choices=["smoke", "default", "paper"])
    p_run.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser(
        "fit",
        help="fit one model configuration, in memory or out-of-core",
    )
    p_fit.add_argument("dataset", choices=DATASET_ORDER)
    p_fit.add_argument("model", choices=sorted(STREAMABLE_MODELS))
    p_fit.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="NoJoin"
    )
    p_fit.add_argument(
        "--stream",
        action="store_true",
        help="train out-of-core over bounded shards (repro.streaming)",
    )
    # Deliberately NOT an argparse mutually-exclusive group: the
    # contradiction is validated in _cmd_fit with a message explaining
    # *why* the combination is rejected, and regression-tested there.
    p_fit.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        help="rows per shard for --stream (bounds peak memory)",
    )
    p_fit.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of shards for --stream (alternative to --shard-rows)",
    )
    p_fit.add_argument(
        "--prefetch",
        type=int,
        default=None,
        metavar="DEPTH",
        help="prefetch shards on a background thread (queue depth)",
    )
    p_fit.add_argument(
        "--spill-cache",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help=(
            "cache encoded shards on disk between passes (optional "
            "directory; default: a private temporary one)"
        ),
    )
    p_fit.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "write atomic training checkpoints here (requires --stream; "
            "logistic training switches to mode='incremental', the "
            "checkpointable path)"
        ),
    )
    p_fit.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="shard steps between checkpoints (with --checkpoint-dir)",
    )
    p_fit.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore the latest checkpoint in --checkpoint-dir before "
            "training (an empty directory simply starts fresh)"
        ),
    )
    p_fit.add_argument(
        "--parallel",
        type=_parse_parallel,
        default=0,
        metavar="workers=N",
        help=(
            "produce training shards on N worker processes "
            "(repro.parallel.ProcessPrefetchingSource; bit-identical to "
            "serial); every model consumes them in-process"
        ),
    )
    p_fit.add_argument("--scale", choices=["smoke", "default", "paper"])
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.json",
        help="write a span-tree run report (join/encode/fit/score) here",
    )

    p_usage = sub.add_parser(
        "usage", help="FK split-usage analysis of a fitted tree (Section 5)"
    )
    p_usage.add_argument("dataset", choices=DATASET_ORDER)
    p_usage.add_argument("--n-fact", type=int, default=1200)
    p_usage.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser(
        "simulate", help="OneXr Monte Carlo sweep over the FK domain size"
    )
    p_sim.add_argument(
        "--n-r", type=int, nargs="+", default=[2, 10, 50, 200],
        help="FK domain sizes to sweep",
    )
    p_sim.add_argument("--n-train", type=int, default=400)
    p_sim.add_argument("--runs", type=int, default=4)
    p_sim.add_argument("--p", type=float, default=0.1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--csv", action="store_true", help="emit CSV")

    p_save = sub.add_parser(
        "save-model", help="fit a pipeline and export a serving artifact"
    )
    p_save.add_argument("dataset", choices=DATASET_ORDER)
    p_save.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p_save.add_argument(
        "--strategy",
        choices=[*sorted(_STRATEGIES), "Advised"],
        default="NoJoin",
        help="feature-set strategy; 'Advised' applies the tuple-ratio rule",
    )
    p_save.add_argument("--scale", choices=["smoke", "default", "paper"])
    p_save.add_argument("--seed", type=int, default=0)
    p_save.add_argument("--out", required=True, help="artifact output path")

    p_pred = sub.add_parser(
        "predict", help="serve predictions from a saved artifact"
    )
    p_pred.add_argument("artifact", help="path written by save-model")
    p_pred.add_argument(
        "--rows", type=int, default=10, help="test rows to predict"
    )
    p_pred.add_argument(
        "--batch-size", type=int, default=64, help="micro-batch size"
    )
    p_pred.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.json",
        help="write a run report with the server's latency metrics here",
    )

    p_bench = sub.add_parser(
        "serve-bench",
        help="single-row vs micro-batched serving throughput",
    )
    p_bench.add_argument("dataset", choices=DATASET_ORDER)
    p_bench.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY), default="dt_gini"
    )
    p_bench.add_argument("--rows", type=int, default=2000)
    p_bench.add_argument("--batch-size", type=int, default=64)
    p_bench.add_argument("--scale", choices=["smoke", "default", "paper"])
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--clients",
        type=int,
        default=0,
        help=(
            "client threads for the concurrent-runtime benchmark; 0 "
            "(default) runs the single-threaded single-vs-batched report"
        ),
    )
    p_bench.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help=(
            "aggregate open-loop arrival rate in requests/s (with "
            "--clients > 0); default: unbounded (saturation)"
        ),
    )
    p_bench.add_argument(
        "--inject-faults",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "serve under chaos instead of benchmarking: poison RATE of "
            "request rows, bound the admission queue and quarantine the "
            "poison, then verify every surviving answer against a clean "
            "server (exit 2 on any divergence)"
        ),
    )
    p_bench.add_argument(
        "--parallel",
        type=_parse_parallel,
        default=0,
        metavar="workers=N",
        help=(
            "benchmark the process-sharded serving tier "
            "(repro.parallel.ProcessPredictorPool) with an N-process "
            "pool instead of the in-process server (requires "
            "--clients > 0)"
        ),
    )
    p_bench.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.json",
        help="write a span-tree run report of the benchmark here",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos soak: train and serve under injected faults, verified",
    )
    p_chaos.add_argument("dataset", choices=DATASET_ORDER)
    p_chaos.add_argument(
        "--train-model",
        choices=sorted(CHAOS_TRAINABLE),
        default="ann",
        help="checkpointable streaming model for the training leg",
    )
    p_chaos.add_argument(
        "--serve-model", choices=sorted(MODEL_REGISTRY), default="dt_gini"
    )
    p_chaos.add_argument("--shards", type=int, default=6)
    p_chaos.add_argument("--epochs", type=int, default=2)
    p_chaos.add_argument(
        "--fault-rate",
        type=float,
        default=0.25,
        help="fraction of shards given a transient first-attempt fault",
    )
    p_chaos.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="SHARDS",
        help=(
            "kill training after this many shard steps and resume from "
            "the checkpoint (default: mid-run)"
        ),
    )
    p_chaos.add_argument("--rows", type=int, default=160)
    p_chaos.add_argument(
        "--poison-rate",
        type=float,
        default=0.08,
        help="fraction of request rows the serving model poisons",
    )
    p_chaos.add_argument("--max-queue-rows", type=int, default=16)
    p_chaos.add_argument("--scale", choices=["smoke", "default", "paper"])
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.json",
        help="write a span-tree run report of the soak here",
    )

    p_lint = sub.add_parser(
        "lint",
        help="static-analysis suite over the codebase (repro.analysis)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    return parser


def _write_telemetry(path: str, metrics=None) -> None:
    """Write the tracer's run report (and a metrics snapshot) to ``path``."""
    report = obs.tracer().report(metrics=metrics)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    emit(f"telemetry report -> {path}")


def _cmd_advise(args: argparse.Namespace) -> int:
    dataset = generate_real_world(args.dataset, n_fact=args.n_fact, seed=args.seed)
    report = advise(dataset.schema, args.family, train_rows=dataset.train.size)
    emit(report)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    for name in DATASET_ORDER:
        dataset = generate_real_world(name, n_fact=args.n_fact, seed=args.seed)
        emit(dataset_statistics(dataset))
    metrics = obs.registry().snapshot()
    if metrics:
        emit("telemetry (process-wide registry):")
        for name, value in metrics.items():
            emit(f"  {name}: {value}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    dataset = generate_real_world(
        args.dataset, n_fact=get_scale(args.scale).n_fact, seed=args.seed
    )
    strategy = _STRATEGIES[args.strategy]()
    result = run_experiment(
        dataset, args.model, strategy, scale=get_scale(args.scale)
    )
    emit(result)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.data import SourceSpec

    # Usage errors exit before any dataset generation happens.
    if args.shard_rows is not None and args.shards is not None:
        emit(
            "error: --shard-rows and --shards both fix the shard layout; "
            "pass exactly one (rows per shard, or shard count)",
            error=True,
        )
        return 2
    streaming_flags = (
        ("--shard-rows", args.shard_rows),
        ("--shards", args.shards),
        ("--prefetch", args.prefetch),
        ("--spill-cache", args.spill_cache),
        ("--checkpoint-dir", args.checkpoint_dir),
    )
    if not args.stream and any(v is not None for _, v in streaming_flags):
        names = "/".join(name for name, _ in streaming_flags)
        emit(f"error: {names} require --stream", error=True)
        return 2
    for name, value in streaming_flags[:3]:
        if value is not None and value < 1:
            emit(f"error: {name} must be >= 1, got {value}", error=True)
            return 2
    if args.resume and args.checkpoint_dir is None:
        emit(
            "error: --resume restores from --checkpoint-dir; pass the "
            "directory the interrupted run checkpointed into",
            error=True,
        )
        return 2
    if args.checkpoint_every < 1:
        emit(
            f"error: --checkpoint-every must be >= 1, got "
            f"{args.checkpoint_every}",
            error=True,
        )
        return 2
    if args.stream:
        n_shards = args.shards
        if args.shard_rows is None and n_shards is None:
            # --stream without a layout still exercises the shard path,
            # as a single bounded shard.
            n_shards = 1
        spec = SourceSpec(
            shard_rows=args.shard_rows,
            n_shards=n_shards,
            prefetch=args.prefetch,
            spill_cache=args.spill_cache or False,
        )
    else:
        spec = SourceSpec()

    def run() -> int:
        scale = get_scale(args.scale)
        dataset = generate_real_world(
            args.dataset, n_fact=scale.n_fact, seed=args.seed
        )
        strategy = _STRATEGIES[args.strategy]()
        # Checkpointing needs a loop the trainer can cut at a shard
        # boundary: incremental mode for the logistic model, the
        # default epoch loop for partial_fit models.
        mode = (
            "incremental"
            if args.checkpoint_dir is not None and args.model == "lr_l1"
            else "exact"
        )
        result = run_experiment(
            dataset, args.model, strategy, scale=scale, source=spec,
            seed=args.seed, mode=mode, checkpoint=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every, resume=args.resume,
            parallel_workers=args.parallel,
        )
        if args.stream:
            shards = result.best_params
            emit(
                f"streamed {shards['n_shards']} shard(s) of "
                f"<= {shards['shard_rows']} rows"
            )
        emit(result)
        return 0

    if args.telemetry is None:
        return run()
    with obs.tracer().collect():
        code = run()
    _write_telemetry(args.telemetry)
    return code


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.ml import DecisionTreeClassifier, GridSearch

    def tree_factory():
        return GridSearch(
            DecisionTreeClassifier(unseen="majority", random_state=0),
            grid={"minsplit": [10, 100], "cp": [1e-3, 0.01]},
        )

    results = sweep(
        lambda n_r: OneXrScenario(n_train=args.n_train, n_r=n_r, p=args.p),
        values=args.n_r,
        model_factory=tree_factory,
        strategies=[join_all_strategy(), no_join_strategy(), no_fk_strategy()],
        n_runs=args.runs,
        seed=args.seed,
    )
    figure = FigureSeries(
        title="OneXr: avg test error vs |D_FK| (gini tree)", x_label="n_r"
    )
    for n_r, result in results:
        figure.add_point(n_r, result.test_error)
    emit(figure.to_csv() if args.csv else figure.render())
    return 0


def _cmd_usage(args: argparse.Namespace) -> int:
    from repro.experiments.analysis import fk_usage_report

    dataset = generate_real_world(args.dataset, n_fact=args.n_fact, seed=args.seed)
    report = fk_usage_report(dataset, strategy=join_all_strategy())
    emit(report)
    emit(
        f"foreign-key splits: {report.fraction('fk'):.0%}; "
        f"foreign-feature splits: {report.fraction('foreign'):.0%}"
    )
    return 0


def _resolve_strategy(name: str, dataset, model_key: str):
    """Map a CLI strategy name to a strategy, honouring the advisor."""
    if name == "Advised":
        family = MODEL_REGISTRY[model_key].family
        report = advise(
            dataset.schema, family, train_rows=dataset.train.size
        )
        return report.recommended_strategy()
    return _STRATEGIES[name]()


def _cmd_save_model(args: argparse.Namespace) -> int:
    from repro.experiments import fit_pipeline
    from repro.serving import artifact_from_pipeline, save_artifact

    scale = get_scale(args.scale)
    dataset = generate_real_world(
        args.dataset, n_fact=scale.n_fact, seed=args.seed
    )
    strategy = _resolve_strategy(args.strategy, dataset, args.model)
    pipeline = fit_pipeline(dataset, args.model, strategy, scale=scale)
    artifact = artifact_from_pipeline(
        pipeline,
        dataset.schema,
        metadata={"seed": args.seed, "n_fact": scale.n_fact},
    )
    path = save_artifact(artifact, args.out)
    emit(pipeline.result())
    emit(f"saved {artifact.summary()}")
    emit(f"  -> {path}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.serving import PredictionServer, load_artifact

    def run() -> tuple[int, PredictionServer | None]:
        artifact = load_artifact(args.artifact)
        dataset = generate_real_world(
            artifact.dataset_name,
            n_fact=artifact.metadata.get("n_fact"),
            seed=artifact.metadata.get("seed", 0),
        )
        server = PredictionServer(
            artifact, dataset.schema, max_batch_size=args.batch_size
        )
        rows = dataset.test[: args.rows]
        if rows.size == 0:
            emit("no rows requested (increase --rows)", error=True)
            return 2, server
        fact_rows = dataset.schema.fact.select(rows)
        predictions = server.predict_table(fact_rows)
        target = dataset.schema.fact.column(dataset.schema.target)
        observed = target.domain.decode(target.codes[rows])
        hits = sum(p == o for p, o in zip(predictions, observed))
        emit(f"{artifact.summary()}")
        for i, (p, o) in enumerate(zip(predictions, observed)):
            emit(f"  row {rows[i]}: predicted={p!r} observed={o!r}")
        emit(
            f"accuracy {hits}/{len(predictions)} = "
            f"{hits / len(predictions):.3f}"
        )
        emit(server.stats())
        return 0, server

    if args.telemetry is None:
        return run()[0]
    with obs.tracer().collect():
        code, server = run()
    # The server's registry carries the serving latency breakdown; the
    # report's metrics section scopes to it.
    _write_telemetry(
        args.telemetry, metrics=server.metrics if server else None
    )
    return code


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serving import concurrent_serving_throughput, serving_throughput

    if args.clients > 0 and args.arrival_rate is not None and args.arrival_rate <= 0:
        emit(
            f"error: --arrival-rate must be positive, got "
            f"{args.arrival_rate}",
            error=True,
        )
        return 2
    if args.inject_faults is not None:
        if not 0 < args.inject_faults <= 1:
            emit(
                f"error: --inject-faults takes a poison rate in (0, 1], "
                f"got {args.inject_faults}",
                error=True,
            )
            return 2
        if args.clients > 0:
            emit(
                "error: --inject-faults verifies answers row by row; the "
                "concurrent benchmark (--clients) measures throughput — "
                "run them separately",
                error=True,
            )
            return 2
    if args.parallel:
        if args.clients <= 0:
            emit(
                "error: --parallel benchmarks the process-sharded "
                "concurrent runtime; pass --clients > 0",
                error=True,
            )
            return 2
        if args.inject_faults is not None:
            emit(
                "error: --parallel and --inject-faults are separate "
                "modes; run them separately",
                error=True,
            )
            return 2

    def run() -> int:
        scale = get_scale(args.scale)
        dataset = generate_real_world(
            args.dataset, n_fact=scale.n_fact, seed=args.seed
        )
        if args.inject_faults is not None:
            from repro.resilience.chaos import chaos_serving_run

            verdict = chaos_serving_run(
                dataset,
                args.model,
                rows=args.rows,
                poison_rate=args.inject_faults,
                seed=args.seed,
                scale=scale,
            )
            emit(
                f"fault-injected serving: {args.dataset}/{args.model}, "
                f"{verdict['rows']} requests at poison rate "
                f"{verdict['poison_rate']}: shed {verdict['shed']}, "
                f"quarantined {verdict['poisoned_rows']} poisoned row(s), "
                f"{verdict['deadline_expired']}/{verdict['deadline_rows']} "
                f"deadline(s) expired, {verdict['mismatched']} mismatched "
                f"answer(s) -> {'ok' if verdict['ok'] else 'FAILED'}"
            )
            return 0 if verdict["ok"] else 2
        if args.clients > 0:
            report = concurrent_serving_throughput(
                dataset,
                model_key=args.model,
                rows=args.rows,
                batch_size=args.batch_size,
                clients=args.clients,
                process_workers=(args.parallel,),
                arrival_rate=args.arrival_rate,
                scale=scale,
            )
            emit(report.render())
            return 0 if report.identical else 2
        report = serving_throughput(
            dataset,
            model_key=args.model,
            rows=args.rows,
            batch_size=args.batch_size,
            scale=scale,
        )
        emit(report.render())
        return 0

    if args.telemetry is None:
        return run()
    with obs.tracer().collect():
        code = run()
    _write_telemetry(args.telemetry)
    return code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import chaos_soak

    def run() -> int:
        scale = get_scale(args.scale)
        dataset = generate_real_world(
            args.dataset, n_fact=scale.n_fact, seed=args.seed
        )
        report = chaos_soak(
            dataset,
            train_model=args.train_model,
            serve_model=args.serve_model,
            n_shards=args.shards,
            epochs=args.epochs,
            fault_rate=args.fault_rate,
            kill_after=args.kill_after,
            rows=args.rows,
            poison_rate=args.poison_rate,
            max_queue_rows=args.max_queue_rows,
            seed=args.seed,
            scale=scale,
        )
        emit(report.render())
        return 0 if report.ok else 2

    if args.telemetry is None:
        return run()
    with obs.tracer().collect():
        code = run()
    _write_telemetry(args.telemetry)
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis suite (``repro lint``)."""
    from repro.analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "advise": _cmd_advise,
    "stats": _cmd_stats,
    "run": _cmd_run,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "usage": _cmd_usage,
    "save-model": _cmd_save_model,
    "predict": _cmd_predict,
    "serve-bench": _cmd_serve_bench,
    "chaos": _cmd_chaos,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (:class:`ReproError`) are rendered as one-line
    messages with exit code 2 instead of tracebacks.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        emit(f"error: {error}", error=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
