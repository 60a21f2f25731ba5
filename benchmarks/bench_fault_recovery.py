"""Fault-recovery benchmark: training correctness and cost under chaos.

Three fits of the same streaming model over the same sharded source:

1. **clean** — the source read directly, no faults: the wall-clock
   baseline;
2. **faulted** — a seeded :class:`~repro.resilience.FaultSchedule`
   gives a fraction of shards first-attempt transient read failures,
   absorbed by a :class:`~repro.resilience.RetryPolicy` through
   :class:`~repro.resilience.RetryingSource`;
3. **kill/resume** — the same faulted source, with the run killed by
   :class:`~repro.resilience.chaos.KillSwitchCheckpoint` at its
   checkpoint save halfway through the shard steps, then resumed from
   the newest checkpoint.

All three fits must produce **bit-identical** parameter arrays — a
recovery layer that survives but drifts is worse than a crash — and
the report records what the recovery cost: the faulted run's overhead
over clean, and the kill/resume pair's combined overhead (including
the steps re-trained since the last checkpoint).  The committed
``BENCH_fault_recovery.json`` holds a reference run; CI re-runs smoke
sizes.  Exits non-zero if any fit diverges or the effective injected
fault rate lands under 10%.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
    # CI smoke sizes
    PYTHONPATH=src python benchmarks/bench_fault_recovery.py \
        --n-fact 300 --shards 4 --epochs 2 --scale smoke \
        --out /tmp/bench_fault_recovery.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.strategies import no_join_strategy
from repro.data.spec import SourceSpec
from repro.datasets import generate_real_world
from repro.experiments.config import get_scale
from repro.experiments.runner import make_streaming_model
from repro.obs import MetricsRegistry, machine_info
from repro.resilience import (
    CheckpointManager,
    FaultInjectingSource,
    FaultSchedule,
    RetryingSource,
    RetryPolicy,
    TRANSIENT,
)
from repro.resilience.chaos import (
    CHAOS_TRAINABLE,
    ChaosKilledError,
    KillSwitchCheckpoint,
    models_identical,
)
from repro.streaming import StreamingTrainer


def _counter(registry: MetricsRegistry, name: str):
    metric = registry.get(name)
    return 0 if metric is None else metric.value


def run(args) -> dict:
    scale = get_scale(args.scale) if args.scale else None
    dataset = generate_real_world(args.dataset, n_fact=args.n_fact, seed=args.seed)
    registry = MetricsRegistry()
    spec = SourceSpec(n_shards=args.shards)
    train = spec.split_sources(
        dataset, no_join_strategy(), splits=("train",), registry=registry
    )["train"]
    mode = "incremental" if args.model == "lr_l1" else "exact"
    schedule = FaultSchedule.seeded(
        train.n_shards, rate=args.fault_rate, seed=args.seed
    )
    effective_rate = len(schedule.shards(TRANSIENT)) / train.n_shards
    total_steps = args.epochs * train.n_shards
    kill_after = max(2, total_steps // 2)

    def trainer(model, **extra):
        return StreamingTrainer(
            model, epochs=args.epochs, seed=args.seed, mode=mode, **extra
        )

    def faulted():
        return RetryingSource(
            FaultInjectingSource(train, schedule, registry=registry),
            RetryPolicy(max_attempts=3, base_delay_s=0.0005, seed=args.seed),
            registry=registry,
        )

    def timed_fit(source, **extra):
        model = make_streaming_model(args.model, scale, args.seed)
        started = time.perf_counter()
        trainer(model, **extra).fit(source)
        return model, time.perf_counter() - started

    try:
        clean_model, clean_seconds = timed_fit(train)
        faulted_model, faulted_seconds = timed_fit(faulted())
        with tempfile.TemporaryDirectory(prefix="repro-bench-fault-") as ckpt:
            killer = KillSwitchCheckpoint(ckpt, kill_after, registry=registry)
            victim = make_streaming_model(args.model, scale, args.seed)
            started = time.perf_counter()
            killed = False
            try:
                trainer(victim, checkpoint=killer, resume=True).fit(faulted())
            except ChaosKilledError:
                killed = True
            victim_seconds = time.perf_counter() - started
            resumed_model, resume_seconds = timed_fit(
                faulted(),
                checkpoint=CheckpointManager(ckpt, registry=registry),
                resume=True,
            )
    finally:
        train.close()

    faulted_identical = models_identical(clean_model, faulted_model)
    resumed_identical = models_identical(clean_model, resumed_model)
    return {
        "settings": {
            "dataset": args.dataset,
            "n_fact": args.n_fact,
            "shards": args.shards,
            "epochs": args.epochs,
            "model": args.model,
            "scale": args.scale,
            "fault_rate": args.fault_rate,
            "kill_after": kill_after,
            "seed": args.seed,
        },
        "effective_fault_rate": round(effective_rate, 4),
        "faulted_shards": list(schedule.shards(TRANSIENT)),
        "clean_seconds": round(clean_seconds, 4),
        "faulted_seconds": round(faulted_seconds, 4),
        "retry_overhead": round(faulted_seconds / clean_seconds - 1.0, 4),
        "killed_run_seconds": round(victim_seconds, 4),
        "resume_seconds": round(resume_seconds, 4),
        "kill_resume_overhead": round(
            (victim_seconds + resume_seconds) / clean_seconds - 1.0, 4
        ),
        "killed": killed,
        "counters": {
            name: _counter(registry, name)
            for name in (
                "resilience.faults_injected",
                "resilience.retries",
                "resilience.giveups",
                "resilience.checkpoints",
                "resilience.resumes",
            )
        },
        "faulted_identical": faulted_identical,
        "resumed_identical": resumed_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="yelp")
    parser.add_argument("--n-fact", type=int, default=3_000)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument(
        "--model", choices=CHAOS_TRAINABLE, default="ann",
        help="checkpointable streaming models only",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.25,
        help="fraction of shards given a transient first-attempt fault",
    )
    parser.add_argument("--scale", default=None, help="scale profile name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)
    if not 0.0 < args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in (0, 1], got {args.fault_rate}")

    report = run(args)
    report["machine"] = machine_info()
    rendered = json.dumps(report, indent=2)
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    if not (report["faulted_identical"] and report["resumed_identical"]):
        print(
            "FAIL: recovery changed the fitted model "
            f"(faulted_identical={report['faulted_identical']}, "
            f"resumed_identical={report['resumed_identical']})",
            file=sys.stderr,
        )
        return 2
    if not report["killed"]:
        print("FAIL: the kill switch never fired", file=sys.stderr)
        return 2
    if report["effective_fault_rate"] < 0.1:
        print(
            f"FAIL: effective fault rate "
            f"{report['effective_fault_rate']:.0%} below the 10% floor",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
