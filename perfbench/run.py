"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_fista --seed 1 --seconds 20 --trace 0

One run is one fresh process: a golden check against
``perfbench/reference.json``, several timed set-ups (``setup_s`` is
their median), then units of work repeated for ``--seconds`` seconds,
then the output checks.  A fixed calibration kernel runs right before
and after every set-up and the timed part of every unit, and compute
times are reported scaled to a reference host's speed (see
``hostspeed.py``), so a slow phase of a shared host does not read as a
slower program.  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates plain units with units whose layer functions are wrapped
(see ``layers.py``) and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also appends
the full result record (machine, commit, seed, traced flag) to FILE as
one JSON line, for ``compare.py``.

The exit code is 0 when every output checked out, 1 when an output was
wrong or an operation failed, and 2 when the program under test could
not be imported or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"

#: Units of work each side of a run makes at least, however short
#: ``--seconds`` is.  An untraced run also makes at least one unit per
#: input of the workload (``inputs``), so its figures always stand for
#: all of them.
MIN_UNITS = 3
MIN_TRACED_UNITS = 2
#: Timed set-ups per run (``setup_s`` is their median): at least
#: ``SETUPS``, more while the set-up phase (set-ups and the host probes
#: around them) has taken under ``SETUP_SECONDS``, so a cheap set-up
#: is sampled often enough to give a steady median.
SETUPS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 200
#: The seed and size of the golden check against ``reference.json``.
CHECK_SEED = 7
CHECK_SIZE = "tiny"


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the harness tests",
    )
    parser.add_argument("--out", type=Path, help="append the result record")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="recompute reference.json from the current code and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_program():
    """Put ``src`` on the path and import the package under test."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401
    import layers
    import workloads

    return layers, workloads


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def golden_check(workloads, name: str) -> str | None:
    """Run the workload tiny at the check seed and compare to the file."""
    stored = json.loads(REFERENCE_PATH.read_text())
    workload = workloads.WORKLOADS[name](CHECK_SIZE)
    workload.setup(stored["seed"])
    try:
        workload.prepare(traced=False)
        unit = workload.unit(False, hostspeed.HostSpeed().probe)
    finally:
        workload.close()
    if unit.failed:
        return f"golden check: {unit.failed} operation(s) raised"
    if not workload.matches(stored[name], workload.summary(unit.outputs)):
        return (
            f"golden check: outputs at seed {stored['seed']} differ from "
            f"{REFERENCE_PATH.name}"
        )
    return None


def write_reference(workloads) -> None:
    reference = {"seed": CHECK_SEED, "size": CHECK_SIZE}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(CHECK_SIZE)
        workload.setup(CHECK_SEED)
        try:
            workload.prepare(traced=False)
            unit = workload.unit(False, hostspeed.HostSpeed().probe)
        finally:
            workload.close()
        if unit.failed:
            raise RuntimeError(f"{name}: an operation raised; not writing")
        reference[name] = workload.summary(unit.outputs)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


def measure(workload, seconds: float, traced: bool, layers, probe):
    """Units of work until ``seconds`` have passed.

    Returns ``(plain_units, traced_units, tracer)``.  A traced run
    alternates plain and traced units, so both see the same warm-up
    and host, and the tracing overhead is the ratio of their typical
    times.
    """
    plain, wrapped = [], []
    tracer = layers.LayerTracer() if traced else None

    def timed(traced_unit: bool):
        started = time.perf_counter()
        unit = workload.unit(traced_unit, probe)
        unit.wall = time.perf_counter() - started
        return unit

    deadline = time.perf_counter() + seconds
    while True:
        plain.append(timed(False))
        if traced:
            with layers.install(tracer):
                wrapped.append(timed(True))
        enough = len(wrapped) >= MIN_TRACED_UNITS if traced else (
            len(plain) >= max(MIN_UNITS, workload.inputs)
        )
        if enough and time.perf_counter() >= deadline:
            return plain, wrapped, tracer


def typical(units, value, pick=statistics.median) -> float:
    """``pick`` of ``value(unit)`` per input, averaged over the inputs.

    Units on different inputs (``Unit.key``) do different amounts of
    work, so each input keeps its own median (or ``pick``).
    """
    per_input: dict = {}
    for unit in units:
        measured = value(unit)
        if measured is not None:
            per_input.setdefault(unit.key, []).append(measured)
    if not per_input:
        return 0.0
    return statistics.fmean(pick(values) for values in per_input.values())


def unit_seconds(units) -> float:
    """Typical unit time, in reference-host seconds."""
    return typical(
        units, lambda unit: hostspeed.scaled(unit.seconds, unit.host_s)
    )


def unit_percentile(units, q: float, compute_bound: bool) -> float:
    """A run's ``q``-th latency percentile of the units' operations.

    Compute-bound latencies are scaled by host speed like unit times,
    and the median unit's is reported.  Open-loop latencies at a fixed
    rate are waits on the server's threads, which the calibration
    kernel does not track: in slow phases of a shared host the p99 of
    whole runs of units doubled while the kernel's time did not move.
    Interference only adds to them, so the best unit's is reported, as
    measured.
    """

    def value(unit):
        if not unit.latencies_ms:
            return None
        measured = percentile(unit.latencies_ms, q)
        if compute_bound:
            return hostspeed.scaled(measured, unit.host_s)
        return measured

    return typical(units, value, statistics.median if compute_bound else min)


def end_to_end_metrics(
    workload, setup_times, plain, attempted, failed, peak_kb
) -> dict:
    compute_bound = workload.compute_bound_latency
    return {
        "setup_s": statistics.median(setup_times),
        "work_s": unit_seconds(plain),
        "p50_ms": unit_percentile(plain, 50, compute_bound),
        "p99_ms": unit_percentile(plain, 99, compute_bound),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def layer_metrics(workload, plain, wrapped, tracer) -> dict:
    """Per-unit layer totals of the traced units, plus the extras."""
    n = len(wrapped)
    metrics = {}
    for name, stats in tracer.stats.items():
        metrics[f"{name}.calls"] = stats.calls / n
        metrics[f"{name}.s"] = stats.seconds / n
        metrics[f"{name}.self_s"] = stats.self_seconds / n
        metrics[f"{name}.cells"] = stats.cells / n
    metrics.update(workload.layer_extras(wrapped, tracer))
    traced_s = unit_seconds(wrapped)
    plain_s = unit_seconds(plain)
    metrics["trace.work_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.accounted_frac"] = tracer.total_self_seconds() / sum(
        unit.wall for unit in wrapped
    )
    return metrics


def select(spec_metrics: list[dict], values: dict, required: bool) -> dict:
    """The metrics ``BENCHMARK.json`` lists, in its order, with units.

    A per-layer metric the workload never exercised reads 0; a missing
    end-to-end metric is a harness bug.
    """
    selected = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name not in values and required:
            raise KeyError(f"workload did not produce metric {name!r}")
        selected[name] = {
            "value": float(values.get(name, 0.0)),
            "unit": metric["unit"],
        }
    return selected


def run(args, layers, workloads) -> dict:
    from repro.obs import machine_info

    spec = json.loads(SPEC_PATH.read_text())
    cls = workloads.WORKLOADS[args.workload]
    failures: list[str] = []
    attempted, failed = 1, 0
    message = golden_check(workloads, args.workload)
    if message is not None:
        failed += 1
        failures.append(message)

    probe = hostspeed.HostSpeed().probe
    setup_times = []
    workload = None
    started = time.perf_counter()
    while len(setup_times) < SETUPS or (
        time.perf_counter() - started < SETUP_SECONDS
        and len(setup_times) < MAX_SETUPS
    ):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload = cls(args.size)
        _, seconds, host_s = hostspeed.timed(probe, workload.setup, args.seed)
        setup_times.append(hostspeed.scaled(seconds, host_s))
    try:
        workload.prepare(traced=bool(args.trace))
        plain, wrapped, tracer = measure(
            workload, args.seconds, bool(args.trace), layers, probe
        )
        units = plain + wrapped
        attempted += sum(unit.attempted for unit in units)
        failed += sum(unit.failed for unit in units)
        # Peak memory is read before the checks build their references.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for unit in units:
            wrong, message = workload.check(unit)
            failed += wrong
            if message is not None and len(failures) < 5:
                failures.append(message)
        if args.trace:
            values = layer_metrics(workload, plain, wrapped, tracer)
            metrics = select(spec["per_layer"], values, required=False)
        else:
            e2e = end_to_end_metrics(
                workload, setup_times, plain, attempted, failed, peak_kb
            )
            metrics = select(spec["end_to_end"], e2e, required=True)
    finally:
        workload.close()
    return {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "size": args.size,
        "seconds": args.seconds,
        "units": len(plain),
        "traced_units": len(wrapped),
        "host_probe_s": statistics.median(unit.host_s for unit in units),
        "host_reference_s": hostspeed.REFERENCE_S,
        "commit": git_commit(),
        "machine": machine_info(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        layers, workloads = _import_program()
    except ImportError as error:
        print(
            f"error: cannot import the program under test from "
            f"{ROOT / 'src'}: {error}",
            file=sys.stderr,
        )
        return 2
    if args.write_reference:
        write_reference(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    record = run(args, layers, workloads)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
    for message in record["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
