"""Compare two sets of benchmark results, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds result records, one JSON object a line, as
``run.py --out FILE`` appends them.  For every workload (traced and
untraced runs apart) and every metric, the command prints each side's
median and quartiles and a verdict:

- end-to-end metrics, using their bound from ``BENCHMARK.json``:
  ``unresolved`` when either side's quartile spread exceeds the bound;
  else ``worse`` when the new median is worse by more than the bound;
  ``better`` when the new median is better by more than the old side's
  spread and the new value wins at least nine tenths of all
  (old, new) pairs; otherwise ``same``.
- per-layer metrics, which have no bound: ``same`` when both medians
  are equal, ``better`` or ``worse`` when the quartile ranges do not
  overlap, otherwise ``unresolved``.

The exit code is 1 when any end-to-end metric reads ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """``{(workload, traced): {metric: [values]}}`` from one file."""
    grouped: dict = {}
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict) or "workload" not in record:
            continue
        metrics = grouped.setdefault(
            (record["workload"], bool(record.get("traced"))), {}
        )
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
    return grouped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(old: list[float], new: list[float], spec: dict | None) -> str:
    lower_is_better = spec is None or spec.get("better", "lower") == "lower"
    sign = 1.0 if lower_is_better else -1.0
    _, old_median, _ = quartiles(old)
    _, new_median, _ = quartiles(new)
    bound = None if spec is None else spec.get("bound")
    if bound is None:
        if old_median == new_median:
            return "same"
        old_q1, _, old_q3 = quartiles(old)
        new_q1, _, new_q3 = quartiles(new)
        if new_q3 < old_q1 or new_q1 > old_q3:
            worse = sign * (new_median - old_median) > 0
            return "worse" if worse else "better"
        return "unresolved"
    if spread(old) > bound or spread(new) > bound:
        return "unresolved"
    base = abs(old_median) or 1.0
    change = sign * (new_median - old_median) / base  # > 0 is worse
    if change > bound:
        return "worse"
    wins = sum(sign * (n - o) < 0 for o in old for n in new)
    if -change > spread(old) and wins >= 0.9 * len(old) * len(new):
        return "better"
    return "same"


def compare(old: dict, new: dict, specs: dict) -> tuple[list[str], bool]:
    """The report lines, and whether any end-to-end metric got worse."""
    lines, any_worse = [], False
    for key in sorted(set(old) | set(new)):
        workload, traced = key
        lines.append(f"{workload} ({'traced' if traced else 'untraced'})")
        lines.append(
            f"  {'metric':34s} {'old q1':>11s} {'old med':>11s} "
            f"{'old q3':>11s} {'new q1':>11s} {'new med':>11s} "
            f"{'new q3':>11s}  verdict"
        )
        old_metrics, new_metrics = old.get(key, {}), new.get(key, {})
        for name in sorted(set(old_metrics) | set(new_metrics)):
            if name not in old_metrics or name not in new_metrics:
                lines.append(f"  {name:34s} only on one side")
                continue
            spec = specs.get(name)
            outcome = verdict(old_metrics[name], new_metrics[name], spec)
            if outcome == "worse" and spec is not None and "bound" in spec:
                any_worse = True
            cells = " ".join(
                f"{value:11.5g}"
                for side in (old_metrics[name], new_metrics[name])
                for value in quartiles(side)
            )
            lines.append(f"  {name:34s} {cells}  {outcome}")
    return lines, any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines, any_worse = compare(load(args.old), load(args.new), specs)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
