"""Tests for the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 11  # not the default seed, and not the golden-check seed


def _targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) ``layers.install`` wraps."""
    probe = layers.LayerTracer()
    layers.install(probe)
    targets = [(owner, attr) for owner, attr, _ in probe._saved]
    probe.restore()
    return targets


def test_install_wraps_and_restore_puts_originals_back():
    targets = _targets()
    assert len(targets) >= 15
    originals = {(id(o), a): vars(o)[a] for o, a in targets}
    tracer = layers.LayerTracer()
    with layers.install(tracer):
        for owner, attr in targets:
            assert vars(owner)[attr] is not originals[(id(owner), attr)]
    for owner, attr in targets:
        assert vars(owner)[attr] is originals[(id(owner), attr)]


def test_restore_runs_when_the_traced_code_raises():
    module = types.SimpleNamespace()
    module.__dict__["work"] = lambda: 1
    original = vars(module)["work"]
    with pytest.raises(RuntimeError):
        with layers.LayerTracer() as tracer:
            tracer.wrap(module, "work", "toy.work")
            raise RuntimeError("boom")
    assert vars(module)["work"] is original


def test_wrap_refuses_inherited_attributes():
    class Base:
        def method(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        layers.LayerTracer().wrap(Child, "method", "toy.method")


def test_self_time_excludes_nested_layers_and_recursion_counts_once():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer(depth=0):
        if depth == 0:
            module.outer(1)  # the same layer nested inside itself
        module.inner()
        time.sleep(0.01)

    module.inner, module.outer = inner, outer
    with layers.LayerTracer() as tracer:
        tracer.wrap(module, "inner", "toy.inner")
        tracer.wrap(module, "outer", "toy.outer")
        module.outer()
    inner_stats, outer_stats = tracer.stats["toy.inner"], tracer.stats["toy.outer"]
    assert inner_stats.calls == 2 and outer_stats.calls == 2
    # Inclusive time counts the outermost call only: ~2 x (20 + 10) ms.
    assert 0.055 < outer_stats.seconds < 0.2
    assert outer_stats.self_seconds == pytest.approx(
        outer_stats.seconds - inner_stats.seconds, abs=1e-3
    )
    assert tracer.total_self_seconds() == pytest.approx(
        outer_stats.seconds, abs=1e-3
    )


def test_product_cells_counts_one_hot_nonzeros_and_dense_entries():
    from repro.ml.encoding import CategoricalMatrix
    from repro.ml.sparse import OneHotMatrix

    codes = np.array([[0, 1], [1, 2], [2, 0]])
    onehot = OneHotMatrix(CategoricalMatrix(codes, [3, 3], ["a", "b"]))
    assert layers.product_cells((onehot, np.zeros(6))) == 3 * 2
    assert layers.product_cells((onehot, np.zeros((6, 4)))) == 3 * 2 * 4
    assert layers.product_cells((np.zeros((3, 6)), np.zeros(6))) == 18


def _summary(workload, unit):
    return json.dumps(workload.summary(unit.outputs), sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_unit_outputs_equal_untraced(name):
    workload = workloads.WORKLOADS[name]("tiny")
    workload.setup(SEED)
    probe = hostspeed.HostSpeed().probe
    try:
        workload.prepare(traced=True)
        plain = workload.unit(False, probe)
        with layers.install(layers.LayerTracer()) as tracer:
            traced = workload.unit(True, probe)
        assert tracer.stats, "the traced unit went through no wrapped layer"
        assert plain.failed == traced.failed == 0
        assert _summary(workload, plain) == _summary(workload, traced)
        assert workload.check(plain) == (0, None)
        assert workload.check(traced) == (0, None)
    finally:
        workload.close()


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_tiny_with_a_non_default_seed(name, trace):
    done = _run(
        ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "0",
        "--trace", trace, "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_printing_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = _run(
        tmp_path, "--workload", "stream_fista", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_verdicts():
    spec = {"name": "work_s", "better": "lower", "bound": 0.1}
    old = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(old, [v * 0.8 for v in old], spec) == "better"
    assert compare.verdict(old, [v * 1.2 for v in old], spec) == "worse"
    assert compare.verdict(old, [v * 1.01 for v in old], spec) == "same"
    noisy = [0.5, 1.0, 1.5, 2.0, 1.0]
    assert compare.verdict(old, noisy, spec) == "unresolved"
    higher = dict(spec, better="higher")
    assert compare.verdict(old, [v * 0.8 for v in old], higher) == "worse"
    assert compare.verdict([10, 10, 10], [10, 10, 10], None) == "same"
    assert compare.verdict([10, 10, 10], [5, 5, 5], None) == "better"


def test_compare_reads_run_records(tmp_path):
    def record(workload, value):
        return json.dumps({
            "workload": workload, "traced": False,
            "metrics": {"work_s": {"value": value, "unit": "s"}},
        })

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("\n".join(record("a", v) for v in (1.0, 1.0, 1.01)) + "\n")
    new.write_text("\n".join(record("a", v) for v in (2.0, 2.0, 2.01)) + "\n")
    specs = {"work_s": {"name": "work_s", "better": "lower", "bound": 0.1}}
    lines, any_worse = compare.compare(
        compare.load(old), compare.load(new), specs
    )
    assert any_worse
    assert any("work_s" in line and line.endswith("worse") for line in lines)
