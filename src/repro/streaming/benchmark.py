"""Peak-memory scaling: sharded streaming vs in-memory training.

The claim the streaming engine exists to make true: training memory is
bounded by the *shard* size, not the *table* size.  This harness
measures it.  For each row count it draws an
:class:`~repro.datasets.synthetic.OneXrScenario` population and trains
L1 logistic regression (exact streaming FISTA) or the MLP (per-shard
minibatches) twice:

- **streaming** — shards drawn lazily via
  :meth:`ShardedDataset.from_population`; both fits keep at most
  :data:`~repro.data.source.RESIDENT_SHARDS` shards resident plus the
  one being read (:class:`~repro.data.source.ShardPasses`), alongside
  width-sized optimiser state.
- **in-memory** — the classic path: materialise every row, join, build
  the full :class:`CategoricalMatrix`, fit.  Beyond
  ``max_inmemory_rows`` this is skipped (that is the regime where it
  balloons toward OOM) and its footprint is reported as the
  straight-line estimate ``rows × bytes-per-row`` extrapolated from the
  largest measured point.

Peaks are measured with :mod:`tracemalloc` (numpy registers its
allocations with it), which tracks the Python-visible working set the
engine controls; the committed ``BENCH_streaming_scale.json`` records a
reference run.  ``benchmarks/bench_streaming_scale.py`` is the CLI
wrapper; ``tests/test_streaming_scale.py`` runs the same harness at
smoke sizes (slow variants carry ``@pytest.mark.slow``).
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.strategies import join_all_strategy
from repro.data.encoder import ShardEncoder
from repro.obs import MetricsRegistry, machine_info
from repro.datasets.synthetic import (
    DIM_NAME,
    FK_NAME,
    RID_NAME,
    TARGET_NAME,
    OneXrScenario,
)
from repro.ml import sparse
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression
from repro.ml.neural import MLPClassifier
from repro.relational.join import join_subset
from repro.relational.schema import KFKConstraint, StarSchema
from repro.streaming.matrices import StreamingMatrices
from repro.streaming.shards import ShardedDataset
from repro.streaming.trainer import StreamingTrainer

#: Models the scale benchmark knows how to build.
BENCH_MODELS = ("lr_l1", "ann")


def _make_model(model_key: str, max_iter: int, seed: int):
    if model_key == "lr_l1":
        # The iteration cap keeps wall time proportional to passes; the
        # memory profile per pass is what the benchmark measures.
        return L1LogisticRegression(lam=1e-3, max_iter=max_iter, tol=1e-6)
    if model_key == "ann":
        return MLPClassifier(hidden_sizes=(16,), epochs=3, random_state=seed)
    raise ValueError(f"model must be one of {BENCH_MODELS}, got {model_key!r}")


def _measure(fn):
    """Run ``fn`` and return ``(result, peak_traced_bytes, seconds)``."""
    gc.collect()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        result = fn()
        seconds = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, int(peak), seconds


@dataclass
class ScalePoint:
    """Measurements at one row count."""

    rows: int
    n_shards: int
    streaming_peak_bytes: int
    streaming_seconds: float
    streaming_train_accuracy: float
    #: Resident bytes of one shard's matrix + implicit one-hot view
    #: (``CategoricalMatrix.nbytes`` + ``OneHotMatrix.nbytes``) — the
    #: per-shard working set the streaming peak should track.
    shard_working_set_bytes: int = 0
    #: What the same shard would cost as a dense one-hot encoding.
    shard_dense_equivalent_bytes: int = 0
    #: Per-shard encode-latency histogram snapshot
    #: (``data.encode.shard_s``): count/sum/mean/min/max/p50/p95/p99
    #: seconds, as reported by :class:`repro.obs.Histogram`.
    encode_latency_s: dict = field(default_factory=dict)
    #: Where the streaming wall clock went: ``encode`` is the summed
    #: per-shard assembly time, ``optimize`` the remainder (model math
    #: plus shard iteration overhead).
    stage_seconds: dict = field(default_factory=dict)
    inmemory_peak_bytes: int | None = None
    inmemory_seconds: float | None = None
    inmemory_estimated_bytes: int | None = None


@dataclass
class StreamingScaleReport:
    """The benchmark's committed result shape."""

    model: str
    shard_rows: int
    max_iter: int
    seed: int
    scenario: dict = field(default_factory=dict)
    points: list[ScalePoint] = field(default_factory=list)

    def streaming_growth(self) -> float:
        """Largest-over-smallest streaming peak across all row counts.

        Close to 1.0 means the footprint is governed by the shard size;
        proportional to the row growth means it is not.
        """
        peaks = [p.streaming_peak_bytes for p in self.points]
        if not peaks or min(peaks) == 0:
            return float("inf")
        return max(peaks) / min(peaks)

    def bounded(self, factor: float = 2.0) -> bool:
        """Whether streaming peaks stay within ``factor`` of each other."""
        return self.streaming_growth() <= factor

    def row_growth(self) -> float:
        """Largest-over-smallest row count measured."""
        rows = [p.rows for p in self.points]
        if not rows or min(rows) == 0:
            return float("inf")
        return max(rows) / min(rows)

    def render(self) -> str:
        lines = [
            f"streaming-scale benchmark — model={self.model} "
            f"shard_rows={self.shard_rows}",
            f"{'rows':>9} {'shards':>7} {'stream peak':>12} "
            f"{'stream s':>9} {'in-mem peak':>12} {'in-mem s':>9}",
        ]
        for p in self.points:
            if p.inmemory_peak_bytes is not None:
                inmem = f"{p.inmemory_peak_bytes / 1e6:9.1f} MB"
            elif p.inmemory_estimated_bytes is not None:
                inmem = f"~{p.inmemory_estimated_bytes / 1e6:8.1f} MB"
            else:
                inmem = f"{'n/a':>12}"
            inmem_s = (
                f"{p.inmemory_seconds:8.2f}s"
                if p.inmemory_seconds is not None
                else "  skipped"
            )
            lines.append(
                f"{p.rows:>9} {p.n_shards:>7} "
                f"{p.streaming_peak_bytes / 1e6:9.1f} MB "
                f"{p.streaming_seconds:8.2f}s {inmem} {inmem_s}"
            )
        lines.append(
            f"rows grew {self.row_growth():.0f}x; streaming peak grew "
            f"{self.streaming_growth():.2f}x"
        )
        return "\n".join(lines)

    def to_json(self, path: str | Path) -> Path:
        path = Path(path)
        payload = asdict(self)
        payload["streaming_growth"] = self.streaming_growth()
        payload["row_growth"] = self.row_growth()
        payload["machine"] = machine_info()
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path


def streaming_scale_report(
    rows: list[int],
    shard_rows: int = 5000,
    model_key: str = "lr_l1",
    max_iter: int = 20,
    max_inmemory_rows: int | None = None,
    d_s: int = 8,
    d_r: int = 8,
    n_r: int = 64,
    seed: int = 0,
) -> StreamingScaleReport:
    """Measure streaming and in-memory peaks across growing row counts.

    Parameters
    ----------
    rows:
        Row counts to sweep (ascending recommended).
    shard_rows:
        Shard bound for the streaming runs — the quantity the streaming
        peak should track.
    model_key:
        ``"lr_l1"`` (exact streaming FISTA) or ``"ann"``.
    max_iter:
        FISTA iteration cap (wall-time knob; memory is per-pass).
    max_inmemory_rows:
        Skip the in-memory run above this many rows, extrapolating its
        footprint instead.  ``None`` measures every point.
    """
    scenario = OneXrScenario(n_train=max(rows), n_r=n_r, d_s=d_s, d_r=d_r)
    population = scenario.population(seed)
    strategy = join_all_strategy()
    report = StreamingScaleReport(
        model=model_key,
        shard_rows=shard_rows,
        max_iter=max_iter,
        seed=seed,
        scenario={"d_s": d_s, "d_r": d_r, "n_r": n_r, "strategy": strategy.name},
    )
    bytes_per_row: float | None = None
    for n in rows:
        sharded = ShardedDataset.from_population(
            population, n_rows=n, shard_rows=shard_rows, seed=seed
        )
        # A per-point registry isolates the encode-latency histogram to
        # this row count (the committed schema reports one snapshot per
        # sweep point, not a cumulative blur).
        metrics = MetricsRegistry(enabled=True)
        encoder = ShardEncoder(sharded.schema, strategy, registry=metrics)
        stream = StreamingMatrices(sharded, strategy, encoder=encoder)

        def fit_streaming():
            trainer = StreamingTrainer(
                _make_model(model_key, max_iter, seed), seed=seed
            )
            trainer.fit(stream)
            return trainer

        trainer, stream_peak, stream_seconds = _measure(fit_streaming)
        encode_snapshot = metrics.histogram("data.encode.shard_s").snapshot()
        encode_total = float(encode_snapshot["sum"])
        X0, _ = stream.shard(0)
        # The shard plus its kernel operand (a blocked shard is its own).
        operand = sparse.encode_features(X0)
        working_set = operand.nbytes + (0 if operand is X0 else X0.nbytes)
        point = ScalePoint(
            rows=n,
            n_shards=sharded.n_shards,
            streaming_peak_bytes=stream_peak,
            streaming_seconds=stream_seconds,
            streaming_train_accuracy=trainer.score(stream),
            shard_working_set_bytes=working_set,
            shard_dense_equivalent_bytes=X0.n_rows * stream.onehot_width * 8,
            encode_latency_s=encode_snapshot,
            stage_seconds={
                "encode": encode_total,
                "optimize": max(0.0, stream_seconds - encode_total),
            },
        )
        if max_inmemory_rows is None or n <= max_inmemory_rows:

            def fit_inmemory():
                block = population.draw(seed, n)
                table = population.block_table(block)
                schema = StarSchema(
                    fact=table,
                    target=TARGET_NAME,
                    dimensions=[
                        (
                            population.dimension_table(),
                            KFKConstraint(FK_NAME, DIM_NAME, RID_NAME),
                        )
                    ],
                )
                joined = join_subset(schema, strategy.joined_dimensions(schema))
                X = CategoricalMatrix.from_table(
                    joined, strategy.feature_names(schema)
                )
                y = table.codes(TARGET_NAME)
                model = _make_model(model_key, max_iter, seed)
                model.fit(X, y)
                return model

            _, inmem_peak, inmem_seconds = _measure(fit_inmemory)
            point.inmemory_peak_bytes = inmem_peak
            point.inmemory_seconds = inmem_seconds
            bytes_per_row = inmem_peak / n
        elif bytes_per_row is not None:
            point.inmemory_estimated_bytes = int(bytes_per_row * n)
        report.points.append(point)
    return report
