"""Out-of-core sharded training with an equivalence-first contract.

The in-memory paths materialise a strategy's full feature matrix; this
package trains on bounded shards instead, with one guarantee front and
centre: **streaming training is numerically equivalent to in-memory
training**.  A single-shard streaming fit is bit-identical to the
in-memory fit (the logistic and tree ``fit`` methods are literally
``fit_stream`` over one shard, and the MLP's ``fit`` runs the epoch
pass ``partial_fit`` runs); Naive Bayes counts and tree histograms are
integers, so any shard layout gives the same model; multi-shard
logistic regression runs the same full-batch FISTA iterates with
gradients accumulated shard by shard, differing only in floating-point
association.

- :mod:`repro.streaming.shards` — :class:`ShardPlan` /
  :class:`ShardedDataset`: bounded fact-row shards from a split, a full
  table, a :class:`ScenarioPopulation`, or a chunked CSV.
- :mod:`repro.streaming.matrices` — :class:`StreamingMatrices`: the
  out-of-core :class:`repro.data.FeatureSource`, encoding each shard
  through the shared :class:`repro.data.ShardEncoder` (the serving
  layer's exact assembly path), with shard-indexed
  referential-integrity errors.
- :mod:`repro.streaming.trainer` — :class:`StreamingTrainer`:
  ``fit_stream`` dispatch for the one-algorithm fits (exact FISTA,
  NB counts, tree histograms), the MLP's per-shard epochs with
  deterministic shard shuffling, and shard-accumulated scoring.
- :mod:`repro.streaming.checkpoint` — :class:`CheckpointManager`:
  atomic, checksummed checkpoints of the MLP's epoch loop behind
  ``StreamingTrainer(checkpoint=..., resume=True)``, with resumed runs
  bit-identical to uninterrupted ones.
- :mod:`repro.streaming.benchmark` — the peak-memory scaling harness
  behind ``benchmarks/bench_streaming_scale.py``.

Every multi-pass fit reads through :class:`repro.data.ShardPasses`,
which keeps the first :data:`~repro.data.source.RESIDENT_SHARDS`
shards of a fit resident; disk-spill caching of the rest composes on
top as the :class:`repro.data.SpillCacheSource` decorator around any
source, including these.
"""

from repro.streaming.benchmark import (
    StreamingScaleReport,
    streaming_scale_report,
)
from repro.streaming.checkpoint import CheckpointManager
from repro.streaming.matrices import StreamingMatrices
from repro.streaming.shards import (
    FactShard,
    ShardedDataset,
    ShardPlan,
    plan_shards,
)
from repro.streaming.trainer import StreamingTrainer

__all__ = [
    "CheckpointManager",
    "FactShard",
    "ShardPlan",
    "ShardedDataset",
    "StreamingMatrices",
    "StreamingScaleReport",
    "StreamingTrainer",
    "plan_shards",
    "streaming_scale_report",
]
