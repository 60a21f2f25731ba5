"""Unified shard-oriented data layer: one access path for all consumers.

Before this package, the paper's central comparison — join-materialised
vs. factorised/avoided feature access — was implemented three times:
dense in-memory matrices in the experiment runner, per-shard joins in
:mod:`repro.streaming`, and cached-gather assembly in
:mod:`repro.serving`.  ``repro.data`` states the contract once:

- :mod:`repro.data.source` — the :class:`FeatureSource` protocol
  (encoded ``(X, y)`` shards in a stable order plus schema/domain
  metadata), the in-memory :class:`MatrixSource` adapter,
  :class:`ShardPasses` (the one multi-pass reader, which keeps the
  first :data:`~repro.data.source.RESIDENT_SHARDS` prepared shards of
  a fit) and the shared :func:`source_accuracy` scoring loop.
- :mod:`repro.data.encoder` — :class:`ShardEncoder`, the single
  fact-rows → feature-matrix encode path, shared verbatim by serving
  micro-batches (each :class:`repro.serving.PredictionServer` builds
  one) and streaming shards (:class:`repro.streaming.StreamingMatrices`
  encodes through it), with the thread-safe
  :class:`DimensionIndexCache` behind both.
- :mod:`repro.data.spill` — :class:`SpillCacheSource`, a decorator
  caching encoded shards on disk within an optional byte budget.
  Decorators never change shard bytes, only how they are produced.
- :mod:`repro.data.spec` — :class:`SourceSpec`, the declarative recipe
  ``run_experiment(source=...)`` and the CLI build sources from.

Out-of-core shard *production* (split/table/population/CSV sources)
stays in :mod:`repro.streaming`; its :class:`StreamingMatrices` is the
out-of-core :class:`FeatureSource`.
"""

# Import order matters: `source` must load before `encoder`/`spill`,
# whose imports can re-enter this package while repro.ml initialises.
from repro.data.source import (
    FeatureSource,
    MatrixSource,
    ShardPasses,
    SourceDecorator,
    source_accuracy,
)
from repro.data.spill import SpillCacheSource, SpillStats
from repro.data.encoder import CacheStats, DimensionIndexCache, ShardEncoder
from repro.data.spec import SPLITS, SourceSpec

__all__ = [
    "CacheStats",
    "DimensionIndexCache",
    "FeatureSource",
    "MatrixSource",
    "SPLITS",
    "ShardEncoder",
    "ShardPasses",
    "SourceDecorator",
    "SourceSpec",
    "SpillCacheSource",
    "SpillStats",
    "source_accuracy",
]
