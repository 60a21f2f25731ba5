"""The process-parallel execution tier over the ``FeatureSource`` protocol.

Two pieces, one per GIL-bound stage of the system:

- :class:`ProcessPrefetchingSource` — shard *production* on a worker
  process pool, with encoded shards crossing the process boundary as
  zero-copy shared-memory views (:mod:`repro.parallel.shm`); shard
  *consumption* stays in-process (exact FISTA keeps its prepared
  shards resident instead, see
  :data:`repro.ml.linear.logistic.RESIDENT_SHARDS`);
- :class:`ProcessPredictorPool` — shard *serving*: flushed
  micro-batches partitioned across predictor processes, per-worker
  telemetry merged back through
  :meth:`repro.obs.MetricsRegistry.merge_state`.

This package is the only place in the tree allowed to construct
``multiprocessing`` primitives — `repro lint`'s ``process-discipline``
rule enforces the boundary, so process fan-out (and its failure modes:
orphaned segments, zombie workers, unjoined queues) stays auditable in
one module.  Worker death is a survivable, counted fault everywhere:
each pool detects it, cleans up after it, and recomputes or
re-dispatches the lost work.
"""

from repro.parallel.prefetch import START_METHOD_ENV, ProcessPrefetchingSource
from repro.parallel.serving import ProcessPredictorPool
from repro.parallel.shm import (
    ShardHandle,
    export_shard,
    import_shard,
    release,
    sweep,
)

__all__ = [
    "ProcessPredictorPool",
    "ProcessPrefetchingSource",
    "START_METHOD_ENV",
    "ShardHandle",
    "export_shard",
    "import_shard",
    "release",
    "sweep",
]
