"""Online inference: serve join-avoidance models off the fact table.

The offline layers decide *whether* a KFK join is safe to avoid; this
subpackage operationalises the answer.  A trained pipeline is exported
as a versioned :class:`ModelArtifact` (fitted model + strategy + feature
order + schema fingerprint + advisor verdicts), loaded into a
:class:`PredictionServer`, and served straight off fact rows: the
:class:`FeatureService` replays the strategy with cached dimension
indexes (avoided dimensions are never touched), and the
:class:`MicroBatcher` coalesces single-row requests into vectorized
batches.

The runtime is thread-safe: concurrent request threads share one
server, a background deadline flusher bounds queueing latency, and the
dimension-index cache builds each cold entry exactly once under racing
access.  Linear and Naive Bayes artifacts are scored through a
:class:`~repro.serving.factorized.FactorizedScorer` built at load
time, which folds each joined dimension's features into one
per-dimension-row table.

Typical flow::

    pipeline = fit_pipeline(dataset, "dt_gini", no_join_strategy())
    artifact = artifact_from_pipeline(pipeline, dataset.schema)
    save_artifact(artifact, "churn.repro-model")
    ...
    server = PredictionServer(load_artifact("churn.repro-model"), schema)
    server.predict_one({"Gender": "F", "Age": "old", "Employer": "acme"})
"""

from repro.serving.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ModelArtifact,
    artifact_from_pipeline,
    load_artifact,
    read_manifest,
    save_artifact,
    schema_fingerprint,
)
from repro.serving.batcher import BatcherStats, MicroBatcher, PendingPrediction
from repro.serving.benchmark import (
    ConcurrencyReport,
    ThroughputReport,
    concurrent_serving_throughput,
    serving_throughput,
)
from repro.serving.feature_service import (
    CacheStats,
    DimensionIndexCache,
    FeatureService,
)
from repro.serving.server import PredictionServer, ServerStats

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "BatcherStats",
    "CacheStats",
    "ConcurrencyReport",
    "DimensionIndexCache",
    "FeatureService",
    "MicroBatcher",
    "ModelArtifact",
    "PendingPrediction",
    "PredictionServer",
    "ServerStats",
    "ThroughputReport",
    "artifact_from_pipeline",
    "concurrent_serving_throughput",
    "load_artifact",
    "read_manifest",
    "save_artifact",
    "schema_fingerprint",
    "serving_throughput",
]
