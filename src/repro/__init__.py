"""repro — reproduction of Shah, Kumar & Zhu (VLDB 2017).

"Are Key-Foreign Key Joins Safe to Avoid when Learning High-Capacity
Classifiers?" studies whether key-foreign-key (KFK) joins that bring in
foreign features can be skipped ("avoiding joins safely") when training
decision trees, kernel SVMs, ANNs and other high-capacity classifiers.

The package is organised in eight layers:

- :mod:`repro.relational` — an in-memory relational substrate: categorical
  columns with closed domains, tables, star schemas with KFK constraints,
  equi-joins, and functional-dependency auditing.
- :mod:`repro.ml` — a from-scratch ML substrate (no sklearn): CART decision
  trees with three split criteria, kernel SVMs trained with SMO, an MLP
  with Adam, categorical Naive Bayes, L1 logistic regression, k-NN,
  validation-set grid search, and the Domingos bias-variance decomposition.
- :mod:`repro.datasets` — generators for the paper's simulation scenarios
  (OneXr, XSXR, RepOneXr; uniform/Zipfian/needle-and-thread foreign-key
  skew) and emulators of its seven real-world star-schema datasets.
- :mod:`repro.core` — the paper's contribution: JoinAll/NoJoin/NoFK
  feature-set strategies, the tuple-ratio join-safety advisor, foreign-key
  domain compression, and unseen-foreign-key smoothing.
- :mod:`repro.experiments` — the experiment harness reproducing every
  table and figure in the paper's evaluation.
- :mod:`repro.data` — the unified shard-oriented data layer: the
  :class:`~repro.data.FeatureSource` protocol every trainer and scorer
  consumes, the shared :class:`~repro.data.ShardEncoder` encode path,
  the one multi-pass reader :class:`~repro.data.ShardPasses` that
  keeps a fit's first shards resident, and the disk-spill cache.
- :mod:`repro.streaming` — out-of-core sharded training: bounded fact
  shards from splits/populations/chunked CSVs, per-shard strategy
  matrices, and a deterministic :class:`~repro.streaming.StreamingTrainer`
  whose results are numerically equivalent to in-memory fits.
- :mod:`repro.serving` — online inference: versioned model artifacts,
  a feature service with cached dimension indexes, micro-batched
  prediction, and the in-process :class:`~repro.serving.PredictionServer`.

The package holds only what a fit or a prediction runs.  The lint suite
(``tools.analysis``) and the test-side fault kit (``tests/faultkit``)
live outside it, in the source checkout.
"""

from repro.errors import (
    NotFittedError,
    ReferentialIntegrityError,
    ReproError,
    SchemaError,
    UnseenCategoryError,
)
from repro.rng import ensure_rng

__version__ = "12.0.0"

#: Serving-layer names re-exported lazily so ``import repro`` stays light
#: (resolving any of them pulls in numpy and the full model substrate).
_SERVING_EXPORTS = (
    "MicroBatcher",
    "ModelArtifact",
    "PredictionServer",
    "artifact_from_pipeline",
    "load_artifact",
    "save_artifact",
    "schema_fingerprint",
)

__all__ = [
    "NotFittedError",
    "ReferentialIntegrityError",
    "ReproError",
    "SchemaError",
    "UnseenCategoryError",
    "ensure_rng",
    "__version__",
    *_SERVING_EXPORTS,
]


def __getattr__(name: str):
    """Resolve serving re-exports on first access (PEP 562)."""
    if name in _SERVING_EXPORTS:
        import repro.serving

        return getattr(repro.serving, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
