"""Versioned, portable on-disk artifacts for trained pipelines.

An artifact is everything online inference needs from an offline
experiment: the fitted predictor, the join strategy that defines which
dimensions are avoided, the exact feature order the model was trained
on, the target domain for decoding predictions, and the join-safety
advice that justified the strategy.  Artifacts are written as a zip
archive holding a JSON ``manifest.json`` (inspectable without importing
repro, versioned via ``ARTIFACT_FORMAT_VERSION``) next to a pickled
model payload.

The manifest records a *schema fingerprint* — a SHA-256 digest of the
star schema's structure and closed domains — so a server can refuse to
load an artifact against a schema whose domains drifted since training
(which would silently scramble every integer code).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

import repro
from repro.core.advisor import JoinSafetyReport, advise
from repro.core.strategies import JoinStrategy, PartialJoinStrategy
from repro.errors import SchemaError
from repro.ml.encoding import CategoricalMatrix
from repro.relational.schema import StarSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.runner import FittedPipeline

#: Bump when the on-disk layout changes incompatibly.
ARTIFACT_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_PAYLOAD_NAME = "model.pkl"


def _domain_digest(labels: tuple) -> str:
    h = hashlib.sha256()
    for label in labels:
        h.update(repr(label).encode())
        h.update(b"\x00")
    return h.hexdigest()


def schema_fingerprint(schema: StarSchema) -> str:
    """SHA-256 digest of a star schema's structure and closed domains.

    Covers table names, column names and order, per-column domain labels,
    the target, the fact key, the KFK constraints and the open-FK set —
    everything that determines how integer codes map to values.  Row
    *contents* are deliberately excluded: dimension tables may grow or be
    corrected between training and serving without invalidating a model,
    as long as the domains stay closed.
    """
    description: dict[str, Any] = {
        "target": schema.target,
        "fact_key": schema.fact_key,
        "open_fks": sorted(schema.open_fks),
        "constraints": [
            [c.fk_column, c.dimension, c.rid_column] for c in schema.constraints
        ],
        "tables": [],
    }
    tables = [schema.fact] + [schema.dimension(n) for n in schema.dimension_names]
    for table in tables:
        description["tables"].append(
            [
                table.name,
                [
                    [column.name, len(column.domain), _domain_digest(column.domain.labels)]
                    for column in table.columns
                ],
            ]
        )
    canonical = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def strategy_to_dict(strategy: JoinStrategy) -> dict[str, Any]:
    """Serialise a strategy to a JSON-compatible dict."""
    out: dict[str, Any] = {
        "kind": type(strategy).__name__,
        "name": strategy.name,
        "avoided": None if strategy.avoided is None else sorted(strategy.avoided),
        "include_fks": strategy.include_fks,
    }
    if isinstance(strategy, PartialJoinStrategy):
        out["kept_features"] = [
            [dim, list(features)] for dim, features in strategy.kept_features
        ]
    return out


def strategy_from_dict(data: dict[str, Any]) -> JoinStrategy:
    """Reconstruct a strategy serialised by :func:`strategy_to_dict`."""
    kind = data.get("kind", "JoinStrategy")
    avoided = data["avoided"]
    avoided = None if avoided is None else frozenset(avoided)
    if kind == "PartialJoinStrategy":
        return PartialJoinStrategy(
            name=data["name"],
            avoided=avoided if avoided is not None else frozenset(),
            include_fks=data["include_fks"],
            kept_features=tuple(
                (dim, tuple(features)) for dim, features in data["kept_features"]
            ),
        )
    if kind != "JoinStrategy":
        raise SchemaError(f"unknown strategy kind {kind!r} in artifact manifest")
    return JoinStrategy(
        name=data["name"], avoided=avoided, include_fks=data["include_fks"]
    )


@dataclass
class ModelArtifact:
    """A trained pipeline packaged for online serving.

    Attributes
    ----------
    model:
        The fitted predictor (a tuner or estimator exposing
        ``predict(CategoricalMatrix) -> codes``).
    strategy:
        The join strategy the model was trained under; the feature
        service replays it at serving time, skipping avoided dimensions.
    feature_names:
        Exact feature order of the training matrix.
    target:
        Name of the label column.
    target_labels:
        The target domain's labels, in code order, for decoding.
    fingerprint:
        :func:`schema_fingerprint` of the training schema.
    model_key:
        Registry key of the model family (``dt_gini``, ``ann``, ...).
    dataset_name:
        Name of the dataset the pipeline was trained on.
    advice:
        The join-safety report for the model's family, recorded so the
        operational decision ("which joins did we avoid, and why") ships
        with the model.
    metadata:
        Free-form provenance (generation seed, scale profile, ...).
    """

    model: Any
    strategy: JoinStrategy
    feature_names: tuple[str, ...]
    target: str
    target_labels: tuple
    fingerprint: str
    model_key: str
    dataset_name: str
    advice: JoinSafetyReport | None = None
    format_version: int = ARTIFACT_FORMAT_VERSION
    repro_version: str = repro.__version__
    metadata: dict[str, Any] = field(default_factory=dict)

    def predict_codes(self, X: CategoricalMatrix) -> np.ndarray:
        """Predict integer label codes for an assembled feature matrix."""
        if X.names != self.feature_names:
            raise SchemaError(
                f"artifact expects features {list(self.feature_names)}, "
                f"got {list(X.names)}"
            )
        return np.asarray(self.model.predict(X), dtype=np.int64)

    def decode_labels(self, codes: np.ndarray) -> list:
        """Map predicted label codes back to target-domain labels."""
        labels = self.target_labels
        return [labels[code] for code in codes.tolist()]

    def check_schema(self, schema: StarSchema) -> None:
        """Raise :class:`SchemaError` unless ``schema`` matches training."""
        live = schema_fingerprint(schema)
        if live != self.fingerprint:
            raise SchemaError(
                f"schema fingerprint mismatch: artifact was trained against "
                f"{self.fingerprint[:12]}..., live schema is {live[:12]}...; "
                f"domains or structure drifted since training"
            )

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        avoided = (
            "all avoidable" if self.strategy.avoided is None
            else ", ".join(sorted(self.strategy.avoided)) or "none"
        )
        return (
            f"ModelArtifact(dataset={self.dataset_name!r}, "
            f"model={self.model_key!r}, strategy={self.strategy.name!r}, "
            f"avoided dims: {avoided}, {len(self.feature_names)} features, "
            f"format v{self.format_version}, repro {self.repro_version})"
        )


def artifact_from_pipeline(
    pipeline: "FittedPipeline",
    schema: StarSchema,
    metadata: dict[str, Any] | None = None,
) -> ModelArtifact:
    """Package a :class:`~repro.experiments.runner.FittedPipeline`.

    Also records the join-safety advice for the pipeline's model family,
    computed against the pipeline's *training-split* size (the paper's
    Table 1 convention), so the artifact documents whether the strategy
    it ships agrees with the tuple-ratio rule that would have chosen it.
    """
    target_domain = schema.fact.column(schema.target).domain
    return ModelArtifact(
        model=pipeline.tuner,
        strategy=pipeline.strategy,
        feature_names=tuple(pipeline.feature_names),
        target=schema.target,
        target_labels=tuple(target_domain.labels),
        fingerprint=schema_fingerprint(schema),
        model_key=pipeline.model_key,
        dataset_name=pipeline.dataset_name,
        advice=advise(
            schema,
            pipeline.spec.family,
            train_rows=pipeline.matrices.y_train.shape[0],
        ),
        metadata=dict(metadata or {}),
    )


def save_artifact(artifact: ModelArtifact, path: str | Path) -> Path:
    """Write an artifact to ``path`` (conventionally ``*.repro-model``).

    The archive holds a plain-JSON manifest — format version, versions,
    strategy, feature order, fingerprint, provenance — plus the pickled
    model payload.  Everything needed to *reject* an incompatible
    artifact is readable from the manifest alone.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": artifact.format_version,
        "repro_version": artifact.repro_version,
        "numpy_version": np.__version__,
        "model_key": artifact.model_key,
        "dataset_name": artifact.dataset_name,
        "strategy": strategy_to_dict(artifact.strategy),
        "feature_names": list(artifact.feature_names),
        "target": artifact.target,
        "schema_fingerprint": artifact.fingerprint,
        "metadata": artifact.metadata,
    }
    payload = pickle.dumps(
        {
            "model": artifact.model,
            "target_labels": artifact.target_labels,
            "advice": artifact.advice,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    # Write the zip to a temp file beside the target and os.replace it
    # into place: a kill mid-save leaves either the previous artifact or
    # the complete new one, never a truncated archive that
    # load_artifact rejects as BadZipFile.
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            with zipfile.ZipFile(
                handle, "w", compression=zipfile.ZIP_DEFLATED
            ) as archive:
                archive.writestr(
                    _MANIFEST_NAME,
                    json.dumps(manifest, indent=2, sort_keys=True),
                )
                archive.writestr(_PAYLOAD_NAME, payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Read just the JSON manifest of a saved artifact."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: no such artifact file")
    try:
        with zipfile.ZipFile(path) as archive:
            try:
                raw = archive.read(_MANIFEST_NAME)
            except KeyError:
                raise SchemaError(
                    f"{path}: not a repro model artifact (no {_MANIFEST_NAME})"
                ) from None
    except zipfile.BadZipFile:
        raise SchemaError(
            f"{path}: not a repro model artifact (not a zip archive)"
        ) from None
    return json.loads(raw)


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load an artifact written by :func:`save_artifact`.

    Raises
    ------
    SchemaError
        If the file is not an artifact or its format version is newer
        than this library understands.
    """
    path = Path(path)
    manifest = read_manifest(path)
    version = manifest.get("format_version")
    if not isinstance(version, int) or version > ARTIFACT_FORMAT_VERSION:
        raise SchemaError(
            f"{path}: artifact format v{version} is newer than the "
            f"supported v{ARTIFACT_FORMAT_VERSION}; upgrade repro to load it"
        )
    with zipfile.ZipFile(path) as archive:
        payload = pickle.loads(archive.read(_PAYLOAD_NAME))
    return ModelArtifact(
        model=payload["model"],
        strategy=strategy_from_dict(manifest["strategy"]),
        feature_names=tuple(manifest["feature_names"]),
        target=manifest["target"],
        target_labels=tuple(payload["target_labels"]),
        fingerprint=manifest["schema_fingerprint"],
        model_key=manifest["model_key"],
        dataset_name=manifest["dataset_name"],
        advice=payload["advice"],
        format_version=version,
        repro_version=manifest["repro_version"],
        metadata=dict(manifest.get("metadata", {})),
    )
