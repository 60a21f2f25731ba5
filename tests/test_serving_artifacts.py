"""Artifact save → load → predict round trips and format guarantees."""

import json
import zipfile

import numpy as np
import pytest

from repro.core import (
    PartialJoinStrategy,
    avoid_dimensions_strategy,
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.datasets import generate_real_world
from repro.errors import SchemaError
from repro.data.encoder import ShardEncoder
from repro.experiments import fit_pipeline, get_scale
from repro.ml import sparse
from repro.serving import (
    ARTIFACT_FORMAT_VERSION,
    artifact_from_pipeline,
    load_artifact,
    read_manifest,
    save_artifact,
    schema_fingerprint,
)
from repro.serving.artifacts import strategy_from_dict, strategy_to_dict

MODEL_FAMILIES = ["lr_l1", "nb_bfs", "dt_gini", "ann", "svm_rbf"]


@pytest.fixture(scope="module")
def dataset():
    return generate_real_world("yelp", n_fact=300, seed=0)


@pytest.fixture(scope="module")
def scale():
    return get_scale("smoke")


@pytest.mark.parametrize("model_key", MODEL_FAMILIES)
def test_round_trip_predictions_bit_identical(
    dataset, scale, model_key, tmp_path
):
    """Saved-and-loaded models predict exactly like the in-memory ones."""
    pipeline = fit_pipeline(dataset, model_key, no_join_strategy(), scale=scale)
    artifact = artifact_from_pipeline(pipeline, dataset.schema)
    loaded = load_artifact(
        save_artifact(artifact, tmp_path / f"{model_key}.repro-model")
    )

    service = ShardEncoder(dataset.schema, loaded.strategy)
    X = service.assemble_table(dataset.schema.fact)
    np.testing.assert_array_equal(
        loaded.predict_codes(X), pipeline.predict(X)
    )
    assert loaded.feature_names == tuple(pipeline.feature_names)
    assert loaded.model_key == model_key


@pytest.mark.parametrize("resident", [False, True], ids=["codes", "flat-codes"])
def test_svc_artifact_pickled_by_9x_predicts_alike(
    dataset, scale, resident, tmp_path
):
    """9.x pickled an SVC's support vectors in the view's own slots
    (``_codes``, ``n_levels``, ``offsets``, ``_flat``; no names).  Such
    an artifact loads with today's view and predicts bit for bit."""
    pipeline = fit_pipeline(dataset, "svm_rbf", no_join_strategy(), scale=scale)
    artifact = artifact_from_pipeline(pipeline, dataset.schema)
    svc = artifact.model.best_model_
    vectors = svc.support_vectors_
    legacy_type = type(
        "OneHotMatrix",
        (),
        {
            "__slots__": ("_codes", "n_levels", "offsets", "_flat"),
            "__module__": "repro.ml.sparse",
        },
    )
    legacy = object.__new__(legacy_type)
    legacy._codes = None if resident else vectors.codes
    legacy.n_levels = vectors.n_levels
    legacy.offsets = vectors.offsets
    legacy._flat = vectors.codes + vectors.offsets[:-1] if resident else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "OneHotMatrix", legacy_type)
        patch.setattr(svc, "support_vectors_", legacy)
        path = save_artifact(artifact, tmp_path / "svm_rbf.repro-model")
    loaded = load_artifact(path)

    restored = loaded.model.best_model_.support_vectors_
    assert type(restored) is sparse.OneHotMatrix
    assert restored.n_levels == vectors.n_levels
    assert np.array_equal(restored.codes, vectors.codes)
    X = ShardEncoder(dataset.schema, loaded.strategy).assemble_table(
        dataset.schema.fact
    )
    np.testing.assert_array_equal(
        loaded.model.best_model_.decision_function(X), svc.decision_function(X)
    )
    np.testing.assert_array_equal(loaded.predict_codes(X), pipeline.predict(X))


def test_round_trip_preserves_advice_and_metadata(dataset, scale, tmp_path):
    pipeline = fit_pipeline(dataset, "dt_gini", no_join_strategy(), scale=scale)
    artifact = artifact_from_pipeline(
        pipeline, dataset.schema, metadata={"seed": 0, "n_fact": 300}
    )
    loaded = load_artifact(save_artifact(artifact, tmp_path / "m.repro-model"))
    assert loaded.metadata == {"seed": 0, "n_fact": 300}
    assert loaded.advice is not None
    assert loaded.advice.model_family == "decision_tree"
    assert loaded.target == dataset.schema.target
    assert loaded.fingerprint == schema_fingerprint(dataset.schema)


def test_manifest_is_plain_json(dataset, scale, tmp_path):
    """The manifest must be inspectable without unpickling anything."""
    pipeline = fit_pipeline(dataset, "dt_gini", join_all_strategy(), scale=scale)
    path = save_artifact(
        artifact_from_pipeline(pipeline, dataset.schema),
        tmp_path / "m.repro-model",
    )
    manifest = read_manifest(path)
    assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
    assert manifest["model_key"] == "dt_gini"
    assert manifest["strategy"]["name"] == "JoinAll"
    assert manifest["feature_names"] == list(pipeline.feature_names)
    assert "schema_fingerprint" in manifest


def test_future_format_version_rejected(dataset, scale, tmp_path):
    pipeline = fit_pipeline(dataset, "dt_gini", no_join_strategy(), scale=scale)
    path = save_artifact(
        artifact_from_pipeline(pipeline, dataset.schema),
        tmp_path / "m.repro-model",
    )
    manifest = read_manifest(path)
    manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
    bumped = tmp_path / "future.repro-model"
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(bumped, "w") as dst:
        dst.writestr("manifest.json", json.dumps(manifest))
        dst.writestr("model.pkl", src.read("model.pkl"))
    with pytest.raises(SchemaError, match="newer than"):
        load_artifact(bumped)


def test_non_artifact_file_rejected(tmp_path):
    path = tmp_path / "junk.zip"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("readme.txt", "not an artifact")
    with pytest.raises(SchemaError, match="not a repro model artifact"):
        load_artifact(path)


class TestSchemaFingerprint:
    def test_stable_across_regeneration(self):
        a = generate_real_world("yelp", n_fact=300, seed=0)
        b = generate_real_world("yelp", n_fact=300, seed=0)
        assert schema_fingerprint(a.schema) == schema_fingerprint(b.schema)

    def test_differs_across_schemas(self):
        a = generate_real_world("yelp", n_fact=300, seed=0)
        b = generate_real_world("movies", n_fact=300, seed=0)
        assert schema_fingerprint(a.schema) != schema_fingerprint(b.schema)

    def test_check_schema_raises_on_mismatch(self, dataset, scale, tmp_path):
        pipeline = fit_pipeline(
            dataset, "dt_gini", no_join_strategy(), scale=scale
        )
        artifact = artifact_from_pipeline(pipeline, dataset.schema)
        other = generate_real_world("movies", n_fact=300, seed=0)
        with pytest.raises(SchemaError, match="fingerprint mismatch"):
            artifact.check_schema(other.schema)


class TestStrategySerialisation:
    @pytest.mark.parametrize(
        "strategy",
        [
            join_all_strategy(),
            no_join_strategy(),
            no_fk_strategy(),
            avoid_dimensions_strategy("users", label="NoUsers"),
            PartialJoinStrategy.build({"users": ["users_f0", "users_f2"]}),
        ],
        ids=lambda s: s.name,
    )
    def test_round_trip(self, strategy):
        restored = strategy_from_dict(strategy_to_dict(strategy))
        assert type(restored) is type(strategy)
        assert restored.name == strategy.name
        assert restored.avoided == strategy.avoided
        assert restored.include_fks == strategy.include_fks

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown strategy kind"):
            strategy_from_dict(
                {"kind": "Mystery", "name": "x", "avoided": [], "include_fks": True}
            )
