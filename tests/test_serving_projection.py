"""A served model answers as the full model over the full features.

``PredictionServer`` serves a decision tree under ``unseen="majority"``
or ``"random"`` as a copy re-indexed to the features it splits on
(``DecisionTreeClassifier.project``), and encodes, joins and gathers
nothing else.  These tests hold it to the full tree: the same
predictions and bit-identical probabilities on every emulator, the same
answer to every row the full server accepts, today's errors for a bad
read column, and today's serving for every artifact it leaves alone.
A linear or naive Bayes model is served through the load-time
``FactorizedScorer``; it is held to the model's own ``predict`` on every
emulator.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.data.encoder import ShardEncoder
from repro.datasets import generate_real_world
from repro.errors import (
    ReferentialIntegrityError,
    SchemaError,
    UnseenCategoryError,
)
from repro.experiments import fit_pipeline, get_scale
from repro.ml.naive_bayes import CategoricalNB
from repro.ml.selection import BackwardSelection
from repro.ml.tree import DecisionTreeClassifier
from repro.relational import CategoricalColumn, StarSchema, Table
from repro.relational.join import dimension_row_index
from repro.serving import PredictionServer, artifact_from_pipeline
from repro.serving.factorized import FactorizedScorer

from faultkit.faults import FaultInjectingModel

EMULATORS = ("expedia", "movies", "yelp", "walmart", "lastfm", "books", "flights")
STRATEGIES = {"JoinAll": join_all_strategy, "NoJoin": no_join_strategy}


def _dataset(name):
    return generate_real_world(name, n_fact=get_scale("smoke").n_fact, seed=0)


def _pipeline(dataset, strategy, model_key="dt_gini"):
    return fit_pipeline(
        dataset, model_key, STRATEGIES[strategy](), scale=get_scale("smoke")
    )


def _server(artifact, schema):
    return PredictionServer(
        artifact, schema, max_wait_s=None, background_flush=False
    )


def _fact_codes(table, columns):
    """The ``(n, k)`` code table of ``table``'s ``columns``."""
    return np.stack([table.codes(c) for c in columns], axis=1)


def _label_rows(schema, columns, codes):
    """Label-valued request rows from a code table over ``columns``."""
    labels = [schema.fact.domain(c).labels for c in columns]
    return [
        {c: labels[j][code] for j, (c, code) in enumerate(zip(columns, row))}
        for row in codes.tolist()
    ]


def _random_codes(schema, encoder, n, seed):
    """Uniform codes over each required column's whole domain, so levels
    training never saw turn up; a joined dimension's FK draws only keys
    with a dimension row."""
    rng = np.random.default_rng(seed)
    resolvable = {
        schema.constraint(name).fk_column: np.flatnonzero(
            dimension_row_index(schema, name) >= 0
        )
        for name in encoder.joined_dimensions
    }
    return np.stack(
        [
            rng.choice(resolvable[c], n) if c in resolvable
            else rng.integers(0, len(schema.fact.domain(c)), n)
            for c in encoder.required_columns
        ],
        axis=1,
    )


def _full_predictions(dataset, artifact, rows):
    """The artifact's model over the full assembled matrix of ``rows``."""
    full = ShardEncoder(dataset.schema, artifact.strategy)
    X = full.assemble(full.encode_requests(rows))
    return artifact.decode_labels(
        np.asarray(artifact.model.predict(X), dtype=np.int64)
    )


def _split_features(tree):
    return tuple(name for name, n in tree.split_counts_.items() if n)


@pytest.fixture(scope="module", params=EMULATORS)
def emulator(request):
    return _dataset(request.param)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_served_tree_is_the_full_tree(emulator, strategy):
    """On test rows and on random rows with unseen levels, the server's
    predictions equal the full tree's over the full assembled matrix,
    and the served tree's probabilities are the full tree's, bit for
    bit."""
    dataset = emulator
    schema = dataset.schema
    artifact = artifact_from_pipeline(_pipeline(dataset, strategy), schema)
    full_tree = artifact.model.best_model_
    full = ShardEncoder(schema, artifact.strategy)
    server = _server(artifact, schema)
    served_tree = server.artifact.model
    assert served_tree is not full_tree
    read = _split_features(full_tree)
    assert server.features.feature_names == read
    assert served_tree.feature_names_ == read
    assert set(server.features.required_columns) <= set(full.required_columns)
    read_dimensions = tuple(
        name for name in full.joined_dimensions
        if set(schema.foreign_features(name)) & set(read)
    )
    assert server.features.joined_dimensions == read_dimensions

    test_codes = _fact_codes(
        schema.fact.select(dataset.test), full.required_columns
    )
    for codes in (test_codes, _random_codes(schema, full, 500, seed=11)):
        rows = _label_rows(schema, full.required_columns, codes)
        X = full.assemble(codes)
        expected = artifact.decode_labels(
            np.asarray(artifact.model.predict(X), dtype=np.int64)
        )
        assert server.predict_batch(rows) == expected
        handles = [server.submit(row) for row in rows[:64]]
        server.flush()
        assert [h.result() for h in handles] == expected[:64]
        served = served_tree.predict_proba(
            server.features.assemble(server.features.encode_requests(rows))
        )
        np.testing.assert_array_equal(
            served.view(np.int64), full_tree.predict_proba(X).view(np.int64)
        )
    # Only the dimensions the tree reads were ever looked up.
    assert server.stats().cache_misses == len(read_dimensions)


@pytest.mark.parametrize("model_key", ["lr_l1", "nb"])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_served_scorer_is_the_model(emulator, strategy, model_key):
    """A served L1 logistic regression (tuned) or categorical naive
    Bayes scores through the load-time ``FactorizedScorer``; on test
    rows and on random in-domain rows, ``predict_batch``,
    ``predict_table`` and ``submit`` equal the model's own ``predict``
    over the full encoder's assembled matrix."""
    dataset = emulator
    schema = dataset.schema
    pipeline = _pipeline(dataset, strategy, "lr_l1")
    artifact = artifact_from_pipeline(pipeline, schema)
    if model_key == "nb":
        matrices = pipeline.matrices
        model = CategoricalNB(alpha=1.0).fit(matrices.X_train, matrices.y_train)
        artifact = dataclasses.replace(artifact, model=model, model_key="nb")
    full = ShardEncoder(schema, artifact.strategy)
    server = _server(artifact, schema)
    assert isinstance(server._scorer, FactorizedScorer)
    assert server.features.required_columns == full.required_columns
    columns = full.required_columns
    test_codes = _fact_codes(schema.fact.select(dataset.test), columns)
    for codes in (test_codes, _random_codes(schema, full, 500, seed=13)):
        expected = artifact.decode_labels(
            np.asarray(artifact.model.predict(full.assemble(codes)), dtype=np.int64)
        )
        rows = _label_rows(schema, columns, codes)
        assert server.predict_batch(rows) == expected
        table = Table(
            "requests",
            [
                CategoricalColumn(c, schema.fact.domain(c), codes[:, j])
                for j, c in enumerate(columns)
            ],
        )
        assert server.predict_table(table) == expected
        handles = [server.submit(row) for row in rows]
        server.flush()
        assert [h.result() for h in handles] == expected


@pytest.fixture(scope="module")
def flights():
    """A Flights JoinAll tree, which splits on some home features and
    FKs and on no dimension feature, its training matrix, and full label
    rows of its test split."""
    dataset = _dataset("flights")
    schema = dataset.schema
    pipeline = _pipeline(dataset, "JoinAll")
    artifact = artifact_from_pipeline(pipeline, schema)
    columns = ShardEncoder(schema, artifact.strategy).required_columns
    codes = _fact_codes(schema.fact.select(dataset.test), columns)
    rows = _label_rows(schema, columns, codes)
    return dataset, artifact, rows, pipeline.matrices


class TestContract:
    @pytest.mark.parametrize("fault", ["missing", "out_of_domain"])
    def test_a_fault_in_an_unread_column_is_served(self, flights, fault):
        dataset, artifact, rows, _ = flights
        server = _server(artifact, dataset.schema)
        unread = next(
            c for c in dataset.schema.home_features
            if c not in server.features.required_columns
        )
        faulty = [dict(row) for row in rows[:8]]
        for row in faulty:
            if fault == "missing":
                del row[unread]
            else:
                row[unread] = "no-such-label"
        expected = _full_predictions(dataset, artifact, rows[:8])
        assert server.predict_batch(faulty) == expected
        assert [server.predict_one(row) for row in faulty] == expected
        handles = [server.submit(row) for row in faulty]
        server.flush()
        assert [h.result() for h in handles] == expected

    @pytest.mark.parametrize(
        "fault, message",
        [("missing", "lacks fact column"), ("out_of_domain", "closed domain")],
    )
    def test_a_fault_in_a_read_column_raises_as_today(
        self, flights, fault, message
    ):
        dataset, artifact, rows, _ = flights
        server = _server(artifact, dataset.schema)
        row = dict(rows[0])
        read = server.features.required_columns[0]
        if fault == "missing":
            del row[read]
        else:
            row[read] = "no-such-label"
        with pytest.raises(SchemaError, match=message):
            server.submit(row)
        assert len(server.batcher) == 0
        with pytest.raises(SchemaError, match=message):
            server.predict_one(row)

    def test_a_dangling_fk_in_an_unread_dimension_is_served(self):
        """The live dimension lost the row a request's FK names: the
        full encoder raises, the served tree, which reads the FK but no
        feature of its dimension, answers as on the intact schema."""
        dataset = _dataset("yelp")
        schema = dataset.schema
        artifact = artifact_from_pipeline(_pipeline(dataset, "JoinAll"), schema)
        server = _server(artifact, schema)
        dim = schema.dimension_names[0]
        fk = schema.constraint(dim).fk_column
        assert fk in server.features.required_columns
        assert dim not in server.features.joined_dimensions
        test = schema.fact.select(dataset.test[:10])
        expected = server.predict_table(test)

        table = schema.dimension(dim)
        key = test.codes(fk)[0]
        kept = np.flatnonzero(
            table.codes(schema.constraint(dim).rid_column) != key
        )
        live = StarSchema(
            schema.fact,
            schema.target,
            [
                (table.select(kept) if n == dim else schema.dimension(n),
                 schema.constraint(n))
                for n in schema.dimension_names
            ],
            fact_key=schema.fact_key,
            open_fks=schema.open_fks,
            validate=False,
        )
        with pytest.raises(ReferentialIntegrityError):
            ShardEncoder(live, artifact.strategy).assemble_table(test)
        projected = _server(artifact, live)
        assert projected.predict_table(test) == expected
        columns = server.features.required_columns
        rows = _label_rows(live, columns, _fact_codes(test, columns))
        assert projected.predict_batch(rows) == expected

    def test_a_stump_serves_on_every_path(self, flights):
        dataset, artifact, rows, matrices = flights
        schema = dataset.schema
        stump = DecisionTreeClassifier(unseen="majority", max_depth=0).fit(
            matrices.X_train, matrices.y_train
        )
        assert stump.depth_ == 0
        server = _server(dataclasses.replace(artifact, model=stump), schema)
        assert server.features.required_columns == ()
        label = schema.fact.domain(schema.target).labels[
            stump.root_.prediction
        ]
        table = schema.fact.select(dataset.test[:5])
        assert server.predict_table(table) == [label] * 5
        assert server.predict_batch(rows[:5]) == [label] * 5
        assert server.predict_one({}) == label
        handles = [server.submit(row) for row in rows[:5]]
        server.flush()
        assert [h.result() for h in handles] == [label] * 5


class TestServedAsToday:
    def test_an_unseen_error_tree_reads_every_column(self, flights):
        """Its seen check reads every column, so an unseen level in a
        column it never splits on still raises."""
        dataset, artifact, rows, matrices = flights
        schema = dataset.schema
        X, y = matrices.X_train, matrices.y_train
        column = schema.home_features[0]
        j = artifact.feature_names.index(column)
        level = int(X.codes[0, j])
        only = np.flatnonzero(X.codes[:, j] == level)
        tree = DecisionTreeClassifier(unseen="error", minsplit=10).fit(
            X.take_rows(only), y[only]
        )
        assert tree.split_counts_[column] == 0
        served = dataclasses.replace(artifact, model=tree)
        server = _server(served, schema)
        assert server.artifact is served
        full = ShardEncoder(schema, artifact.strategy)
        assert server.features.required_columns == full.required_columns
        row = dict(rows[0])
        labels = schema.fact.domain(column).labels
        row[column] = labels[(level + 1) % len(labels)]
        with pytest.raises(UnseenCategoryError) as raised:
            server.predict_one(row)
        assert raised.value.feature == column

    def test_a_feature_selecting_wrapper(self, flights):
        dataset, artifact, rows, matrices = flights
        selector = BackwardSelection(
            DecisionTreeClassifier(unseen="majority", minsplit=10),
            min_features=len(artifact.feature_names) - 1,
        )
        X, y = matrices.X_train, matrices.y_train
        selector.fit(X, y, X, y)
        served = dataclasses.replace(artifact, model=selector)
        server = _server(served, dataset.schema)
        assert server.artifact is served
        assert server.features.feature_names == artifact.feature_names
        assert server.predict_batch(rows) == _full_predictions(
            dataset, served, rows
        )

    def test_a_wrapper_that_is_not_a_tuner(self, flights):
        dataset, artifact, rows, _ = flights
        served = dataclasses.replace(
            artifact, model=FaultInjectingModel(artifact.model, rate=0.0)
        )
        server = _server(served, dataset.schema)
        assert server.artifact is served
        assert server.features.feature_names == artifact.feature_names
        assert server.predict_batch(rows) == _full_predictions(
            dataset, served, rows
        )
