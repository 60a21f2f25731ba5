"""The resident-shard reader shared by every multi-pass fit.

Exact FISTA, the streamed tree's level passes and the trainer's MLP
epochs all read through one :class:`~repro.data.source.ShardPasses`:
it keeps the first ``RESIDENT_SHARDS`` shards a fit prepares for every
later pass and re-reads the rest.  Which shards are resident must
never change a fitted bit, a shard within the cap is encoded once per
fit, and a kept FISTA shard owns its arrays (a source may reuse or
drop a shard's arrays once the next one is read).
"""

import numpy as np
import pytest

from repro.core import join_all_strategy
from repro.data import MatrixSource
from repro.data import source as data_source
from repro.data.source import ShardPasses
from repro.datasets import generate_real_world
from repro.ml import sparse
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression
from repro.ml.neural import MLPClassifier
from repro.ml.sparse import FactorizedGroup, FactorizedMatrix
from repro.ml.tree import DecisionTreeClassifier
from repro.obs import MetricsRegistry, tracer
from repro.streaming import CheckpointManager, StreamingTrainer

from faultkit.chaos import (
    ChaosKilledError,
    KillSwitchCheckpoint,
    models_identical,
)
from test_streaming_models import assert_same_tree

#: Passes the step-size bound's power iteration makes before FISTA's.
POWER_PASSES = 30

N_SHARDS = 5
EPOCHS = 3


@pytest.fixture(scope="module")
def yelp():
    return generate_real_world("yelp", n_fact=300, seed=0)


def _tree_passes(tree) -> int:
    """Pass 0, plus one level pass per depth holding a splittable node."""
    depths = set()
    nodes = [tree.root_]
    while nodes:
        node = nodes.pop()
        if tree._splittable(node.counts, node.depth):
            depths.add(node.depth)
        nodes.extend(c for c in (node.left, node.right) if c is not None)
    return 1 + len(depths)


#: Each multi-pass fit: ``(fit(stream) -> model, passes(model))``.
CONSUMERS = {
    "exact_fista": (
        lambda stream: L1LogisticRegression(
            lam=1e-3, max_iter=6, tol=0.0
        ).fit_stream(stream),
        lambda model: POWER_PASSES + model.n_iter_,
    ),
    "dt_gini": (
        lambda stream: DecisionTreeClassifier(
            minsplit=10, cp=0.001
        ).fit_stream(stream),
        _tree_passes,
    ),
    "mlp": (
        lambda stream: StreamingTrainer(
            MLPClassifier(hidden_sizes=(8,), epochs=EPOCHS, random_state=0)
        ).fit(stream),
        lambda model: EPOCHS,
    ),
}


def _encoded_shards(stream) -> int:
    return stream.encoder.metrics.get("data.encode.shards").value


def _assert_same_fit(a, b):
    """Bit-identical fits.  A tree's splits live in its node objects,
    which :func:`models_identical` does not walk, so trees are compared
    node by node."""
    if isinstance(a, DecisionTreeClassifier):
        assert_same_tree(a, b)
    else:
        assert models_identical(a, b)


@pytest.mark.parametrize("layout", ["gather", "factorize"])
class TestResidency:
    """Exact FISTA; the subclass below runs the other multi-pass fits."""

    @pytest.fixture
    def consumer(self):
        return "exact_fista"

    def test_stream_within_cap_encodes_each_shard_once(
        self, yelp, force_layout, monkeypatch, consumer, layout
    ):
        fit, passes = CONSUMERS[consumer]
        with force_layout(layout):
            stream = join_all_strategy().streaming_matrices(
                yelp, n_shards=N_SHARDS
            )
            resident = fit(stream)
            assert _encoded_shards(stream) == N_SHARDS
            monkeypatch.setattr(data_source, "RESIDENT_SHARDS", 0)
            before = _encoded_shards(stream)
            reread = fit(stream)
            assert passes(reread) > 1
            assert (
                _encoded_shards(stream) - before == N_SHARDS * passes(reread)
            )
        _assert_same_fit(resident, reread)

    def test_stream_past_cap_rereads_only_the_rest(
        self, yelp, force_layout, monkeypatch, consumer, layout
    ):
        fit, passes = CONSUMERS[consumer]
        cap = 2
        with force_layout(layout):
            stream = join_all_strategy().streaming_matrices(
                yelp, n_shards=N_SHARDS
            )
            everything = fit(stream)
            monkeypatch.setattr(data_source, "RESIDENT_SHARDS", cap)
            before = _encoded_shards(stream)
            capped = fit(stream)
            assert _encoded_shards(stream) - before == (
                N_SHARDS + (N_SHARDS - cap) * (passes(capped) - 1)
            )
        _assert_same_fit(everything, capped)


@pytest.mark.parametrize(
    "consumer", [name for name in CONSUMERS if name != "exact_fista"]
)
class TestEveryMultiPassFit(TestResidency):
    """The tree's level passes and the trainer's epochs read through
    the same reader, so they keep the same residency guarantees."""


@pytest.mark.parametrize("layout", ["gather", "factorize"])
def test_resumed_epoch_loop_encodes_each_shard_once(
    yelp, force_layout, tmp_path, layout
):
    """A resumed fit's first pass starts mid-epoch: the shards before
    its cursor are encoded once, by the next epoch, and the fit is the
    uninterrupted one."""

    def mlp():
        return MLPClassifier(hidden_sizes=(8,), epochs=EPOCHS, random_state=0)

    with force_layout(layout):
        stream = join_all_strategy().streaming_matrices(
            yelp, n_shards=N_SHARDS
        )
        baseline = StreamingTrainer(mlp()).fit(stream)
        killer = KillSwitchCheckpoint(tmp_path, kill_after=3)
        with pytest.raises(ChaosKilledError):
            StreamingTrainer(mlp(), checkpoint=killer, resume=True).fit(stream)
        assert killer.latest()[:2] == (0, 2)
        registry = MetricsRegistry()
        manager = CheckpointManager(tmp_path, registry=registry)
        before = _encoded_shards(stream)
        resumed = StreamingTrainer(
            mlp(), checkpoint=manager, resume=True
        ).fit(stream)
        assert registry.get("resilience.resumes").value == 1
        assert _encoded_shards(stream) - before == N_SHARDS
    assert models_identical(baseline, resumed)


class _TrackingSource(MatrixSource):
    """Records every ``iter_shards`` order and whether each pass's
    generator was closed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.orders = []
        self.open_passes = 0

    def iter_shards(self, order=None):
        self.orders.append(None if order is None else list(order))
        self.open_passes += 1
        try:
            yield from super().iter_shards(order)
        finally:
            self.open_passes -= 1


@pytest.fixture
def tracked():
    rng = np.random.default_rng(0)
    X = CategoricalMatrix(rng.integers(0, 3, size=(40, 2)), (3, 3), ("a", "b"))
    return _TrackingSource(X, rng.integers(0, 2, size=40), shard_rows=8)


class TestShardPasses:
    def test_first_stream_pass_reads_without_an_order(
        self, tracked, monkeypatch
    ):
        monkeypatch.setattr(data_source, "RESIDENT_SHARDS", 2)
        passes = ShardPasses(tracked)
        first = [index for index, _ in passes()]
        second = [index for index, _ in passes()]
        assert first == second == [0, 1, 2, 3, 4]
        assert tracked.orders == [None, [2, 3, 4]]
        assert sorted(passes.resident) == [0, 1]

    def test_all_resident_pass_reads_nothing(self, tracked):
        passes = ShardPasses(tracked)
        list(passes())
        order = np.array([4, 0, 3, 1, 2])
        assert [index for index, _ in passes(order)] == list(order)
        assert tracked.orders == [None]

    def test_given_order_keeps_the_first_shards_it_produces(
        self, tracked, monkeypatch
    ):
        monkeypatch.setattr(data_source, "RESIDENT_SHARDS", 2)
        passes = ShardPasses(tracked)
        list(passes([3, 1, 4]))
        assert list(passes.resident) == [3, 1]
        assert [index for index, _ in passes([0, 1, 2, 3, 4])] == [
            0, 1, 2, 3, 4
        ]
        assert tracked.orders == [[3, 1, 4], [0, 2, 4]]

    def test_prepared_shards_are_what_a_pass_yields(self, tracked):
        passes = ShardPasses(tracked, lambda X, y: int(y.sum()))
        expected = [int(y.sum()) for _, _, y in tracked.iter_shards()]
        assert [shard for _, shard in passes()] == expected
        assert [shard for _, shard in passes()] == expected

    def test_abandoned_pass_closes_the_read(self, tracked, monkeypatch):
        monkeypatch.setattr(data_source, "RESIDENT_SHARDS", 1)
        passes = ShardPasses(tracked)
        for index, _ in passes():
            if index == 2:
                break
        assert tracked.open_passes == 0
        # The abandoned pass kept what it produced within the cap, and
        # the next pass reads the rest in full.
        assert [index for index, _ in passes()] == [0, 1, 2, 3, 4]
        assert tracked.open_passes == 0

    def test_error_in_the_consumer_closes_the_read(self, tracked):
        passes = ShardPasses(tracked)
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in passes():
                raise RuntimeError("consumer failed")
        assert tracked.open_passes == 0


class TestTelemetry:
    def test_fit_span_reports_residency_once(self, yelp, monkeypatch):
        stream = join_all_strategy().streaming_matrices(
            yelp, n_shards=N_SHARDS
        )
        annotations = {}
        for cap in (8, 2):
            monkeypatch.setattr(data_source, "RESIDENT_SHARDS", cap)
            with tracer().collect():
                StreamingTrainer(L1LogisticRegression(max_iter=3)).fit(stream)
            (fit,) = [
                span for span in tracer().report()["spans"]
                if span["name"] == "fit"
            ]
            annotations[cap] = fit["annotations"]
        assert annotations[8]["resident_shards"] == N_SHARDS
        assert annotations[2]["resident_shards"] == 2
        assert (
            0 < annotations[2]["resident_bytes"]
            < annotations[8]["resident_bytes"]
        )


def _copy(X):
    """The shard rebuilt over copies of its arrays, which the test may
    then overwrite the way a source reusing its buffers would."""
    if isinstance(X, CategoricalMatrix):
        return CategoricalMatrix(
            X.codes.copy(), X.n_levels, X.names, validate=False
        )
    groups = [
        FactorizedGroup(
            g.name, g.positions.copy(), g.dim_rows.copy(), g.block.copy()
        )
        for g in X.groups
    ]
    return FactorizedMatrix(
        X.names, X.n_levels, X.fact_positions.copy(), X.fact_codes.copy(),
        groups,
    )


def _arrays(X):
    if isinstance(X, CategoricalMatrix):
        return [X.codes]
    return [X.fact_codes] + [
        array for g in X.groups for array in (g.dim_rows, g.block)
    ]


class TestResidentOperand:
    @pytest.mark.parametrize("layout", ["gather", "factorize"])
    def test_resident_copy_outlives_its_source_arrays(
        self, yelp, force_layout, layout
    ):
        with force_layout(layout):
            stream = join_all_strategy().streaming_matrices(yelp, n_shards=2)
            X, _ = stream.shard(0)
        X = _copy(X)
        operand = sparse.encode_features(X)
        rng = np.random.default_rng(3)
        v = rng.normal(size=operand.shape[1])
        u = rng.normal(size=operand.shape[0])
        expected = (sparse.matmul(operand, v), sparse.rmatmul(operand, u))
        kept = sparse.resident(operand)
        codes = [array.copy() for array in _arrays(X)]
        for array in _arrays(X):
            array[...] = 0
        assert np.array_equal(sparse.matmul(kept, v), expected[0])
        assert np.array_equal(sparse.rmatmul(kept, u), expected[1])
        if layout == "gather":
            assert np.array_equal(kept.codes, codes[0])
        else:
            assert np.array_equal(kept.fact_codes, codes[0])
