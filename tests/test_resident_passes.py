"""Exact FISTA's resident-shard pass runner.

:meth:`~repro.ml.linear.L1LogisticRegression.fit_stream` prepares each
shard once per fit and keeps the first ``RESIDENT_SHARDS`` of them for
every later pass; the shards past the cap are re-read on every pass.
Which shards are resident must never change a coefficient bit, a
shard within the cap is encoded once per fit, and a kept shard owns
its arrays (a process-prefetched shard's arrays are released when the
next one is read).
"""

import numpy as np
import pytest

from repro.core import join_all_strategy
from repro.datasets import generate_real_world
from repro.ml import sparse
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression, logistic
from repro.ml.sparse import FactorizedGroup, FactorizedMatrix
from repro.obs import tracer
from repro.streaming import StreamingTrainer

#: Passes the step-size bound's power iteration makes before FISTA's.
POWER_PASSES = 30

N_SHARDS = 5


@pytest.fixture(scope="module")
def yelp():
    return generate_real_world("yelp", n_fact=300, seed=0)


def _fit(stream):
    model = L1LogisticRegression(lam=1e-3, max_iter=6, tol=0.0)
    return model.fit_stream(stream)


def _encoded_shards(stream) -> int:
    return stream.encoder.metrics.get("data.encode.shards").value


def _assert_same_fit(reference, candidate):
    assert np.array_equal(reference.coef_, candidate.coef_)
    assert reference.intercept_ == candidate.intercept_
    assert reference.n_iter_ == candidate.n_iter_


@pytest.mark.parametrize("layout", ["gather", "factorize"])
class TestResidency:
    def test_stream_within_cap_encodes_each_shard_once(
        self, yelp, force_layout, monkeypatch, layout
    ):
        with force_layout(layout):
            stream = join_all_strategy().streaming_matrices(
                yelp, n_shards=N_SHARDS
            )
            resident = _fit(stream)
            assert _encoded_shards(stream) == N_SHARDS
            monkeypatch.setattr(logistic, "RESIDENT_SHARDS", 0)
            reread = _fit(stream)
        _assert_same_fit(resident, reread)

    def test_stream_past_cap_rereads_only_the_rest(
        self, yelp, force_layout, monkeypatch, layout
    ):
        cap = 2
        with force_layout(layout):
            stream = join_all_strategy().streaming_matrices(
                yelp, n_shards=N_SHARDS
            )
            everything = _fit(stream)
            monkeypatch.setattr(logistic, "RESIDENT_SHARDS", cap)
            before = _encoded_shards(stream)
            capped = _fit(stream)
            passes = POWER_PASSES + capped.n_iter_
            assert _encoded_shards(stream) - before == (
                N_SHARDS + (N_SHARDS - cap) * (passes - 1)
            )
        _assert_same_fit(everything, capped)


class TestTelemetry:
    def test_fit_span_reports_residency_once(self, yelp, monkeypatch):
        stream = join_all_strategy().streaming_matrices(
            yelp, n_shards=N_SHARDS
        )
        annotations = {}
        for cap in (8, 2):
            monkeypatch.setattr(logistic, "RESIDENT_SHARDS", cap)
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
    then overwrite the way a released shared-memory segment is."""
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
