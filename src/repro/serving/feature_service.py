"""Serving-time feature assembly with cached dimension indexes.

Offline, a strategy materialises its features by re-running the KFK
join over the whole fact table (:meth:`JoinStrategy.matrices`).  Online,
that is the wrong shape of work: each request brings a handful of fact
rows, and re-joining per request would rebuild the code→row hash table
of every dimension every time.  :class:`FeatureService` precomputes each
joined dimension's row index (:func:`repro.relational.join.dimension_row_index`)
and its foreign-feature code columns once, keeps them for good,
and assembles a request's :class:`CategoricalMatrix` with O(1) numpy
gathers per dimension.

Dimensions the loaded strategy avoids are never touched — the serving
path realises the paper's payoff directly: a NoJoin model needs *no*
dimension access at all to serve predictions.

Since the unified data layer landed, the machinery itself lives in
:mod:`repro.data.encoder`: :class:`FeatureService` *is* a
:class:`~repro.data.encoder.ShardEncoder`, the same encode path the
out-of-core trainers run per shard, so a served micro-batch and a
training shard are assembled by literally the same code, under the same
per-dimension factorize-or-gather plan (micro-batches are small, so in
practice every dimension is gathered).  A request enters as label rows
and is encoded once, one label lookup per required column, into an
``(n, len(required_columns))`` code array; assembly reads that array's
columns as views.  The assembled matrices feed the
models' implicit one-hot kernels (:mod:`repro.ml.sparse`) end to end:
dimension codes gathered from validated tables skip re-validation,
caller-supplied fact codes get one range check per batch, and the dense
one-hot matrix is never materialised anywhere on the request path,
however large the FK domains.
"""

from __future__ import annotations

from repro.data.encoder import CacheStats, DimensionIndexCache, ShardEncoder

__all__ = [
    "CacheStats",
    "DimensionIndexCache",
    "FeatureService",
]


class FeatureService(ShardEncoder):
    """Assembles serving-time feature matrices for one (schema, strategy).

    A :class:`~repro.data.encoder.ShardEncoder` under its serving name:
    construction precomputes the strategy's feature layout and required
    request columns, :meth:`encode_requests` turns label rows into the
    code array of :attr:`required_columns` (the request contract), and
    :meth:`assemble`/:meth:`assemble_table`/:meth:`assemble_rows` build
    request matrices through the :class:`DimensionIndexCache`.  See the
    encoder for the full interface.

    Parameters
    ----------
    schema:
        The live star schema (fact domains + dimension tables).
    strategy:
        The join strategy of the model being served; avoided dimensions
        are skipped entirely, joined ones are resolved through the
        :class:`DimensionIndexCache`.
    registry:
        Metrics registry for cache/encode telemetry; a
        :class:`~repro.serving.server.PredictionServer` passes its own
        so all serving metrics share one snapshot.  ``None`` keeps a
        private registry (exact per-instance stats).
    """
