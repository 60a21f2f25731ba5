"""Per-shard strategy matrices: the out-of-core :class:`FeatureSource`.

:meth:`JoinStrategy.matrices` materialises the full joined table and a
full :class:`~repro.ml.encoding.CategoricalMatrix` — the step that caps
in-memory training at whatever fits in RAM.  :class:`StreamingMatrices`
encodes the *same* features per shard instead, through the unified
:class:`~repro.data.encoder.ShardEncoder`: each shard's fact rows are
resolved against the cached dimension indexes and laid out in the
strategy's feature order — the identical encode path the serving layer
runs per micro-batch.  Because the shard's columns share the schema's
closed domains, each shard's matrix is exactly the corresponding row
block of the never-built full matrix — the invariant the equivalence
suite asserts bit for bit.  A joined dimension the encoder's plan keeps
as a block (:func:`~repro.data.encoder.factorize_dimension`) makes the
shard a :class:`~repro.ml.sparse.FactorizedMatrix` whose gather is
that row block.

The class implements :class:`repro.data.FeatureSource`, the shard
protocol consumed by
:meth:`~repro.ml.linear.logistic.L1LogisticRegression.fit_stream`,
:class:`~repro.streaming.trainer.StreamingTrainer` and the
``fit_stream`` paths of the count/histogram models.

Referential integrity is enforced shard by shard: a dangling foreign
key anywhere in the table — even one first reached in the final shard —
raises :class:`~repro.errors.ReferentialIntegrityError` naming the
shard index, so out-of-core runs fail as loudly as validated in-memory
schemas do.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.strategies import JoinStrategy
from repro.data.encoder import ShardEncoder
from repro.data.source import FeatureSource
from repro.errors import ReferentialIntegrityError
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import FactorizedMatrix
from repro.streaming.shards import FactShard, ShardedDataset

#: An encoded shard's features, in whichever layout the encoder chose.
Shard = CategoricalMatrix | FactorizedMatrix


class StreamingMatrices(FeatureSource):
    """A strategy's feature matrices, assembled shard by shard.

    Parameters
    ----------
    sharded:
        The shard source (any :class:`ShardedDataset`).
    strategy:
        Feature-set strategy (JoinAll / NoJoin / NoFK / partial / ...).
        Resolved against the shard source's schema once, up front (by
        the shared :class:`ShardEncoder`), so malformed strategies fail
        before any data is read.
    encoder:
        An existing :class:`ShardEncoder` to assemble through; must
        have been built for the same ``(schema, strategy)`` pair.
        Passing one shares its dimension-index cache across several
        streams (e.g. one experiment's train/validation/test splits),
        so each dimension's index is built once per run, not once per
        split.  Built fresh when omitted.
    """

    def __init__(
        self,
        sharded: ShardedDataset,
        strategy: JoinStrategy,
        encoder: ShardEncoder | None = None,
    ):
        self.sharded = sharded
        self.strategy = strategy
        self.schema = sharded.schema
        if encoder is None:
            encoder = ShardEncoder(self.schema, strategy)
        elif encoder.schema is not self.schema or encoder.strategy != strategy:
            raise ValueError(
                "shared encoder was built for a different (schema, strategy) "
                "pair than this stream"
            )
        self.encoder = encoder
        self.feature_names: tuple[str, ...] = self.encoder.feature_names
        self.n_levels: tuple[int, ...] = self.encoder.n_levels
        # With a single shard the assembled matrix *is* the whole
        # dataset, so caching it costs no more memory than one assembly
        # already peaked at — and saves multi-pass consumers (tree
        # frontiers, MLP epochs, scoring after a fit) from re-joining
        # identical rows.  Multi-shard streams re-assemble per read:
        # that is the price of the bounded footprint.  Exact FISTA
        # keeps its own prepared shards resident between passes
        # (repro.ml.linear.logistic.RESIDENT_SHARDS).
        self._single_shard_cache: tuple[Shard, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Shape (known without reading any shard)
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Total examples across shards."""
        return self.sharded.n_rows

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self.sharded.n_shards

    @property
    def shard_rows(self) -> int:
        """Upper bound on rows per shard."""
        return self.sharded.shard_rows

    @property
    def n_classes(self) -> int:
        """Size of the target's *closed domain*.

        An upper bound on the classes training can observe; the trainer
        sizes model outputs from the labels actually present (see
        :meth:`labels`), matching what an in-memory ``fit`` would see.
        """
        return len(self.schema.fact.domain(self.schema.target))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _assemble(self, shard: FactShard) -> tuple[Shard, np.ndarray]:
        """Encode one fact shard into ``(X, y)`` via the shared encoder."""
        try:
            return self.encoder.encode_shard(shard.fact)
        except ReferentialIntegrityError as error:
            raise ReferentialIntegrityError(
                f"shard {shard.index}: {error}"
            ) from error

    def shard(self, index: int) -> tuple[Shard, np.ndarray]:
        """The ``(X, y)`` block of one shard, by stable index."""
        if self.n_shards == 1 and index == 0:
            if self._single_shard_cache is None:
                self._single_shard_cache = self._assemble(self.sharded.shard(0))
            return self._single_shard_cache
        return self._assemble(self.sharded.shard(index))

    def iter_shards(
        self, order: Sequence[int] | np.ndarray | None = None
    ) -> Iterator[tuple[int, Shard, np.ndarray]]:
        """Iterate ``(index, X, y)`` triples, optionally reordered."""
        if self.n_shards == 1:
            if order is None or (len(order) == 1 and int(order[0]) == 0):
                X, y = self.shard(0)
                yield 0, X, y
                return
        if order is None:
            # Stable order goes through the shard source's sequential
            # scanner when it has one (chunked CSVs), not per-index
            # random access.
            for shard in self.sharded.iter_shards():
                X, y = self._assemble(shard)
                yield shard.index, X, y
            return
        for index in order:
            X, y = self.shard(int(index))
            yield int(index), X, y

    def labels(self) -> np.ndarray:
        """All labels, accumulated shard by shard (one small array).

        Labels live on the fact shards, so this skips the per-shard
        gather and encoding entirely.
        """
        parts = [
            shard.fact.codes(self.schema.target)
            for shard in self.sharded.iter_shards()
        ]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    def __repr__(self) -> str:
        return (
            f"StreamingMatrices(strategy={self.strategy.name!r}, "
            f"n_rows={self.n_rows}, n_shards={self.n_shards}, "
            f"d={self.n_features}, onehot_width={self.onehot_width})"
        )
