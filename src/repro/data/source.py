"""The :class:`FeatureSource` protocol: one shard-oriented access path.

Every consumer of training data in this repo — the exact streaming
FISTA in :mod:`repro.ml.linear`, the epoch loops of
:class:`~repro.streaming.trainer.StreamingTrainer`, the count
accumulators of :class:`~repro.ml.naive_bayes.CategoricalNB`, the
histogram tree builder, the experiment runner and the benchmarks —
consumes the same thing: encoded ``(X, y)`` shards in a stable order
plus the schema/domain metadata needed to size model state up front.
:class:`FeatureSource` is that contract, stated once:

- **Shape without data**: ``n_rows``, ``n_shards``, ``shard_rows``,
  ``feature_names``, ``n_levels``, ``n_features``, ``onehot_width`` and
  ``n_classes`` are all known before any shard is read.
- **Random access**: ``shard(i)`` materialises shard ``i``'s
  ``(CategoricalMatrix, labels)`` pair; shards are deterministic and
  re-readable, which is what lets a multi-pass fit re-read the shards
  it does not keep, and lets decorators cache or retry reads without
  changing results.
- **Iteration**: ``iter_shards(order)`` yields ``(index, X, y)``
  triples (optionally reordered), ``__iter__`` yields ``(X, y)`` pairs
  in stable order, and both are re-iterable.
- **Lifecycle**: sources holding external resources (spill caches)
  release them in ``close()``; every source is a context manager.

Concrete sources: :class:`MatrixSource` here (one in-memory matrix,
optionally sliced into bounded shards),
:class:`~repro.streaming.matrices.StreamingMatrices` (per-shard KFK
join + encoding over any :class:`~repro.streaming.shards.ShardedDataset`
— splits, full tables, scenario populations, chunked CSVs).  Composable
decorator: :class:`~repro.data.spill.SpillCacheSource`; the tests add
their fault-injecting and retrying decorators on the same
:class:`SourceDecorator` base.

Every fit that makes more than one pass — exact FISTA's power
iteration and gradient passes, the streamed tree's level passes and
:class:`~repro.streaming.trainer.StreamingTrainer`'s epochs — reads
through one :class:`ShardPasses`: it keeps the first
:data:`RESIDENT_SHARDS` shards it prepares for the rest of the fit and
re-reads only the others.

This module deliberately imports nothing beyond numpy so that any layer
of the package (including :mod:`repro.ml` itself) can depend on it
without import cycles.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np


class FeatureSource:
    """Base class of the shard-oriented data-access protocol.

    Subclasses provide the metadata attributes (``feature_names``,
    ``n_levels``, ``n_rows``, ``n_shards``, ``n_classes``) and
    :meth:`shard`; iteration, label accumulation and lifecycle hooks
    come for free and may be overridden when a source has a cheaper
    path (e.g. a sequential CSV scanner, or labels that skip the join).
    """

    #: Star schema behind the source, when there is one (``None`` for
    #: bare in-memory matrices).
    schema = None

    # ------------------------------------------------------------------
    # Shape (known without reading any shard)
    # ------------------------------------------------------------------
    feature_names: tuple[str, ...]
    n_levels: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        """Total examples across all shards."""
        raise NotImplementedError

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        raise NotImplementedError

    @property
    def shard_rows(self) -> int:
        """Upper bound on rows per shard (resolved, not the request)."""
        if self.n_shards <= 1:
            return self.n_rows
        return -(-self.n_rows // self.n_shards)

    @property
    def n_features(self) -> int:
        """Number of categorical feature columns."""
        return len(self.feature_names)

    @property
    def onehot_width(self) -> int:
        """Width of the (never materialised) one-hot encoding."""
        return int(sum(self.n_levels))

    @property
    def n_classes(self) -> int:
        """Upper bound on the number of target classes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def shard(self, index: int) -> tuple["CategoricalMatrix", np.ndarray]:  # noqa: F821
        """The encoded ``(X, y)`` block of one shard, by stable index."""
        raise NotImplementedError

    def iter_shards(
        self, order: Sequence[int] | np.ndarray | None = None
    ) -> Iterator[tuple[int, "CategoricalMatrix", np.ndarray]]:  # noqa: F821
        """Iterate ``(index, X, y)`` triples, optionally reordered."""
        indices = range(self.n_shards) if order is None else order
        for index in indices:
            X, y = self.shard(int(index))
            yield int(index), X, y

    def __iter__(self) -> Iterator[tuple["CategoricalMatrix", np.ndarray]]:  # noqa: F821
        """Stable-order iteration over ``(X, y)`` pairs (re-iterable)."""
        for _, X, y in self.iter_shards():
            yield X, y

    def labels(self) -> np.ndarray:
        """All labels in stable shard order (one small array)."""
        parts = [y for _, _, y in self.iter_shards()]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release any resources the source holds (default: none)."""

    def __enter__(self) -> "FeatureSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SourceDecorator(FeatureSource):
    """A :class:`FeatureSource` wrapping another, delegating metadata.

    Decorators change *how* shards are produced (cached on disk,
    retried after a transient failure) but never *what* they contain: the
    contract — enforced by ``tests/test_data_source.py`` — is that a
    decorated source yields byte-identical shards in the same order as
    the source it wraps.
    """

    def __init__(self, source: FeatureSource):
        self.source = source

    @property
    def schema(self):
        return self.source.schema

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.source.feature_names)

    @property
    def n_levels(self) -> tuple[int, ...]:
        return tuple(self.source.n_levels)

    @property
    def n_rows(self) -> int:
        return self.source.n_rows

    @property
    def n_shards(self) -> int:
        return self.source.n_shards

    @property
    def shard_rows(self) -> int:
        return self.source.shard_rows

    @property
    def n_classes(self) -> int:
        return self.source.n_classes

    def shard(self, index: int):
        return self.source.shard(index)

    def labels(self) -> np.ndarray:
        # Sources often have a label path that skips the join/encode
        # entirely; always delegate rather than re-deriving from shards.
        return self.source.labels()

    def close(self) -> None:
        self.source.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source!r})"


class MatrixSource(FeatureSource):
    """Adapt one in-memory ``(X, y)`` pair to the shard protocol.

    With ``shard_rows=None`` (the default) the matrix is a single
    shard, yielded as the *same* matrix object every time.  With a
    bound, the matrix is cut into contiguous row blocks once, up front
    (the blocks are small index copies of an already-resident matrix).
    """

    def __init__(self, X, y, shard_rows: int | None = None):
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got {y.ndim}-D")
        if y.shape[0] != X.n_rows:
            raise ValueError(
                f"X has {X.n_rows} rows but y has {y.shape[0]} labels"
            )
        if shard_rows is not None and shard_rows < 1:
            raise ValueError(f"shard_rows must be >= 1, got {shard_rows}")
        self.X = X
        self.y = y
        self.feature_names = tuple(X.names)
        self.n_levels = tuple(X.n_levels)
        if shard_rows is None or shard_rows >= X.n_rows:
            self._shard_rows = X.n_rows
            self._shards = [(X, y)] if X.n_rows else []
        else:
            self._shard_rows = shard_rows
            self._shards = [
                (
                    X.take_rows(np.arange(start, min(start + shard_rows, X.n_rows))),
                    y[start : start + shard_rows],
                )
                for start in range(0, X.n_rows, shard_rows)
            ]

    @property
    def n_rows(self) -> int:
        return self.X.n_rows

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_rows(self) -> int:
        """The actual bound: the requested slice size, not an average.

        The base-class estimate (``ceil(n_rows / n_shards)``) would
        under-report whenever the final shard runs short — e.g. 30 rows
        at ``shard_rows=25`` slices ``[25, 5]``, whose true bound is 25.
        """
        return self._shard_rows

    @property
    def n_classes(self) -> int:
        if self.y.size == 0:
            return 2
        return max(int(self.y.max()) + 1, 2)

    def shard(self, index: int):
        if not 0 <= index < len(self._shards):
            raise IndexError(
                f"shard index {index} out of range for {len(self._shards)} shards"
            )
        return self._shards[index]

    def labels(self) -> np.ndarray:
        return self.y

    def __repr__(self) -> str:
        return (
            f"MatrixSource(n_rows={self.n_rows}, n_shards={self.n_shards}, "
            f"d={self.n_features})"
        )


#: Prepared shards a multi-pass fit keeps between passes.  Shards past
#: the cap are re-read on every pass, so a fit holds at most
#: ``RESIDENT_SHARDS + 1`` shards however many rows the stream has.
RESIDENT_SHARDS = 8


def _as_read(X, y) -> tuple:
    return X, y


class ShardPasses:
    """Repeated passes over one source, the first shards kept resident.

    Each call is one pass: it yields ``(index, prepare(X, y))`` in the
    given order, stream order by default.  The first
    :data:`RESIDENT_SHARDS` prepared shards the reader produces stay
    for the rest of the fit; the others are re-read through one
    ``source.iter_shards(missing)`` per pass, which is closed when the
    pass ends or is abandoned.  A first pass in stream order reads
    through ``iter_shards()``, so a source with a sequential scanner
    (chunked CSVs) keeps it.  Residency changes which shards are read,
    never what a pass yields, so it cannot change a fitted bit.

    Parameters
    ----------
    source:
        Any :class:`FeatureSource`.
    prepare:
        ``prepare(X, y)`` turns a read shard into what the fit keeps
        and consumes; the default keeps the shard as read.
    """

    __slots__ = ("source", "prepare", "resident", "_stream_order")

    def __init__(self, source: FeatureSource, prepare=_as_read):
        self.source = source
        self.prepare = prepare
        #: Kept prepared shards, by index, in the order first produced.
        self.resident: dict[int, object] = {}
        self._stream_order = range(source.n_shards)

    def __call__(
        self, order: Sequence[int] | np.ndarray | None = None
    ) -> Iterator[tuple[int, object]]:
        resident = self.resident
        stream_order = order is None
        if stream_order:
            order = self._stream_order
        else:
            order = [int(index) for index in order]
        # A pass over kept shards only is a bare walk: exact FISTA over
        # an in-memory matrix makes thousands of them per fit.
        if len(resident) == len(self._stream_order):
            missing = ()
        else:
            missing = [index for index in order if index not in resident]
        if not missing:
            for index in order:
                yield index, resident[index]
            return
        reads = self.source.iter_shards(
            None if stream_order and not resident else missing
        )
        try:
            for index in order:
                # Rebinding drops the previous shard before the next
                # read, so a shard past the cap is never held beside it.
                shard = resident.get(index)
                if shard is None:
                    _, X, y = next(reads)
                    shard = self.prepare(X, y)
                    del X, y
                    if len(resident) < RESIDENT_SHARDS:
                        resident[index] = shard
                yield index, shard
        finally:
            reads.close()


def source_accuracy(model, source: FeatureSource) -> float:
    """Accuracy of ``model.predict`` over a source, shard by shard.

    The one scoring loop shared by :class:`StreamingTrainer.score` and
    the experiment runner's split scoring: hits accumulate per shard, so
    evaluation has the same bounded footprint as training.
    """
    hits = 0
    total = 0
    for _, X, y in source.iter_shards():
        hits += int(np.sum(model.predict(X) == y))
        total += y.size
    if total == 0:
        raise ValueError("cannot score an empty source")
    return hits / total
