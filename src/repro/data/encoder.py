"""The one encode path from fact rows to feature matrices.

Every consumer that turns raw fact rows into a strategy's feature
matrix — the serving layer per micro-batch, the streaming layer per
shard — does the same work: resolve each joined dimension's foreign-key
codes to dimension rows, lay out the foreign features, and stack them
with the fact features in strategy order.  :class:`ShardEncoder` is
that path, stated once and shared:

- :class:`repro.serving.PredictionServer` encodes requests and
  assembles each micro-batch through one ``ShardEncoder``, so the
  request path and the training path cannot drift apart.
- :class:`repro.streaming.StreamingMatrices` encodes every shard
  through one, so out-of-core training reuses the same cached
  dimension indexes a server would — each shard costs O(1) numpy
  gathers per joined dimension instead of a fresh hash join.

How each joined dimension is laid out is read from the data, one
dimension at a time, by :func:`factorize_dimension`: a dimension whose
rows are shared by enough fact rows stays a ``(|D|, d_R)`` code block
behind an FK indirection (a :class:`~repro.ml.sparse.FactorizedMatrix`
group); any other is gathered into per-row code columns.  A batch with
no blocked dimension is a plain
:class:`~repro.ml.encoding.CategoricalMatrix`.

Correctness notes: the gather-based assembly is byte-identical to the
offline ``kfk_join`` + project path (``tests/test_serving_feature_service.py``
and the streaming equivalence suite both assert it), dangling foreign
keys raise :class:`~repro.errors.ReferentialIntegrityError` through
:func:`~repro.relational.join.resolve_dimension_rows` exactly as the
join would, and dimensions the strategy avoids are never touched — the
paper's NoJoin payoff holds on every path.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import SchemaError
from repro.ml.encoding import CategoricalMatrix, check_code_ranges
from repro.ml.sparse import FactorizedGroup, FactorizedMatrix
from repro.obs import MetricsRegistry, trace
from repro.relational.join import dimension_row_index, resolve_dimension_rows
from repro.relational.schema import StarSchema
from repro.relational.table import Table


@dataclass
class CacheStats:
    """Hit/miss/build accounting for the dimension-index cache.

    A point-in-time snapshot view over the cache's registry-backed
    counters (``data.dim_cache.*``) — the cache does not keep a second
    set of books.  ``builds`` counts actual index constructions; under
    concurrent access it can be smaller than ``misses`` because racing
    threads that miss on the same cold dimension share one build.
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (fields plus derived rates)."""
        return {
            **asdict(self),
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    def __str__(self) -> str:
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%}), {self.builds} builds"
        )


@dataclass
class _DimensionIndex:
    """Precomputed lookup state for one joined dimension."""

    row_of_code: np.ndarray
    feature_codes: dict[str, np.ndarray]


class DimensionIndexCache:
    """Per-dimension join indexes, each built once and then kept.

    No dataset here joins more than three dimensions and an index is
    the size of its dimension, so every index stays for the encoder's
    lifetime; there is nothing to evict.  Any number of threads may call
    :meth:`get` concurrently: a hit is one dict read with no lock, and a
    cold dimension is built under one lock, so threads racing on it
    share exactly one build.  Entries are immutable once published.
    """

    def __init__(
        self,
        schema: StarSchema,
        registry: MetricsRegistry | None = None,
    ):
        self.schema = schema
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hits = self.metrics.counter("data.dim_cache.hits")
        self._misses = self.metrics.counter("data.dim_cache.misses")
        self._builds = self.metrics.counter("data.dim_cache.builds")
        self._build_seconds = self.metrics.histogram("data.dim_cache.build_s")
        self._build_lock = threading.Lock()
        self._entries: dict[str, _DimensionIndex] = {}

    @property
    def stats(self) -> CacheStats:
        """Point-in-time snapshot of the registry-backed counters."""
        return CacheStats(
            hits=self._hits.value,
            misses=self._misses.value,
            builds=self._builds.value,
        )

    def get(self, name: str) -> _DimensionIndex:
        """Fetch (building if needed) the index state of dimension ``name``."""
        entry = self._entries.get(name)
        if entry is not None:
            self._hits.inc()
            return entry
        self._misses.inc()
        with self._build_lock:
            entry = self._entries.get(name)
            if entry is None:  # not built by a racing thread meanwhile
                built_at = time.perf_counter()
                entry = self._build(name)
                self._build_seconds.observe(time.perf_counter() - built_at)
                self._builds.inc()
                self._entries[name] = entry
        return entry

    def _build(self, name: str) -> _DimensionIndex:
        dim = self.schema.dimension(name)
        return _DimensionIndex(
            row_of_code=dimension_row_index(self.schema, name),
            feature_codes={
                feature: dim.column(feature).codes
                for feature in self.schema.foreign_features(name)
            },
        )

    def __len__(self) -> int:
        return len(self._entries)


#: Per-pass cost of a blocked dimension, in gathered codes (see
#: :func:`factorize_dimension`): a fixed part, and per kept feature a
#: per-column part plus a part per dimension row.  A least-squares fit to
#: the fit times of ``benchmarks/bench_factorized.py``, rounded.
BLOCK_FIXED_COST = 12_000
BLOCK_COLUMN_COST = 1_300
BLOCK_ROW_COST = 2


def factorize_dimension(n_rows: int, dim_rows: int, kept_features: int) -> bool:
    """Whether a joined dimension stays a ``(|D|, d_R)`` block in a shard.

    Gathering the dimension into a shard of ``n_rows`` fact rows makes
    every kernel pass touch ``n·d_R`` codes.  Keeping it as a block
    costs a fixed ``BLOCK_FIXED_COST`` per pass, ``BLOCK_COLUMN_COST``
    per block column (one numpy call each) and ``BLOCK_ROW_COST`` per
    block cell (a strided column read), all in gathered-code units; the
    dimension blocks when that is no more than the gather.  The tuple
    ratio ``n/|D|`` alone cannot decide: at ``|D| = 100`` the block wins
    from ratio 20 with ``d_R = 40`` but only from ratio 40 with
    ``d_R = 8``, and at ``|D| = 1000`` from ratio 5.  The rule sits on
    the right side of every point of the sweep (README,
    "Factorize-or-gather plan").

    Pure, and looked up at call time: tests and the benchmark force a
    layout by substituting this function.
    """
    blocked = BLOCK_FIXED_COST + kept_features * (
        BLOCK_COLUMN_COST + BLOCK_ROW_COST * dim_rows
    )
    return n_rows * kept_features >= blocked


class ShardEncoder:
    """Encode blocks of fact rows into one (schema, strategy)'s features.

    Parameters
    ----------
    schema:
        The live star schema (fact domains + dimension tables).
    strategy:
        The join strategy; avoided dimensions are skipped entirely,
        joined ones are resolved through the :class:`DimensionIndexCache`.
    registry:
        Metrics registry for the encoder's telemetry (cache counters,
        per-shard encode latency).  ``None`` creates a private one, so
        each encoder's stats stay exact; pass a shared registry to pool
        several components into one snapshot.
    """

    def __init__(
        self,
        schema: StarSchema,
        strategy: "repro.core.strategies.JoinStrategy",  # noqa: F821
        registry: MetricsRegistry | None = None,
    ):
        self.schema = schema
        self.strategy = strategy
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._encode_seconds = self.metrics.histogram("data.encode.shard_s")
        self._encoded_shards = self.metrics.counter("data.encode.shards")
        self._encoded_rows = self.metrics.counter("data.encode.rows")
        self.cache = DimensionIndexCache(schema, registry=self.metrics)
        # (|D|, d_R) code blocks, stacked once per dimension (see
        # dimension_block).
        self._block_cache: dict[str, np.ndarray] = {}
        self.feature_names: tuple[str, ...] = tuple(strategy.feature_names(schema))
        self.joined_dimensions: tuple[str, ...] = tuple(
            strategy.joined_dimensions(schema)
        )
        self.n_levels: tuple[int, ...] = tuple(
            len(schema.feature_domain(name)) for name in self.feature_names
        )
        # Each feature is either a fact column (home feature or usable FK)
        # or a foreign feature gathered through (dimension, fk_column).
        self._foreign_of: dict[str, tuple[str, str]] = {}
        for name in self.joined_dimensions:
            fk = schema.constraint(name).fk_column
            for feature in schema.foreign_features(name):
                self._foreign_of[feature] = (name, fk)
        self._fact_features = [
            f for f in self.feature_names if f not in self._foreign_of
        ]
        for feature in self._fact_features:
            if feature not in schema.fact:
                raise SchemaError(
                    f"strategy feature {feature!r} is neither a fact column "
                    f"nor a foreign feature of a joined dimension"
                )
        # The plan's per-dimension inputs: |D| and the kept features d_R,
        # in feature order (the block's column order).
        self._dimension_features: dict[str, list[str]] = {}
        for feature in self.feature_names:
            owner = self._foreign_of.get(feature)
            if owner is not None:
                self._dimension_features.setdefault(owner[0], []).append(
                    feature
                )
        self._dimension_rows: dict[str, int] = {
            name: schema.dimension(name).n_rows
            for name in self._dimension_features
        }
        self._fact_levels = [len(schema.feature_domain(f)) for f in self._fact_features]
        needed = list(self._fact_features)
        for name in self.joined_dimensions:
            fk = schema.constraint(name).fk_column
            if fk not in needed:
                needed.append(fk)
        self._required_columns: tuple[str, ...] = tuple(needed)
        # Views, never copies: an FK domain can hold 50,000 labels.
        self._code_indexes = [(c, schema.fact.domain(c).index) for c in needed]

    @property
    def required_columns(self) -> tuple[str, ...]:
        """Fact columns a block of rows must provide.

        Home features and usable FKs that are themselves features, plus
        the FK of every joined dimension (needed for the gather even when
        the FK is not a feature, e.g. under NoFK).  Fixed for the
        encoder's lifetime, so it is precomputed off the hot path.
        """
        return self._required_columns

    # ------------------------------------------------------------------
    # Request encoding
    # ------------------------------------------------------------------
    def encode_requests(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        """Encode label-valued request rows into one ``(n, k)`` code array.

        Column ``j`` holds the codes of ``required_columns[j]``, one lookup
        per label in its fact domain's index.  A missing column or a label
        outside its closed domain raises :class:`SchemaError`; a domain with
        an ``"Others"`` level maps unseen labels to it, as ``Domain.encode``.
        """
        if not rows:
            raise ValueError("cannot encode an empty request batch")
        try:
            codes = [[index[row[c]] for c, index in self._code_indexes] for row in rows]
        except KeyError:  # a missing column or an unseen label: find which
            codes = np.empty((len(rows), len(self._code_indexes)), dtype=np.int64)
            for j, column in enumerate(self._required_columns):
                try:
                    values = [row[column] for row in rows]
                except KeyError:
                    raise SchemaError(
                        f"prediction request lacks fact column {column!r}; "
                        f"required: {list(self._required_columns)}"
                    ) from None
                codes[:, j] = self.schema.fact.domain(column).encode(values)
        return np.asarray(codes, dtype=np.int64)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assemble(
        self, fact_codes: Mapping[str, np.ndarray]
    ) -> "CategoricalMatrix | FactorizedMatrix":
        """Assemble the feature matrix for pre-encoded fact columns.

        ``fact_codes`` maps each :attr:`required_columns` entry to an
        ``(n,)`` int code vector.  Each joined dimension's FK is
        resolved to dimension rows once; a foreign key with no dimension
        row raises :class:`repro.errors.ReferentialIntegrityError`
        loudly rather than gathering garbage.  :func:`factorize_dimension`
        then decides, from ``n``, ``|D|`` and ``d_R``, whether the
        dimension's features are gathered from the cached dimension
        index into per-row columns or kept as its ``(|D|, d_R)`` block
        (memoised, so a blocked dimension costs ``O(n)`` here).  With no
        blocked dimension the result is a
        :class:`~repro.ml.encoding.CategoricalMatrix`, otherwise a
        :class:`~repro.ml.sparse.FactorizedMatrix` with the same column
        layout.
        """
        n = None
        for column, codes in fact_codes.items():
            codes = np.asarray(codes)
            if n is None:
                n = codes.shape[0]
            elif codes.shape[0] != n:
                raise SchemaError(
                    f"ragged request batch: column {column!r} has "
                    f"{codes.shape[0]} rows, expected {n}"
                )
        if n is None:
            raise ValueError("cannot assemble an empty request batch")

        # One cache lookup, one FK resolution and one layout decision per
        # dimension per batch, however many of its features are kept.
        entries: dict[str, _DimensionIndex] = {}
        dim_rows: dict[str, np.ndarray] = {}
        blocks: dict[str, list[int]] = {}
        columns: list[np.ndarray] = []
        positions: list[int] = []
        fact: list[np.ndarray] = []
        for position, feature in enumerate(self.feature_names):
            owner = self._foreign_of.get(feature)
            if owner is None:
                try:
                    codes = np.asarray(fact_codes[feature], dtype=np.int64)
                except KeyError:
                    raise SchemaError(
                        f"request batch lacks fact column {feature!r}"
                    ) from None
                fact.append(codes)
            else:
                name = owner[0]
                if name not in entries:
                    entries[name], dim_rows[name] = self._resolve(
                        name, owner[1], fact_codes
                    )
                    if factorize_dimension(
                        n,
                        self._dimension_rows[name],
                        len(self._dimension_features[name]),
                    ):
                        blocks[name] = []
                if name in blocks:
                    blocks[name].append(position)
                    continue
                codes = entries[name].feature_codes[feature][dim_rows[name]]
            columns.append(codes)
            positions.append(position)
        # Caller-supplied fact codes are the one unverified input here: one
        # check per batch before any kernel reads them, stacked feature-major
        # so each feature's min/max reads contiguous memory.
        if fact:
            check_code_ranges(np.stack(fact).T, self._fact_levels, self._fact_features)
        if not blocks:
            if not columns:
                return CategoricalMatrix.empty(n)
            # Fact codes were range-checked above and dimension codes
            # come from validated tables, so skip the per-batch scan.
            return CategoricalMatrix(
                np.stack(columns, axis=1), self.n_levels, self.feature_names,
                validate=False,
            )
        return FactorizedMatrix(
            self.feature_names,
            self.n_levels,
            np.asarray(positions, dtype=np.int64),
            (
                np.stack(columns, axis=1)
                if columns
                else np.zeros((n, 0), dtype=np.int64)
            ),
            [
                FactorizedGroup(
                    name, block_positions, dim_rows[name],
                    self.dimension_block(name),
                )
                for name, block_positions in blocks.items()
            ],
        )

    def _resolve(
        self, name: str, fk: str, fact_codes: Mapping[str, np.ndarray]
    ) -> tuple[_DimensionIndex, np.ndarray]:
        """A joined dimension's cached index and resolved row per fact row."""
        entry = self.cache.get(name)
        try:
            fk_codes = np.asarray(fact_codes[fk], dtype=np.int64)
        except KeyError:
            raise SchemaError(
                f"request batch lacks foreign key {fk!r} needed "
                f"to resolve dimension {name!r}"
            ) from None
        return entry, resolve_dimension_rows(
            self.schema, name, fk_codes, row_of_code=entry.row_of_code
        )

    def dimension_rows(
        self, fact_codes: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Each joined dimension's resolved row per fact row, no layout.

        The FK-resolution half of :meth:`assemble` (same cache lookups,
        same :class:`~repro.errors.ReferentialIntegrityError` on
        dangling keys), for consumers that fold a dimension's features
        into a per-dimension-row table ahead of time and need nothing
        per row but the row itself
        (:class:`~repro.serving.factorized.FactorizedScorer`).
        """
        return {
            name: self._resolve(
                name, self._foreign_of[features[0]][1], fact_codes
            )[1]
            for name, features in self._dimension_features.items()
        }

    def dimension_block(self, name: str) -> np.ndarray:
        """A joined dimension's ``(|D|, d_R)`` code block, memoised.

        Column ``c`` holds the codes of the dimension's ``c``-th kept
        feature (feature order) for every dimension row.  Stacking the
        cached per-feature code columns costs ``O(|D|·d_R)`` once;
        afterwards a blocked dimension costs no per-dimension-row work
        at assembly.  Entries are immutable and the stack is
        deterministic, so racing threads writing the same key is benign.
        """
        block = self._block_cache.get(name)
        if block is None:
            entry = self.cache.get(name)
            block = np.stack(
                [
                    entry.feature_codes[feature]
                    for feature in self._dimension_features[name]
                ],
                axis=1,
            ).astype(np.int64, copy=False)
            self._block_cache[name] = block
        return block

    def assemble_table(
        self, fact_rows: Table
    ) -> "CategoricalMatrix | FactorizedMatrix":
        """Assemble features for rows shaped like the fact table."""
        return self.assemble(
            {column: fact_rows.codes(column) for column in self.required_columns}
        )

    def assemble_rows(
        self, rows: Sequence[Mapping[str, object]]
    ) -> "CategoricalMatrix | FactorizedMatrix":
        """Encode label-valued request rows and assemble their features."""
        codes = self.encode_requests(rows)
        return self.assemble(dict(zip(self._required_columns, codes.T)))

    def encode_shard(
        self, fact_rows: Table
    ) -> "tuple[CategoricalMatrix | FactorizedMatrix, np.ndarray]":
        """One block of fact rows as an encoded ``(X, y)`` pair.

        The training-side entry point: the same assembly the serving
        path runs per micro-batch (so the same per-dimension layout
        plan), plus the target codes read straight off the fact block
        (labels never pass through a join).

        Each call lands one observation in the ``data.encode.shard_s``
        histogram and one merged ``encode.shard`` span, so multi-pass
        training (FISTA re-streams the source every iteration) reports
        one aggregate line instead of thousands of spans.
        """
        started = time.perf_counter()
        with trace("encode.shard", merge=True):
            encoded = (
                self.assemble_table(fact_rows),
                fact_rows.codes(self.schema.target),
            )
        self._encode_seconds.observe(time.perf_counter() - started)
        self._encoded_shards.inc()
        self._encoded_rows.inc(len(fact_rows))
        return encoded

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(strategy={self.strategy.name!r}, "
            f"{len(self.feature_names)} features, "
            f"joined={list(self.joined_dimensions)}, {self.cache.stats})"
        )
