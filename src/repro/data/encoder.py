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

Every batch (or shard) is one ``(n, k)`` int64 code table, its columns
in ``required_columns`` order, the fact features first:
:meth:`ShardEncoder.encode_requests` builds it from label-valued
request rows and :meth:`ShardEncoder.code_table` from fact rows, and
assembly and FK resolution take nothing else.  Assembly follows one
plan, built with the encoder: the per-row columns go into one
preallocated ``(n, d)`` array, the fact features with one slice (or
fancy index) of the table and each gathered dimension with one gather
of its memoised ``(|D|, d_R)`` block by the resolved rows.  The
per-dimension work does not grow with the number of features a
dimension keeps.

Correctness notes: the gather-based assembly is byte-identical to the
offline ``kfk_join`` + project path (``tests/test_serving_feature_service.py``
and the streaming equivalence suite both assert it), dangling foreign
keys raise :class:`~repro.errors.ReferentialIntegrityError` through
:func:`~repro.relational.join.resolve_dimension_rows` exactly as the
join would, and dimensions the strategy avoids are never touched — the
paper's NoJoin payoff holds on every path.  An encoder built over a
subset of the strategy's features (``features=``, for a served tree
that reads only some) likewise never touches a dimension none of whose
features it keeps.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

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


class _DimensionPlan(NamedTuple):
    """How :meth:`ShardEncoder.assemble` reads one joined dimension."""

    name: str
    #: Its FK's column in a code table (``required_columns`` order).
    fk_column: int
    #: Positions of its kept features: the block's column order.
    positions: np.ndarray
    #: Its rows, ``|D|``.
    n_rows: int


class _Layout(NamedTuple):
    """Where a batch's per-row columns go, for one set of blocked dimensions."""

    #: Feature positions of the per-row columns, ascending.
    positions: np.ndarray
    #: Per-row columns of the fact features.
    fact: "slice | np.ndarray"
    #: ``(plan index, per-row columns)`` of each gathered dimension.
    gathered: tuple


def _columns(index: np.ndarray) -> "slice | np.ndarray":
    """``index`` as a slice when it is a run of adjacent columns (a
    slice write copies about twice as fast as a fancy one)."""
    if len(index) and np.array_equal(
        index, np.arange(index[0], index[0] + len(index))
    ):
        return slice(int(index[0]), int(index[0]) + len(index))
    return index


#: Per-pass cost of a blocked dimension, in gathered codes (see
#: :func:`factorize_dimension`): a fixed part, and per kept feature a
#: per-column part plus a part per dimension row.  A least-squares fit to
#: the fit times of two ``benchmarks/bench_factorized.py`` sweeps,
#: rounded (README, "Factorize-or-gather plan").
BLOCK_FIXED_COST = 2_000
BLOCK_COLUMN_COST = 300
BLOCK_ROW_COST = 1


def factorize_dimension(n_rows: int, dim_rows: int, kept_features: int) -> bool:
    """Whether a joined dimension stays a ``(|D|, d_R)`` block in a shard.

    Gathering the dimension into a shard of ``n_rows`` fact rows makes
    every kernel pass touch ``n·d_R`` codes.  Keeping it as a block
    costs a fixed ``BLOCK_FIXED_COST`` per pass (the dimension's gather
    or ``bincount`` calls), ``BLOCK_COLUMN_COST`` per block column (one
    add each) and ``BLOCK_ROW_COST`` per block cell (one gathered code),
    all in gathered-code units; the dimension blocks when that is no
    more than the gather.  The tuple ratio ``n/|D|`` alone cannot
    decide: at ``|D| = 100`` the block wins from ratio 5 with
    ``d_R = 40`` but only from ratio 10 with ``d_R = 8``.  The rule sits
    on the right side of every point of the sweep (README,
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
    features:
        The strategy's features to encode, for a model that reads only
        some of them; ``None`` encodes all.  The encoder then requires,
        looks up and gathers nothing else, and a joined dimension none
        of whose features is kept is left out of
        :attr:`joined_dimensions`.
    """

    def __init__(
        self,
        schema: StarSchema,
        strategy: "repro.core.strategies.JoinStrategy",  # noqa: F821
        registry: MetricsRegistry | None = None,
        features: Sequence[str] | None = None,
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
        if features is not None:
            kept = set(features)
            if not kept <= set(self.feature_names):
                raise SchemaError(
                    f"strategy {strategy.name!r} has no features "
                    f"{sorted(kept - set(self.feature_names))}"
                )
            self.feature_names = tuple(
                f for f in self.feature_names if f in kept
            )
        joined = strategy.joined_dimensions(schema)
        self.n_levels: tuple[int, ...] = tuple(
            len(schema.feature_domain(name)) for name in self.feature_names
        )
        # Each feature is either a fact column (home feature or usable FK)
        # or a foreign feature of a joined dimension.
        dimension_of = {
            feature: name
            for name in joined
            for feature in schema.foreign_features(name)
        }
        self._fact_features = [
            f for f in self.feature_names if f not in dimension_of
        ]
        for feature in self._fact_features:
            if feature not in schema.fact:
                raise SchemaError(
                    f"strategy feature {feature!r} is neither a fact column "
                    f"nor a foreign feature of a joined dimension"
                )
        # Each joined dimension's kept features, in feature order (the
        # block's column order).
        self._dimension_features: dict[str, list[str]] = {}
        for feature in self.feature_names:
            if feature in dimension_of:
                self._dimension_features.setdefault(
                    dimension_of[feature], []
                ).append(feature)
        self.joined_dimensions: tuple[str, ...] = tuple(
            name
            for name in joined
            if features is None or name in self._dimension_features
        )
        self._fact_levels = [len(schema.feature_domain(f)) for f in self._fact_features]
        needed = list(self._fact_features)
        for name in self.joined_dimensions:
            fk = schema.constraint(name).fk_column
            if name in self._dimension_features and fk not in needed:
                needed.append(fk)
        self._required_columns: tuple[str, ...] = tuple(needed)
        # Views, never copies: an FK domain can hold 50,000 labels.
        self._code_indexes = [(c, schema.fact.domain(c).index) for c in needed]
        # The assembly plan.  A code table's first columns are the fact
        # features in feature order; each dimension reads its FK column
        # and fills its kept features' positions, in the order their first
        # feature appears (the order FK resolution errors surface in).
        positions = {feature: p for p, feature in enumerate(self.feature_names)}
        self._fact_positions = np.array(
            [positions[f] for f in self._fact_features], dtype=np.int64
        )
        self._plans = tuple(
            _DimensionPlan(
                name,
                needed.index(schema.constraint(name).fk_column),
                np.array([positions[f] for f in dim_features], dtype=np.int64),
                schema.dimension(name).n_rows,
            )
            for name, dim_features in self._dimension_features.items()
        )
        self._layouts: dict[tuple[bool, ...], _Layout] = {}
        self._layout((False,) * len(self._plans))

    @property
    def required_columns(self) -> tuple[str, ...]:
        """Fact columns a block of rows must provide.

        Home features and usable FKs that are themselves kept features,
        plus the FK of every joined dimension that keeps a feature
        (needed for the gather even when the FK is not a feature, e.g.
        under NoFK).
        Fixed for the encoder's lifetime, so it is precomputed off the
        hot path.
        """
        return self._required_columns

    # ------------------------------------------------------------------
    # Request encoding
    # ------------------------------------------------------------------
    def request_codes(self, row: Mapping[str, object]) -> list[int]:
        """One request row's codes as a list, in :attr:`required_columns`
        order: row ``0`` of :meth:`encode_requests` ``([row])``.

        The same one lookup per required column, the same
        :class:`SchemaError` and the same ``"Others"`` fallback, without
        a per-row array: a micro-batch flush builds one ``(n, k)`` code
        table from its rows' lists.
        """
        try:
            return [index[row[c]] for c, index in self._code_indexes]
        except KeyError:  # a missing column or an unseen label
            return self.encode_requests([row])[0].tolist()

    def encode_requests(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        """Encode label-valued request rows into one ``(n, k)`` code table.

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
    def code_table(self, fact_rows: Table) -> np.ndarray:
        """The ``(n, k)`` int64 code table of rows shaped like the fact
        table: column ``j`` holds their codes of ``required_columns[j]``.

        The one step from a :class:`~repro.relational.table.Table` to the
        input :meth:`assemble` and :meth:`dimension_rows` take, as
        :meth:`encode_requests` is from label-valued request rows.
        """
        codes = np.empty(
            (len(fact_rows), len(self._required_columns)), dtype=np.int64
        )
        for j, column in enumerate(self._required_columns):
            codes[:, j] = fact_rows.codes(column)
        return codes

    def assemble(self, codes: np.ndarray) -> "CategoricalMatrix | FactorizedMatrix":
        """Assemble the feature matrix of a batch's ``(n, k)`` code table.

        ``codes`` is what :meth:`encode_requests` or :meth:`code_table`
        returns: column ``j`` holds the codes of ``required_columns[j]``,
        the fact features first.  Each joined dimension's FK is resolved
        to dimension rows once, in plan order; a foreign key with no
        dimension row raises
        :class:`repro.errors.ReferentialIntegrityError` loudly rather
        than gathering garbage, before the one range check of the fact
        codes.  :func:`factorize_dimension` then decides, from ``n``,
        ``|D|`` and ``d_R``, whether the dimension's features are
        gathered into per-row columns or kept as its ``(|D|, d_R)``
        block (memoised, so a blocked dimension costs ``O(n)`` here).
        The per-row columns are written into one preallocated array: the
        fact features with one slice or fancy index of the code table,
        each gathered dimension with one gather of its block.  With no
        blocked dimension the result is a
        :class:`~repro.ml.encoding.CategoricalMatrix`, otherwise a
        :class:`~repro.ml.sparse.FactorizedMatrix` with the same column
        layout.
        """
        codes = self._checked(codes)
        n = codes.shape[0]
        lookups = self._lookups(codes)
        blocked = tuple(
            factorize_dimension(n, plan.n_rows, len(plan.positions))
            for plan in self._plans
        )
        # Caller-supplied fact codes are the one unverified input here: one
        # check per batch before any kernel reads them.
        fact = codes[:, : len(self._fact_features)]
        check_code_ranges(fact, self._fact_levels, self._fact_features)
        layout = self._layout(blocked)
        out = np.empty((n, len(layout.positions)), dtype=np.int64)
        out[:, layout.fact] = fact
        for i, columns in layout.gathered:
            entry, rows = lookups[i]
            out[:, columns] = self._block(self._plans[i].name, entry)[rows]
        if not any(blocked):
            # Fact codes were range-checked above and dimension codes
            # come from validated tables, so skip the per-batch scan.
            return CategoricalMatrix(
                out, self.n_levels, self.feature_names, validate=False
            )
        return FactorizedMatrix(
            self.feature_names,
            self.n_levels,
            layout.positions,
            out,
            [
                FactorizedGroup(
                    plan.name, plan.positions, rows, self._block(plan.name, entry)
                )
                for plan, (entry, rows), block in zip(
                    self._plans, lookups, blocked
                )
                if block
            ],
        )

    def dimension_rows(self, codes: np.ndarray) -> dict[str, np.ndarray]:
        """Each joined dimension's resolved row per fact row, no layout.

        The FK-resolution half of :meth:`assemble` on the same ``(n, k)``
        code table (same shape check, same cache lookups, same
        :class:`~repro.errors.ReferentialIntegrityError` on dangling
        keys), for consumers that fold a dimension's features into a
        per-dimension-row table ahead of time and need nothing per row
        but the row itself
        (:class:`~repro.serving.factorized.FactorizedScorer`).
        """
        return {
            plan.name: rows
            for plan, (_, rows) in zip(
                self._plans, self._lookups(self._checked(codes))
            )
        }

    def _checked(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as an int64 ``(n, k)`` code table, or a
        :class:`SchemaError` naming the shape it should have."""
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != len(self._required_columns):
            raise SchemaError(
                f"code array has shape {codes.shape}, expected "
                f"(n, {len(self._required_columns)}): one column per "
                f"required column"
            )
        return codes.astype(np.int64, copy=False)

    def _lookups(
        self, codes: np.ndarray
    ) -> list[tuple[_DimensionIndex, np.ndarray]]:
        """Each plan's cached index and resolved row per fact row, in plan
        order: one cache lookup and one FK resolution per joined
        dimension per batch, however many of its features are kept."""
        lookups = []
        for plan in self._plans:
            entry = self.cache.get(plan.name)
            lookups.append((
                entry,
                resolve_dimension_rows(
                    self.schema,
                    plan.name,
                    codes[:, plan.fk_column],
                    row_of_code=entry.row_of_code,
                ),
            ))
        return lookups

    def _layout(self, blocked: tuple[bool, ...]) -> _Layout:
        """The per-row column layout when the plans ``blocked`` flags are
        kept as blocks, built once per combination."""
        layout = self._layouts.get(blocked)
        if layout is None:
            gathered = [
                i for i, is_blocked in enumerate(blocked) if not is_blocked
            ]
            positions = np.sort(
                np.concatenate(
                    [self._fact_positions]
                    + [self._plans[i].positions for i in gathered]
                )
            )
            layout = self._layouts[blocked] = _Layout(
                positions,
                _columns(np.searchsorted(positions, self._fact_positions)),
                tuple(
                    (i, _columns(np.searchsorted(positions, self._plans[i].positions)))
                    for i in gathered
                ),
            )
        return layout

    def dimension_block(self, name: str) -> np.ndarray:
        """A joined dimension's ``(|D|, d_R)`` code block, memoised.

        Column ``c`` holds the codes of the dimension's ``c``-th kept
        feature (feature order) for every dimension row, in the
        narrowest unsigned integer type that holds them: every gathered
        dimension's block stays for the encoder's lifetime, and a
        50,000-row, 14-feature one is 0.7 MB as bytes, 5.6 MB as int64.
        Stacking the cached per-feature code columns costs
        ``O(|D|·d_R)`` once; afterwards a dimension costs no
        per-dimension-row work at assembly.  Entries are immutable and
        the stack is deterministic, so racing threads writing the same
        key is benign.
        """
        block = self._block_cache.get(name)
        if block is None:
            block = self._block(name, self.cache.get(name))
        return block

    def _block(self, name: str, entry: _DimensionIndex) -> np.ndarray:
        """:meth:`dimension_block`, stacked from an index the caller holds."""
        block = self._block_cache.get(name)
        if block is None:
            features = self._dimension_features[name]
            levels = max(len(self.schema.feature_domain(f)) for f in features)
            block = np.empty(
                (self.schema.dimension(name).n_rows, len(features)),
                dtype=np.min_scalar_type(levels - 1),
            )
            for c, feature in enumerate(features):
                block[:, c] = entry.feature_codes[feature]
            self._block_cache[name] = block
        return block

    def assemble_table(
        self, fact_rows: Table
    ) -> "CategoricalMatrix | FactorizedMatrix":
        """Assemble features for rows shaped like the fact table."""
        return self.assemble(self.code_table(fact_rows))

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
