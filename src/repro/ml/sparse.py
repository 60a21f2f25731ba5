"""Sparse categorical kernels: implicit one-hot and factorized.

A one-hot encoded categorical matrix has exactly one nonzero per feature
per row, so every product the numeric models compute against it is a
gather or a scatter over the integer codes — multiplying the explicit
zeros is pure waste.  :class:`OneHotMatrix` is a read-only *view* over a
:class:`~repro.ml.encoding.CategoricalMatrix` that implements the four
kernels the models actually need, without ever allocating the dense
``(n, sum(n_levels))`` array:

- :meth:`OneHotMatrix.matmul` — ``X @ W`` as per-feature row-gathers of
  ``W`` summed across features (forward passes, decision functions);
- :meth:`OneHotMatrix.rmatmul` — ``X.T @ V`` as scatter-adds
  (``np.add.at`` / weighted ``bincount``) into the one-hot columns
  (gradients, ``lambda_max`` screening);
- :meth:`OneHotMatrix.match_counts` / :meth:`OneHotMatrix.squared_distances`
  — Gram blocks and squared Euclidean distances via code-equality
  counts: for one-hot blocks ``x·z`` equals the number of matching
  features and ``||x - z||^2 = 2 (d - matches)`` (k-NN, SVM kernels);
- :meth:`OneHotMatrix.column_means` / :meth:`OneHotMatrix.column_scales`
  — per-one-hot-column statistics from a single ``bincount`` over the
  codes, exposed for downstream scalers and diagnostics (nothing in
  :mod:`repro.ml.preprocessing` consumes them yet).

Cost is ``O(n·d)`` per pass instead of ``O(n · sum(n_levels))`` — for
the paper's foreign keys with domains in the thousands to millions this
is the difference between training being dominated by multiplying zeros
and running at code-array speed.

:class:`FactorizedMatrix` goes one step further and factorizes the KFK
*join* itself out of the hot path.  A gathered code table stores every
fact row's copy of its dimension row, so every kernel pass re-touches
``O(n·d)`` codes even though a joined dimension has only ``|D|``
distinct rows.  The factorized layout keeps the per-row code columns
as ``(n, d_fact)`` plus, per blocked dimension, one ``(n,)``
FK-resolved row vector and one ``(|D|, d_R)`` code block; kernels run
the per-dimension work once over the block (``O(|D|·d_R)``) and touch
the fact rows only through a single gather or ``bincount`` by FK code
(``O(n)`` per dimension).  Total per pass: ``O(n + |D|·d_R)`` instead
of ``O(n·d)`` — the win grows with the ``n/|D|`` fan-out, exactly the
regime where the paper's join-avoidance question bites.

Which layout a shard gets is decided per dimension by the encoder
(:func:`repro.data.encoder.factorize_dimension`), not by the models:
:func:`encode_features` turns either layout into its kernel operand,
:func:`gathered` gives code-reading models the gathered table, and the
:func:`matmul` / :func:`rmatmul` / :func:`take_rows` helpers dispatch
on the operand type so model code is written once for every layout.
Tests run the dense one-hot oracle by substituting
:func:`encode_features`, and assert every path agrees to 1e-10
(bit-identical where summation order is unchanged).
"""

from __future__ import annotations

import numpy as np

from repro.ml.encoding import CategoricalMatrix


class OneHotMatrix:
    """An implicit view of ``CategoricalMatrix.onehot()``.

    Holds only the ``(n, d)`` integer codes and the per-feature column
    offsets of the one-hot layout (block ``j`` starts at
    ``offsets[j]`` and has width ``n_levels[j]``), exactly matching the
    column order of the dense encoding.

    Parameters
    ----------
    source:
        The categorical matrix to view.  The codes are shared, not
        copied; the view is read-only.
    """

    __slots__ = ("_codes", "n_levels", "offsets", "_flat")

    def __init__(self, source: CategoricalMatrix):
        self._codes = source.codes
        self.n_levels = tuple(int(k) for k in source.n_levels)
        self.offsets = np.concatenate(
            ([0], np.cumsum(self.n_levels))
        ).astype(np.int64)
        self._flat: np.ndarray | None = None

    def _replace_codes(self, codes: np.ndarray) -> "OneHotMatrix":
        view = object.__new__(OneHotMatrix)
        view._codes = codes
        view.n_levels = self.n_levels
        view.offsets = self.offsets
        view._flat = None
        return view

    def resident(self) -> "OneHotMatrix":
        """A copy to keep across passes, holding only the flat codes.

        The kernels read nothing else, and the flat codes are a fresh
        array, so the copy borrows nothing from the codes it came from
        (a source may reuse or drop a shard's arrays once the next shard
        is read).  Its :attr:`codes` are re-derived on each access.
        """
        view = object.__new__(OneHotMatrix)
        view._codes = None
        view.n_levels = self.n_levels
        view.offsets = self.offsets
        view._flat = self._flat_codes()
        return view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def codes(self) -> np.ndarray:
        """The ``(n, d)`` integer codes."""
        if self._codes is None:
            return self._flat - self.offsets[:-1][np.newaxis, :]
        return self._codes

    def _table(self) -> np.ndarray:
        """The ``(n, d)`` table held: the codes, or only the flat codes."""
        return self._flat if self._codes is None else self._codes

    @property
    def n_rows(self) -> int:
        """Number of examples."""
        return self._table().shape[0]

    @property
    def n_features(self) -> int:
        """Number of categorical features (one-hot blocks)."""
        return self._table().shape[1]

    @property
    def width(self) -> int:
        """Width of the implied one-hot encoding, ``sum(n_levels)``."""
        return int(self.offsets[-1])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the implied dense matrix, ``(n, width)``."""
        return (self.n_rows, self.width)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the view: codes, offsets, flat-code cache.

        Part of the ``shard_working_set_bytes`` the streaming scale
        benchmark records; compare against ``n_rows * width * 8`` for
        the dense encoding this view stands in for (the benchmark's
        ``shard_dense_equivalent_bytes``).
        """
        codes = self._codes.nbytes if self._codes is not None else 0
        flat = self._flat.nbytes if self._flat is not None else 0
        return int(codes + self.offsets.nbytes + flat)

    def _flat_codes(self) -> np.ndarray:
        """Codes shifted into one-hot column positions, cached."""
        if self._flat is None:
            self._flat = self.codes + self.offsets[:-1][np.newaxis, :]
        return self._flat

    def take_rows(self, rows: np.ndarray | slice) -> "OneHotMatrix":
        """A view over a subset of examples (index array, mask or slice)."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
        return self._replace_codes(self.codes[rows])

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, W: np.ndarray) -> np.ndarray:
        """``X @ W`` for ``W`` of shape ``(width,)`` or ``(width, k)``.

        Each output row sums one gathered entry (or row) of ``W`` per
        feature: ``out[i] = sum_j W[offsets[j] + codes[i, j]]``.
        """
        W = np.asarray(W, dtype=np.float64)
        if W.shape[0] != self.width:
            raise ValueError(
                f"operand has {W.shape[0]} rows, expected width {self.width}"
            )
        if self.n_features == 0:
            return np.zeros((self.n_rows,) + W.shape[1:], dtype=np.float64)
        flat = self._flat_codes()
        if W.ndim == 1:
            return W[flat].sum(axis=1)
        out = np.zeros((self.n_rows,) + W.shape[1:], dtype=np.float64)
        for j in range(self.n_features):
            out += W[flat[:, j]]
        return out

    def rmatmul(self, V: np.ndarray) -> np.ndarray:
        """``X.T @ V`` for ``V`` of shape ``(n,)`` or ``(n, k)``.

        Scatter-adds each example's value(s) into the one-hot columns
        its codes select — a weighted ``bincount`` per operand column
        (``np.add.at`` is an order of magnitude slower on this shape).
        """
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n_rows:
            raise ValueError(
                f"operand has {V.shape[0]} rows, expected {self.n_rows}"
            )
        if self.n_features == 0:
            return np.zeros((0,) + V.shape[1:], dtype=np.float64)
        flat = self._flat_codes()
        if V.ndim == 1:
            weights = V if self.n_features == 1 else np.repeat(V, self.n_features)
            return np.bincount(
                flat.ravel(), weights=weights, minlength=self.width
            )
        # One-hot blocks are disjoint per feature, so every output slot
        # accumulates its contributions in row order under both the
        # flat bincount and the old per-feature scatter — the results
        # are bit-identical, the bincount is just much faster.  The
        # trailing dimension is explicit: reshape(n, -1) cannot infer
        # -1 for a 0-row operand (empty shards are legal).
        flat_all = flat.ravel()
        V2 = V.reshape(V.shape[0], int(np.prod(V.shape[1:])))
        out = np.empty((self.width, V2.shape[1]), dtype=np.float64)
        for column in range(V2.shape[1]):
            weights = (
                V2[:, column]
                if self.n_features == 1
                else np.repeat(V2[:, column], self.n_features)
            )
            out[:, column] = np.bincount(
                flat_all, weights=weights, minlength=self.width
            )
        return out.reshape((self.width,) + V.shape[1:])

    def match_counts(
        self, other: "OneHotMatrix", chunk_size: int = 512
    ) -> np.ndarray:
        """Pairwise counts of matching features — the linear-kernel Gram.

        For one-hot blocks ``x_i · z_j`` is exactly the number of
        features on which the code vectors agree, so this *is*
        ``self.onehot() @ other.onehot().T`` without the encoding.
        Computed in row chunks of ``self`` to bound the boolean
        temporary at ``chunk_size × m × d``.
        """
        if not isinstance(other, OneHotMatrix):
            raise TypeError(
                f"match_counts needs another OneHotMatrix, got "
                f"{type(other).__name__}"
            )
        if self.n_levels != other.n_levels:
            raise ValueError(
                "match_counts requires identical feature domains; got "
                f"{self.n_levels} vs {other.n_levels}"
            )
        n, m = self.n_rows, other.n_rows
        out = np.zeros((n, m), dtype=np.float64)
        if self.n_features == 0:
            return out
        A, B = self.codes, other.codes
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            out[start:stop] = (
                A[start:stop, np.newaxis, :] == B[np.newaxis, :, :]
            ).sum(axis=2)
        return out

    def squared_distances(
        self, other: "OneHotMatrix", chunk_size: int = 512
    ) -> np.ndarray:
        """Pairwise squared Euclidean distances in one-hot space.

        Each mismatching feature contributes exactly 2 (a 1 where the
        other has 0, twice), so ``||x - z||^2 = 2 (d - matches)`` —
        the identity behind the paper's Section 5 distance analysis.
        """
        return 2.0 * (
            self.n_features - self.match_counts(other, chunk_size=chunk_size)
        )

    # ------------------------------------------------------------------
    # Column statistics (preprocessing)
    # ------------------------------------------------------------------
    def column_counts(self) -> np.ndarray:
        """Occurrences of each one-hot column, from one ``bincount``."""
        if self.n_features == 0:
            return np.zeros(0, dtype=np.float64)
        return np.bincount(
            self._flat_codes().ravel(), minlength=self.width
        ).astype(np.float64)

    def column_means(self) -> np.ndarray:
        """Mean of each one-hot column (level occurrence rates)."""
        if self.n_rows == 0:
            return np.zeros(self.width, dtype=np.float64)
        return self.column_counts() / self.n_rows

    def column_scales(self) -> np.ndarray:
        """Standard deviation of each (Bernoulli) one-hot column."""
        p = self.column_means()
        return np.sqrt(p * (1.0 - p))

    # ------------------------------------------------------------------
    # Dense escape hatch
    # ------------------------------------------------------------------
    def toarray(self) -> np.ndarray:
        """Materialise the dense one-hot equivalent.

        The single owner of the dense construction:
        ``CategoricalMatrix.onehot()`` delegates here.
        """
        out = np.zeros(self.shape, dtype=np.float64)
        if self.n_features:
            rows = np.repeat(np.arange(self.n_rows), self.n_features)
            out[rows, self._flat_codes().ravel()] = 1.0
        return out

    def __repr__(self) -> str:
        return (
            f"OneHotMatrix(n={self.n_rows}, d={self.n_features}, "
            f"width={self.width})"
        )


class FactorizedGroup:
    """One joined dimension's share of a :class:`FactorizedMatrix`.

    Parameters
    ----------
    name:
        The dimension's name (matches the schema / encoder naming so
        serving can pair groups with model-load precomputations).
    positions:
        Feature positions (indexes into the matrix's ``names``) of this
        dimension's foreign features, in feature order.
    dim_rows:
        ``(n,)`` FK-resolved dimension row per fact row.
    block:
        ``(n_dim_rows, len(positions))`` code block: column ``c`` holds
        the codes of feature ``positions[c]`` for every dimension row.
    """

    __slots__ = ("name", "positions", "dim_rows", "block")

    def __init__(
        self,
        name: str,
        positions: np.ndarray,
        dim_rows: np.ndarray,
        block: np.ndarray,
    ):
        self.name = name
        self.positions = np.asarray(positions, dtype=np.int64)
        self.dim_rows = np.asarray(dim_rows, dtype=np.int64)
        self.block = np.asarray(block, dtype=np.int64)
        if self.block.ndim != 2 or self.block.shape[1] != len(self.positions):
            raise ValueError(
                f"group {name!r} block has shape {self.block.shape}, "
                f"expected (n_dim_rows, {len(self.positions)})"
            )

    @property
    def n_dim_rows(self) -> int:
        """Distinct dimension rows the block covers, ``|D|``."""
        return self.block.shape[0]

    @property
    def nbytes(self) -> int:
        return int(
            self.positions.nbytes + self.dim_rows.nbytes + self.block.nbytes
        )

    def take_rows(self, rows: np.ndarray | slice) -> "FactorizedGroup":
        """The group restricted to a fact-row subset (block is shared)."""
        group = object.__new__(FactorizedGroup)
        group.name = self.name
        group.positions = self.positions
        group.dim_rows = self.dim_rows[rows]
        group.block = self.block
        return group

    def __repr__(self) -> str:
        return (
            f"FactorizedGroup({self.name!r}, d_R={len(self.positions)}, "
            f"n_dim_rows={self.n_dim_rows})"
        )


class FactorizedMatrix:
    """A KFK-factorized encoded shard: fact codes + per-dimension blocks.

    Where :class:`OneHotMatrix` views one gathered ``(n, d)`` code
    table, this keeps the join factorized: the per-row feature columns
    (fact features and any dimension the encoder chose to gather) as
    ``(n, d_fact)`` codes, and per blocked dimension a
    :class:`FactorizedGroup` holding the ``(n,)`` resolved dimension
    rows plus the dimension's ``(|D|, d_R)`` code block.  The column
    layout (``names`` / ``n_levels`` / ``offsets``) is identical to the
    gathered matrix's one-hot layout, so every kernel here computes the
    same value :class:`OneHotMatrix` would — it just never expands the
    blocked dimensions per fact row:

    - :meth:`matmul` runs ``O(|D|·d_R)`` per dimension over the block,
      then one ``O(n)`` gather by resolved row;
    - :meth:`rmatmul` reduces the operand to per-dimension-row totals
      with one ``O(n)`` ``bincount``, then scatters the ``(|D|,)``
      totals through the block;
    - :meth:`column_counts` multiplies per-dimension-row group *sizes*
      into the block's level counts (integer-exact);
    - :meth:`gather` is the escape hatch back to the gathered code
      table, for models that need per-row codes (Gram blocks,
      distances, tree routing, minibatches).

    Float results match :class:`OneHotMatrix` to 1e-10 (summation
    grouping differs); integer-valued results are bit-identical.  The
    per-row columns run :class:`OneHotMatrix`'s exact arithmetic, so a
    matrix with no groups matches it bit for bit.
    """

    __slots__ = (
        "names",
        "n_levels",
        "offsets",
        "fact_positions",
        "_fact_codes",
        "groups",
        "_fact_flat",
    )

    def __init__(
        self,
        names,
        n_levels,
        fact_positions: np.ndarray,
        fact_codes: np.ndarray,
        groups,
    ):
        self.names = tuple(names)
        self.n_levels = tuple(int(k) for k in n_levels)
        self.offsets = np.concatenate(
            ([0], np.cumsum(self.n_levels))
        ).astype(np.int64)
        self.fact_positions = np.asarray(fact_positions, dtype=np.int64)
        self._fact_codes = np.asarray(fact_codes, dtype=np.int64)
        self.groups = tuple(groups)
        self._fact_flat: np.ndarray | None = None
        if self.fact_codes.ndim != 2:
            raise ValueError(
                f"fact_codes must be 2-D (n, d_fact), got shape "
                f"{self.fact_codes.shape}"
            )
        if self.fact_codes.shape[1] != len(self.fact_positions):
            raise ValueError(
                f"fact_codes has {self.fact_codes.shape[1]} columns for "
                f"{len(self.fact_positions)} fact positions"
            )
        covered = np.concatenate(
            [self.fact_positions] + [g.positions for g in self.groups]
        )
        if (
            len(covered) != len(self.names)
            or len(np.unique(covered)) != len(self.names)
            or (len(covered) and (covered.min() < 0 or covered.max() >= len(self.names)))
        ):
            raise ValueError(
                "fact_positions and group positions must partition "
                f"range({len(self.names)}); got {sorted(covered.tolist())}"
            )
        n = self.fact_codes.shape[0]
        for group in self.groups:
            if group.dim_rows.shape != (n,):
                raise ValueError(
                    f"group {group.name!r} has {group.dim_rows.shape[0]} "
                    f"dim_rows, expected {n}"
                )

    def resident(self) -> "FactorizedMatrix":
        """A copy to keep across passes, owning every array it holds.

        It keeps what the kernels read: the fact columns' flat codes and
        a copy of each group's positions, resolved rows and block — a
        source may reuse or drop a shard's arrays once the next shard
        is read.  Its :attr:`fact_codes` are re-derived on each access.
        """
        view = object.__new__(FactorizedMatrix)
        view.names = self.names
        view.n_levels = self.n_levels
        view.offsets = self.offsets
        view.fact_positions = self.fact_positions.copy()
        view._fact_codes = None
        view._fact_flat = self._fact_flat_codes()
        view.groups = tuple(
            FactorizedGroup(
                group.name,
                group.positions.copy(),
                group.dim_rows.copy(),
                group.block.copy(),
            )
            for group in self.groups
        )
        return view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fact_codes(self) -> np.ndarray:
        """The ``(n, d_fact)`` codes of the per-row feature columns."""
        if self._fact_codes is None:
            return (
                self._fact_flat
                - self.offsets[self.fact_positions][np.newaxis, :]
            )
        return self._fact_codes

    @property
    def n_rows(self) -> int:
        """Number of examples (fact rows)."""
        if self._fact_codes is None:
            return self._fact_flat.shape[0]
        return self._fact_codes.shape[0]

    @property
    def n_features(self) -> int:
        """Number of categorical features across fact and dimensions."""
        return len(self.names)

    @property
    def onehot_width(self) -> int:
        """Width of the implied one-hot encoding (API parity with
        :class:`~repro.ml.encoding.CategoricalMatrix`)."""
        return int(self.offsets[-1])

    @property
    def width(self) -> int:
        """Width of the implied one-hot encoding, ``sum(n_levels)``."""
        return int(self.offsets[-1])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the implied dense matrix, ``(n, width)``."""
        return (self.n_rows, self.width)

    @property
    def nbytes(self) -> int:
        """Resident bytes: fact codes, offsets, groups, flat-code cache.

        The number to compare against the gathered layout's
        ``n·d·8``-byte code table — the factorized layout is smaller by
        roughly the dimension fan-out.
        """
        codes = self._fact_codes.nbytes if self._fact_codes is not None else 0
        flat = self._fact_flat.nbytes if self._fact_flat is not None else 0
        return int(
            codes
            + self.fact_positions.nbytes
            + self.offsets.nbytes
            + sum(g.nbytes for g in self.groups)
            + flat
        )

    def _fact_flat_codes(self) -> np.ndarray:
        """Fact codes shifted into one-hot column positions, cached."""
        if self._fact_flat is None:
            self._fact_flat = (
                self.fact_codes
                + self.offsets[self.fact_positions][np.newaxis, :]
            )
        return self._fact_flat

    def take_rows(self, rows: np.ndarray | slice) -> "FactorizedMatrix":
        """A subset of examples: fact codes and per-group dimension rows
        are sliced, the dimension blocks are shared."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
        view = object.__new__(FactorizedMatrix)
        view.names = self.names
        view.n_levels = self.n_levels
        view.offsets = self.offsets
        view.fact_positions = self.fact_positions
        view._fact_codes = self.fact_codes[rows]
        view.groups = tuple(g.take_rows(rows) for g in self.groups)
        view._fact_flat = None
        return view

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, W: np.ndarray) -> np.ndarray:
        """``X @ W`` with per-dimension work on the block, not the rows.

        The per-row part is :class:`OneHotMatrix`'s gather-sum; each
        dimension contributes ``block @ w`` evaluated once over its
        ``|D|`` rows and broadcast to the fact rows by one gather.
        """
        W = np.asarray(W, dtype=np.float64)
        if W.shape[0] != self.width:
            raise ValueError(
                f"operand has {W.shape[0]} rows, expected width {self.width}"
            )
        out = np.zeros((self.n_rows,) + W.shape[1:], dtype=np.float64)
        if len(self.fact_positions):
            flat = self._fact_flat_codes()
            if W.ndim == 1:
                out += W[flat].sum(axis=1)
            else:
                for j in range(flat.shape[1]):
                    out += W[flat[:, j]]
        for group in self.groups:
            contrib = np.zeros(
                (group.n_dim_rows,) + W.shape[1:], dtype=np.float64
            )
            for c, position in enumerate(group.positions):
                contrib += W[group.block[:, c] + self.offsets[position]]
            out += contrib[group.dim_rows]
        return out

    def rmatmul(self, V: np.ndarray) -> np.ndarray:
        """``X.T @ V`` via one ``bincount`` by dimension row per group.

        The operand collapses to per-dimension-row totals first
        (``O(n)``), then those ``(|D|,)`` totals scatter through the
        block (``O(|D|·d_R)``) — the gradient never re-touches each
        fact row's copy of its dimension features.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n_rows:
            raise ValueError(
                f"operand has {V.shape[0]} rows, expected {self.n_rows}"
            )
        if self.n_features == 0:
            return np.zeros((0,) + V.shape[1:], dtype=np.float64)
        # An explicit trailing dimension: reshape(n, -1) cannot infer
        # -1 for a 0-row operand (empty shards are legal).
        k = 1 if V.ndim == 1 else int(np.prod(V.shape[1:]))
        V2 = V.reshape(V.shape[0], k)
        out = np.zeros((self.width, V2.shape[1]), dtype=np.float64)
        d_fact = len(self.fact_positions)
        if d_fact:
            flat_all = self._fact_flat_codes().ravel()
            for column in range(V2.shape[1]):
                weights = (
                    V2[:, column]
                    if d_fact == 1
                    else np.repeat(V2[:, column], d_fact)
                )
                out[:, column] += np.bincount(
                    flat_all, weights=weights, minlength=self.width
                )
        for group in self.groups:
            totals = np.empty(
                (group.n_dim_rows, V2.shape[1]), dtype=np.float64
            )
            for column in range(V2.shape[1]):
                totals[:, column] = np.bincount(
                    group.dim_rows,
                    weights=V2[:, column],
                    minlength=group.n_dim_rows,
                )
            for c, position in enumerate(group.positions):
                offset = int(self.offsets[position])
                n_levels = self.n_levels[position]
                for column in range(V2.shape[1]):
                    out[offset : offset + n_levels, column] += np.bincount(
                        group.block[:, c],
                        weights=totals[:, column],
                        minlength=n_levels,
                    )
        return out.reshape((self.width,) + V.shape[1:])

    # ------------------------------------------------------------------
    # Column statistics (preprocessing)
    # ------------------------------------------------------------------
    def column_counts(self) -> np.ndarray:
        """Occurrences of each one-hot column from per-group sizes.

        Each dimension needs only its FK group sizes (one ``bincount``
        over the resolved rows) scattered through the block — integer
        arithmetic, bit-identical to the gathered layout's full scan.
        """
        out = np.zeros(self.width, dtype=np.float64)
        if self.n_features == 0:
            return np.zeros(0, dtype=np.float64)
        if len(self.fact_positions):
            out += np.bincount(
                self._fact_flat_codes().ravel(), minlength=self.width
            )
        for group in self.groups:
            sizes = np.bincount(
                group.dim_rows, minlength=group.n_dim_rows
            ).astype(np.float64)
            for c, position in enumerate(group.positions):
                offset = int(self.offsets[position])
                n_levels = self.n_levels[position]
                out[offset : offset + n_levels] += np.bincount(
                    group.block[:, c], weights=sizes, minlength=n_levels
                )
        return out

    def column_means(self) -> np.ndarray:
        """Mean of each one-hot column (level occurrence rates)."""
        if self.n_rows == 0:
            return np.zeros(self.width, dtype=np.float64)
        return self.column_counts() / self.n_rows

    def column_scales(self) -> np.ndarray:
        """Standard deviation of each (Bernoulli) one-hot column."""
        p = self.column_means()
        return np.sqrt(p * (1.0 - p))

    # ------------------------------------------------------------------
    # Gathered escape hatch
    # ------------------------------------------------------------------
    def gather(self) -> CategoricalMatrix:
        """Materialise the gathered ``(n, d)`` categorical matrix.

        The ``O(n·d_R)`` per-dimension gather the factorized kernels
        exist to avoid — only consumers that read raw codes or take
        minibatch rows (trees, k-NN, SVC, the MLP) and the dense
        conversion pay it.
        """
        codes = np.empty((self.n_rows, self.n_features), dtype=np.int64)
        if len(self.fact_positions):
            codes[:, self.fact_positions] = self.fact_codes
        for group in self.groups:
            codes[:, group.positions] = group.block[group.dim_rows]
        return CategoricalMatrix(
            codes, self.n_levels, self.names, validate=False
        )

    def __repr__(self) -> str:
        return (
            f"FactorizedMatrix(n={self.n_rows}, d={self.n_features}, "
            f"d_fact={len(self.fact_positions)}, "
            f"groups={[g.name for g in self.groups]}, width={self.width})"
        )


# ----------------------------------------------------------------------
# Layout dispatch
# ----------------------------------------------------------------------
def encode_features(
    X: "CategoricalMatrix | FactorizedMatrix",
) -> "OneHotMatrix | FactorizedMatrix":
    """The kernel operand for an encoded shard of either layout.

    A :class:`FactorizedMatrix` is its own operand; a gathered
    :class:`~repro.ml.encoding.CategoricalMatrix` gets the implicit
    :class:`OneHotMatrix` view.  Every numeric model encodes through
    this one function, which is what lets tests run the dense one-hot
    oracle by substituting it.
    """
    if isinstance(X, FactorizedMatrix):
        return X
    return OneHotMatrix(X)


def gathered(X: "CategoricalMatrix | FactorizedMatrix") -> CategoricalMatrix:
    """The gathered code table of an encoded shard of either layout.

    For models that read raw codes or take minibatch rows (a minibatch
    would otherwise pay a whole ``|D|``-row block per step): the same
    per-row gather the encoder performs for a dimension it does not
    block.
    """
    if isinstance(X, FactorizedMatrix):
        return X.gather()
    return X


def matmul(
    A: "OneHotMatrix | FactorizedMatrix | np.ndarray", W: np.ndarray
) -> np.ndarray:
    """``A @ W`` for any layout's operand."""
    if isinstance(A, (OneHotMatrix, FactorizedMatrix)):
        return A.matmul(W)
    return A @ W


def rmatmul(
    A: "OneHotMatrix | FactorizedMatrix | np.ndarray", V: np.ndarray
) -> np.ndarray:
    """``A.T @ V`` for any layout's operand."""
    if isinstance(A, (OneHotMatrix, FactorizedMatrix)):
        return A.rmatmul(V)
    return A.T @ V


def take_rows(
    A: "OneHotMatrix | FactorizedMatrix | np.ndarray", rows: np.ndarray | slice
) -> "OneHotMatrix | FactorizedMatrix | np.ndarray":
    """Row subset of any layout's operand."""
    if isinstance(A, (OneHotMatrix, FactorizedMatrix)):
        return A.take_rows(rows)
    return A[rows]


def resident(
    A: "OneHotMatrix | FactorizedMatrix | np.ndarray",
) -> "OneHotMatrix | FactorizedMatrix | np.ndarray":
    """Any layout's operand in a form to keep across passes, owning its
    arrays.  A dense operand (the test oracle's) is already a fresh
    array of its own and is kept as it is."""
    if isinstance(A, (OneHotMatrix, FactorizedMatrix)):
        return A.resident()
    return A
