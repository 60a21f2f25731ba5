"""Sparse categorical kernels: one implicit one-hot operand.

A one-hot encoded categorical matrix has exactly one nonzero per feature
per row, so every product the numeric models compute against it is a
gather or a scatter over the integer codes — multiplying the explicit
zeros is pure waste.  :class:`FactorizedMatrix` is the read-only kernel
operand of an encoded shard.  It answers the products the models need
without ever allocating the dense ``(n, sum(n_levels))`` array:

- :meth:`FactorizedMatrix.matmul` — ``X @ W`` as row-gathers of ``W``
  summed across features (forward passes, decision functions);
- :meth:`FactorizedMatrix.rmatmul` — ``X.T @ V`` as weighted
  ``bincount`` scatters into the one-hot columns (gradients,
  ``lambda_max`` screening).

Cost is ``O(n·d)`` per pass instead of ``O(n · sum(n_levels))`` — for
the paper's foreign keys with domains in the thousands to millions this
is the difference between training being dominated by multiplying zeros
and running at code-array speed.

The operand also factorizes the KFK *join* out of the hot path.  A
gathered code table stores every fact row's copy of its dimension row,
so every kernel pass re-touches ``O(n·d)`` codes even though a joined
dimension has only ``|D|`` distinct rows.  The operand keeps the
per-row code columns as ``(n, d_fact)`` plus, per blocked dimension, one
``(n,)`` FK-resolved row vector and one ``(|D|, d_R)`` code block;
kernels run the per-dimension work once over the block (``O(|D|·d_R)``)
and touch the fact rows only through a single gather or ``bincount`` by
FK code (``O(n)`` per dimension).  Total per pass: ``O(n + |D|·d_R)``
instead of ``O(n·d)`` — the win grows with the ``n/|D|`` fan-out,
exactly the regime where the paper's join-avoidance question bites.
Each group also keeps its block once as a C-ordered ``(d_R, |D|)``
array of one-hot column indexes (:meth:`FactorizedGroup.flat_block`),
so the block work is one gather of the operand (``matmul``) or one
``bincount`` (``rmatmul``) per dimension, not one numpy call per block
column.

A gathered shard's operand is :class:`OneHotMatrix`, the
:class:`FactorizedMatrix` with no blocks: every feature is a per-row
column, so both layouts run the one copy of each kernel.  It adds what
needs every feature's per-row codes:

- :meth:`OneHotMatrix.match_counts` / :meth:`OneHotMatrix.squared_distances`
  — Gram blocks and squared Euclidean distances via code-match counts:
  for one-hot blocks ``x·z`` equals the number of matching features and
  ``||x - z||^2 = 2 (d - matches)`` (k-NN, SVM kernels).  Features with
  few levels are counted by one float32 GEMM of their one-hot columns,
  each wide one (a foreign key) by one code-equality pass; the counts
  are small integers, so the split is exact (see
  :data:`GEMM_MAX_LEVELS`);
- :meth:`OneHotMatrix.toarray` — the dense one-hot encoding.

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

#: Widest feature (in levels) that :meth:`OneHotMatrix.match_counts`
#: counts through its one-hot GEMM; wider features get one equality pass
#: each.  A level costs the GEMM ~3-5 us at 800 x 800 and one equality
#: pass costs ~0.4 ms (800 x 400) to ~1 ms (800 x 800) on a 2-CPU host,
#: a crossover of ~90-140 levels for a test-by-train block and ~220 for
#: a training Gram.  Either side of it the counts are identical.
GEMM_MAX_LEVELS = 128


#: Row length from which numpy sums a row pairwise, eight partial sums
#: at a time; a shorter row it adds left to right from zero.
PAIRWISE_MIN = 8


def _gather_sum(W: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``out[i] = sum_j W[flat[i, j]]`` for ``flat`` of shape ``(n, d)``.

    A 1-D ``W`` with at least :data:`PAIRWISE_MIN` columns gathers once
    and lets ``sum(axis=1)`` add each row pairwise.  Otherwise the
    columns are added in order from zeros, one gather each — for a 1-D
    ``W`` exactly the order ``sum(axis=1)`` uses on a short row, at one
    vectorized add per column instead of one reduction per row.
    """
    if W.ndim == 1 and flat.shape[1] >= PAIRWISE_MIN:
        return W[flat].sum(axis=1)
    out = np.zeros((flat.shape[0],) + W.shape[1:], dtype=np.float64)
    for j in range(flat.shape[1]):
        out += W[flat[:, j]]
    return out


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

    __slots__ = (
        "name", "positions", "dim_rows", "_block", "_flat", "_span", "_offsets"
    )

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
        self._block = np.asarray(block, dtype=np.int64)
        self._flat: np.ndarray | None = None
        self._span: slice | None = None
        self._offsets: np.ndarray | None = None
        if self._block.ndim != 2 or self._block.shape[1] != len(self.positions):
            raise ValueError(
                f"group {name!r} block has shape {self._block.shape}, "
                f"expected (n_dim_rows, {len(self.positions)})"
            )

    @property
    def block(self) -> np.ndarray:
        """The ``(|D|, d_R)`` code block (re-derived on a resident group)."""
        if self._block is None:
            return (self._flat - self._starts(self._offsets)).T
        return self._block

    @property
    def n_dim_rows(self) -> int:
        """Distinct dimension rows the block covers, ``|D|``."""
        if self._block is None:
            return self._flat.shape[1]
        return self._block.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident bytes: positions, resolved rows, block, flat block."""
        held = [self.positions, self.dim_rows, self._block, self._flat]
        return int(sum(array.nbytes for array in held if array is not None))

    def span(self, offsets: np.ndarray) -> slice:
        """The one-hot columns from the group's first feature to its last.

        The encoder keeps a dimension's features adjacent, so the span
        is exactly the group's columns there; in general it may cover
        other features' columns too, which the kernels leave alone.
        Kept after first use, like :meth:`flat_block`.
        """
        if self._span is None:
            self._span = (
                slice(
                    int(offsets[self.positions.min()]),
                    int(offsets[self.positions.max() + 1]),
                )
                if len(self.positions)
                else slice(0, 0)
            )
        return self._span

    def _starts(self, offsets: np.ndarray) -> np.ndarray:
        """Each block column's first one-hot column, from the span's start."""
        starts = offsets[self.positions] - self.span(offsets).start
        return starts[:, np.newaxis]

    def flat_block(self, offsets: np.ndarray) -> np.ndarray:
        """The block as kernel columns: a C-ordered ``(d_R, |D|)`` array.

        Row ``c`` holds feature ``positions[c]``'s codes shifted to its
        one-hot columns, counted from :meth:`span`'s start — one gather
        or one ``bincount`` over it reads every block column at once.
        Built on first use and kept; ``offsets`` are the matrix's.
        """
        if self._flat is None:
            self._offsets = offsets
            # C order keeps each block column contiguous for the kernels'
            # per-column adds (the transpose alone would be F-ordered).
            self._flat = np.add(
                self._block.T, self._starts(offsets), order="C"
            )
        return self._flat

    def resident(self, offsets: np.ndarray) -> "FactorizedGroup":
        """A copy to keep across passes, holding the flat block only.

        Like :meth:`FactorizedMatrix.resident`: the flat block is a
        fresh array, so the copy borrows nothing from the source's
        block, and its :attr:`block` is re-derived on each access.
        """
        group = object.__new__(FactorizedGroup)
        group.name = self.name
        group.positions = self.positions.copy()
        group.dim_rows = self.dim_rows.copy()
        group._flat = self.flat_block(offsets)
        group._span = self._span
        group._offsets = offsets
        group._block = None
        return group

    def take_rows(self, rows: np.ndarray | slice) -> "FactorizedGroup":
        """The group restricted to a fact-row subset (blocks are shared)."""
        group = object.__new__(FactorizedGroup)
        group.name = self.name
        group.positions = self.positions
        group.dim_rows = self.dim_rows[rows]
        group._block = self._block
        group._flat = self._flat
        group._span = self._span
        group._offsets = self._offsets
        return group

    def __repr__(self) -> str:
        return (
            f"FactorizedGroup({self.name!r}, d_R={len(self.positions)}, "
            f"n_dim_rows={self.n_dim_rows})"
        )


class FactorizedMatrix:
    """An encoded shard's one-hot operand: per-row codes + per-dimension blocks.

    The per-row feature columns (fact features and any dimension the
    encoder chose to gather) are ``(n, d_fact)`` codes; each blocked
    dimension is a :class:`FactorizedGroup` holding the ``(n,)``
    resolved dimension rows plus the dimension's ``(|D|, d_R)`` code
    block.  The column layout (``names`` / ``n_levels`` / ``offsets``)
    is the gathered matrix's one-hot layout, so every kernel computes
    the value the gathered shard's operand would — it just never
    expands the blocked dimensions per fact row:

    - :meth:`matmul` runs ``O(|D|·d_R)`` per dimension over the block,
      then one ``O(n)`` gather by resolved row;
    - :meth:`rmatmul` reduces the operand to per-dimension-row totals
      with one ``O(n)`` ``bincount``, then scatters the ``(|D|,)``
      totals through the block;
    - :meth:`gather` is the escape hatch back to the gathered code
      table, for models that need per-row codes (Gram blocks,
      distances, tree routing, minibatches).

    Float results match the gathered shard's to 1e-10 (summation
    grouping differs); integer-valued results are bit-identical.  A
    gathered shard's operand is the matrix with no groups,
    :class:`OneHotMatrix`, whose kernels run the per-row part alone.
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
        # Sorted, not np.unique: a gathered shard's view is built per
        # call, and np.unique's first call imports numpy.ma (~17 ms on
        # numpy 2.4, 2-CPU host).
        covered = np.sort(
            np.concatenate([self.fact_positions] + [g.positions for g in self.groups])
        )
        if not np.array_equal(covered, np.arange(len(self.names))):
            raise ValueError(
                "fact_positions and group positions must partition "
                f"range({len(self.names)}); got {covered.tolist()}"
            )
        n = self.fact_codes.shape[0]
        for group in self.groups:
            if group.dim_rows.shape != (n,):
                raise ValueError(
                    f"group {group.name!r} has {group.dim_rows.shape[0]} "
                    f"dim_rows, expected {n}"
                )

    def _view(self, fact_positions, fact_codes, fact_flat, groups):
        """A matrix of this type over the same columns, holding these arrays."""
        view = object.__new__(type(self))
        view.names = self.names
        view.n_levels = self.n_levels
        view.offsets = self.offsets
        view.fact_positions = fact_positions
        view._fact_codes = fact_codes
        view._fact_flat = fact_flat
        view.groups = groups
        return view

    def resident(self) -> "FactorizedMatrix":
        """A copy to keep across passes, owning every array it holds.

        It keeps what the kernels read: the per-row columns' flat codes
        and each group's flat block, plus copies of the groups' positions
        and resolved rows — a source may reuse or drop a shard's arrays
        once the next shard is read.  Its :attr:`fact_codes` and its
        groups' blocks are re-derived on each access.
        """
        return self._view(
            self.fact_positions.copy(),
            None,
            self._fact_flat_codes(),
            tuple(group.resident(self.offsets) for group in self.groups),
        )

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
        """Resident bytes: per-row codes, positions, offsets, groups and
        the flat-code cache.

        Part of the ``shard_working_set_bytes`` the streaming scale
        benchmark records; compare against ``n_rows * width * 8`` for
        the dense encoding this operand stands in for, or the gathered
        layout's ``n·d·8``-byte code table — a blocked layout is smaller
        by roughly the dimension fan-out.
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
        """Per-row codes shifted into one-hot column positions, cached."""
        if self._fact_flat is None:
            self._fact_flat = (
                self.fact_codes
                + self.offsets[self.fact_positions][np.newaxis, :]
            )
        return self._fact_flat

    def take_rows(self, rows: np.ndarray | slice) -> "FactorizedMatrix":
        """A subset of examples (index array, mask or slice): per-row
        codes and per-group dimension rows are sliced, the dimension
        blocks are shared."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
        return self._view(
            self.fact_positions,
            self.fact_codes[rows],
            None,
            tuple(g.take_rows(rows) for g in self.groups),
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, W: np.ndarray) -> np.ndarray:
        """``X @ W`` for ``W`` of shape ``(width,)`` or ``(width, k)``.

        Each per-row column adds one gathered entry (or row) of ``W``:
        ``out[i] = sum_j W[offsets[j] + codes[i, j]]``.  Each dimension
        contributes ``block @ w`` evaluated once over its ``|D|`` rows —
        one gather of ``W`` by the flat block, its columns added in
        order — and broadcast to the fact rows by one gather.
        """
        W = np.asarray(W, dtype=np.float64)
        if W.shape[0] != self.width:
            raise ValueError(
                f"operand has {W.shape[0]} rows, expected width {self.width}"
            )
        out = _gather_sum(W, self._fact_flat_codes())
        for group in self.groups:
            columns = W[group.span(self.offsets)][group.flat_block(self.offsets)]
            contrib = np.zeros(columns.shape[1:], dtype=np.float64)
            for column in columns:
                contrib += column
            out += contrib[group.dim_rows]
        return out

    def rmatmul(self, V: np.ndarray) -> np.ndarray:
        """``X.T @ V`` for ``V`` of shape ``(n,)`` or ``(n, k)``: one
        :meth:`_rmatvec` per operand column."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n_rows:
            raise ValueError(
                f"operand has {V.shape[0]} rows, expected {self.n_rows}"
            )
        if V.ndim == 1:
            return self._rmatvec(V)
        # An explicit trailing dimension: reshape(n, -1) cannot infer
        # -1 for a 0-row operand (empty shards are legal).
        V2 = V.reshape(V.shape[0], int(np.prod(V.shape[1:])))
        out = np.empty((self.width, V2.shape[1]), dtype=np.float64)
        for column in range(V2.shape[1]):
            out[:, column] = self._rmatvec(V2[:, column])
        return out.reshape((self.width,) + V.shape[1:])

    def _rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``X.T @ v`` for one ``(n,)`` operand column.

        The per-row columns scatter each example's value into the one-hot
        columns its codes select: one weighted ``bincount`` (``np.add.at``
        is an order of magnitude slower on this shape).  Each dimension
        first collapses ``v`` to per-dimension-row totals (``O(n)``), then
        scatters those ``(|D|,)`` totals through the flat block in one
        more ``bincount`` over the group's one-hot span (``O(|D|·d_R)``) —
        the gradient never re-touches each fact row's copy of its
        dimension features.
        """
        d_fact = len(self.fact_positions)
        if d_fact and len(v):  # a bincount over no rows comes back int64
            # One-hot blocks are disjoint per feature, so every slot sums
            # its rows in row order, as a per-feature scatter would.  The
            # bincount fills every slot, so it is the output rather than
            # an add to zeros: the same bits, as a bincount never yields
            # -0.0.
            out = np.bincount(
                self._fact_flat_codes().ravel(),
                weights=v if d_fact == 1 else np.repeat(v, d_fact),
                minlength=self.width,
            )
        else:
            out = np.zeros(self.width, dtype=np.float64)
        for group in self.groups:
            span = group.span(self.offsets)
            totals = np.bincount(
                group.dim_rows, weights=v, minlength=group.n_dim_rows
            )
            # Block columns own disjoint one-hot columns, so each slot
            # sums its rows in row order, as one bincount per block
            # column did; slots of other features in the span get 0.
            out[span] += np.bincount(
                group.flat_block(self.offsets).ravel(),
                weights=np.tile(totals, len(group.positions)),
                minlength=span.stop - span.start,
            )
        return out

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
            f"{type(self).__name__}(n={self.n_rows}, d={self.n_features}, "
            f"d_fact={len(self.fact_positions)}, "
            f"groups={[g.name for g in self.groups]}, width={self.width})"
        )


class OneHotMatrix(FactorizedMatrix):
    """An implicit view of ``CategoricalMatrix.onehot()``: the
    :class:`FactorizedMatrix` with no blocks.

    Every feature is a per-row column (``fact_positions = arange(d)``),
    so the inherited kernels run their per-row part alone, and
    :meth:`take_rows` and :meth:`resident` return a ``OneHotMatrix``.
    It adds the kernels that read every feature's per-row codes.

    Parameters
    ----------
    source:
        The categorical matrix to view.  The codes are shared, not
        copied; the view is read-only.
    """

    __slots__ = ()

    def __init__(self, source: CategoricalMatrix):
        super().__init__(
            source.names,
            source.n_levels,
            np.arange(source.n_features),
            source.codes,
            (),
        )

    def __setstate__(self, state) -> None:
        """Also load a view pickled by 9.x (an SVC artifact's support
        vectors): slots ``_codes``, ``n_levels``, ``offsets`` and
        ``_flat``, and no feature names, so the features are numbered."""
        slots = state[1]
        if "_codes" in slots:
            codes, flat = slots["_codes"], slots["_flat"]
            d = (flat if codes is None else codes).shape[1]
            slots = {
                "names": tuple(f"x{j}" for j in range(d)),
                "n_levels": slots["n_levels"],
                "offsets": slots["offsets"],
                "fact_positions": np.arange(d, dtype=np.int64),
                "_fact_codes": codes,
                "groups": (),
                "_fact_flat": flat,
            }
        for name, value in slots.items():
            setattr(self, name, value)

    @property
    def codes(self) -> np.ndarray:
        """The ``(n, d)`` integer codes."""
        return self.fact_codes

    def match_counts(self, other: "OneHotMatrix") -> np.ndarray:
        """Pairwise counts of matching features — the linear-kernel Gram.

        For one-hot blocks ``x_i · z_j`` is exactly the number of
        features on which the code vectors agree, so this *is*
        ``self.onehot() @ other.onehot().T``.  It is computed in two
        parts that add into one float32 ``(n, m)`` count array:

        - features with at most :data:`GEMM_MAX_LEVELS` levels go
          through one float32 GEMM of their one-hot encodings (built
          once when ``other is self``, as for a training Gram);
        - each wider feature (in the paper's data, the foreign keys)
          adds one ``np.equal`` pass over its code columns.

        Every product and partial sum is an integer no larger than
        ``d``, exact in float32 while ``d < 2**24``, so the counts do
        not depend on BLAS's summation order; they are cast to float64
        once, equal bit for bit to counting equal codes.
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
        counts = np.zeros((self.n_rows, other.n_rows), dtype=np.float32)
        narrow = np.array(
            [k <= GEMM_MAX_LEVELS for k in self.n_levels], dtype=bool
        )
        if narrow.any():
            left = self._narrow_onehot(narrow)
            right = left if other is self else other._narrow_onehot(narrow)
            np.matmul(left, right.T, out=counts)
        wide = np.flatnonzero(~narrow)
        if wide.size:
            A, B = self.codes, other.codes
            equal = np.empty(counts.shape, dtype=bool)
            for j in wide:
                np.equal(A[:, j, np.newaxis], B[np.newaxis, :, j], out=equal)
                counts += equal
        return counts.astype(np.float64)

    def _narrow_onehot(self, narrow: np.ndarray) -> np.ndarray:
        """The float32 one-hot encoding of the features ``narrow`` selects."""
        levels = np.asarray(self.n_levels, dtype=np.int64)[narrow]
        offsets = np.concatenate(([0], np.cumsum(levels[:-1])))
        rows = np.arange(self.n_rows)[:, np.newaxis]
        out = np.zeros((self.n_rows, int(levels.sum())), dtype=np.float32)
        out[rows, self.codes[:, narrow] + offsets] = 1.0
        return out

    def squared_distances(self, other: "OneHotMatrix") -> np.ndarray:
        """Pairwise squared Euclidean distances in one-hot space.

        Each mismatching feature contributes exactly 2 (a 1 where the
        other has 0, twice), so ``||x - z||^2 = 2 (d - matches)`` —
        the identity behind the paper's Section 5 distance analysis.
        """
        return 2.0 * (self.n_features - self.match_counts(other))

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
            out[rows, self._fact_flat_codes().ravel()] = 1.0
        return out


# ----------------------------------------------------------------------
# Layout dispatch
# ----------------------------------------------------------------------
def encode_features(X: "CategoricalMatrix | FactorizedMatrix") -> FactorizedMatrix:
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


def matmul(A: "FactorizedMatrix | np.ndarray", W: np.ndarray) -> np.ndarray:
    """``A @ W`` for any layout's operand."""
    if isinstance(A, FactorizedMatrix):
        return A.matmul(W)
    return A @ W


def rmatmul(A: "FactorizedMatrix | np.ndarray", V: np.ndarray) -> np.ndarray:
    """``A.T @ V`` for any layout's operand."""
    if isinstance(A, FactorizedMatrix):
        return A.rmatmul(V)
    return A.T @ V


def take_rows(
    A: "FactorizedMatrix | np.ndarray", rows: np.ndarray | slice
) -> "FactorizedMatrix | np.ndarray":
    """Row subset of any layout's operand."""
    if isinstance(A, FactorizedMatrix):
        return A.take_rows(rows)
    return A[rows]


def resident(A: "FactorizedMatrix | np.ndarray") -> "FactorizedMatrix | np.ndarray":
    """Any layout's operand in a form to keep across passes, owning its
    arrays.  A dense operand (the test oracle's) is already a fresh
    array of its own and is kept as it is."""
    if isinstance(A, FactorizedMatrix):
        return A.resident()
    return A
