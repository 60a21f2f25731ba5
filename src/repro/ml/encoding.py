"""Feature-matrix assembly and encodings.

Every learner in :mod:`repro.ml` consumes a :class:`CategoricalMatrix`:
an ``(n, d)`` array of integer codes plus the closed domain size of each
feature.  Tree and Naive Bayes models operate on codes directly; numeric
models (SVM, MLP, logistic regression, k-NN) use the one-hot encoding
the paper prescribes for such models, through one of two execution
paths:

- **Implicit (default for all numeric models)** —
  :meth:`CategoricalMatrix.onehot_view` wraps the codes in a
  :class:`repro.ml.sparse.OneHotMatrix` (the kernel operand
  :class:`~repro.ml.sparse.FactorizedMatrix` with no blocks), which
  answers every product, gradient, Gram block and distance the models
  need with per-feature gathers and scatter-adds over the codes.  The
  dense ``(n, Σ levels)`` matrix is never allocated, so cost scales
  with ``n × d`` instead of ``n × Σ levels`` — the difference between
  feasible and infeasible for foreign keys with domains in the
  thousands to millions.
- **Dense (test oracle)** — :meth:`CategoricalMatrix.onehot`
  materialises the full float64 one-hot matrix.  Kept as the reference
  implementation: tests substitute
  :func:`repro.ml.sparse.encode_features` to run the models on it and
  assert the two paths agree to 1e-10, and small-domain callers that
  genuinely want an array (e.g. ad-hoc analysis) can still get one.

Everything inside :mod:`repro.ml` runs the implicit path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.table import Table


def check_code_ranges(
    codes: np.ndarray, n_levels: Sequence[int], names: Sequence[str]
) -> None:
    """Validate every column of ``codes`` against its closed domain.

    A single vectorised ``min(axis=0)``/``max(axis=0)`` pass over the
    whole matrix, rather than a Python loop over columns — the check
    runs on every matrix construction, including the serving hot path.
    """
    if codes.shape[0] == 0 or codes.shape[1] == 0:
        return
    mins = codes.min(axis=0)
    maxs = codes.max(axis=0)
    bad = np.flatnonzero((mins < 0) | (maxs >= np.asarray(n_levels, dtype=np.int64)))
    if bad.size:
        j = int(bad[0])
        raise SchemaError(
            f"feature {names[j]!r}: codes out of range for {n_levels[j]} levels"
        )


def one_hot(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """One-hot encode a 1-D code vector into an ``(n, n_levels)`` float matrix."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise SchemaError(f"codes must be 1-D, got {codes.ndim}-D")
    check_code_ranges(codes[:, np.newaxis], (n_levels,), ("codes",))
    out = np.zeros((codes.shape[0], n_levels), dtype=np.float64)
    out[np.arange(codes.shape[0]), codes] = 1.0
    return out


class CategoricalMatrix:
    """An integer-coded categorical feature matrix with closed domains.

    Parameters
    ----------
    codes:
        ``(n, d)`` integer array; column ``j`` holds codes in
        ``[0, n_levels[j])``.
    n_levels:
        Domain size of each feature (the *closed* domain — levels need
        not all occur in the data).
    names:
        Feature names, parallel to columns.
    validate:
        Whether to range-check the codes against the domains.  Callers
        that hand over codes already validated against the same closed
        domains (row slices of a validated matrix, serving-time gathers
        from validated tables) pass ``False`` to skip the O(n·d) scan.
    """

    def __init__(
        self,
        codes: np.ndarray,
        n_levels: Sequence[int],
        names: Sequence[str],
        validate: bool = True,
    ):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise SchemaError(f"codes must be 2-D, got {codes.ndim}-D")
        n_levels = tuple(int(k) for k in n_levels)
        names = tuple(names)
        if len(n_levels) != codes.shape[1] or len(names) != codes.shape[1]:
            raise SchemaError(
                f"inconsistent widths: codes has {codes.shape[1]} columns, "
                f"{len(n_levels)} level counts, {len(names)} names"
            )
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        for j, k in enumerate(n_levels):
            if k <= 0:
                raise SchemaError(f"feature {names[j]!r}: domain size must be positive")
        if validate:
            check_code_ranges(codes, n_levels, names)
        self.codes = codes
        self.n_levels = n_levels
        self.names = names
        self._onehot_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: Table, features: Sequence[str]) -> "CategoricalMatrix":
        """Assemble a matrix from the named columns of a relational table."""
        if not features:
            return cls(np.zeros((table.n_rows, 0), dtype=np.int64), (), ())
        columns = [table.column(name) for name in features]
        codes = np.stack([c.codes for c in columns], axis=1)
        return cls(codes, [c.n_levels for c in columns], features)

    @classmethod
    def empty(cls, n_rows: int) -> "CategoricalMatrix":
        """A matrix with ``n_rows`` rows and no features."""
        return cls(np.zeros((n_rows, 0), dtype=np.int64), (), ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of examples."""
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        """Number of categorical features."""
        return self.codes.shape[1]

    @property
    def onehot_width(self) -> int:
        """Width of the one-hot encoding (sum of domain sizes)."""
        return int(sum(self.n_levels))

    @property
    def nbytes(self) -> int:
        """Resident bytes: the codes plus any materialised one-hot cache.

        Part of the ``shard_working_set_bytes`` the streaming scale
        benchmark records — what training actually pins per shard, as
        opposed to the ``n × onehot_width`` a dense encoding would cost.
        """
        cached = self._onehot_cache.nbytes if self._onehot_cache is not None else 0
        return int(self.codes.nbytes + cached)

    def column(self, j: int) -> np.ndarray:
        """The code vector of feature ``j``."""
        return self.codes[:, j]

    def index_of(self, name: str) -> int:
        """Position of the feature called ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(
                f"no feature {name!r}; available: {list(self.names)}"
            ) from None

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def onehot(self, materialize: bool = False) -> np.ndarray:
        """The dense one-hot encoding, ``(n, sum(n_levels))``.

        Column blocks follow feature order; block ``j`` has width
        ``n_levels[j]``.  Because domains are closed, the encoding of any
        valid code vector is defined even for levels unseen in training —
        the property that lets SVMs and k-NN sidestep the unseen-level
        crashes that categorical tree implementations suffer
        (paper, Section 6.2).

        By default the array is recomputed on each call: a cached copy
        would pin ``n × sum(n_levels)`` float64 bytes for the lifetime of
        the matrix, which for large FK domains dwarfs the codes
        themselves.  Pass ``materialize=True`` to opt into caching when
        repeated dense access is genuinely wanted.  Models avoid this
        path entirely via :meth:`onehot_view`.
        """
        if self._onehot_cache is not None:
            return self._onehot_cache
        # The column layout is owned by OneHotMatrix; materialising is
        # just its scatter, so the two paths cannot drift apart.
        out = self.onehot_view().toarray()
        if materialize:
            self._onehot_cache = out
        return out

    def onehot_view(self) -> "repro.ml.sparse.OneHotMatrix":  # noqa: F821
        """An implicit one-hot view that never allocates the dense matrix.

        The view answers matrix products, gradient scatters, Gram blocks
        and squared distances via gathers over the codes; see
        :mod:`repro.ml.sparse`.
        """
        from repro.ml.sparse import OneHotMatrix

        return OneHotMatrix(self)

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def take_rows(self, rows: np.ndarray) -> "CategoricalMatrix":
        """Select examples by index array or boolean mask."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        # Row subsets of validated codes need no re-validation.
        return CategoricalMatrix(
            self.codes[rows], self.n_levels, self.names, validate=False
        )

    def select_features(self, which: Sequence[int] | Sequence[str]) -> "CategoricalMatrix":
        """Project onto a subset of features, by index or by name."""
        indices = [
            self.index_of(w) if isinstance(w, str) else int(w) for w in which
        ]
        for j in indices:
            if not 0 <= j < self.n_features:
                raise SchemaError(f"feature index {j} out of range")
        return CategoricalMatrix(
            self.codes[:, indices],
            [self.n_levels[j] for j in indices],
            [self.names[j] for j in indices],
            validate=False,
        )

    def drop_features(self, which: Sequence[int] | Sequence[str]) -> "CategoricalMatrix":
        """Project onto the complement of a feature subset."""
        drop = {
            self.index_of(w) if isinstance(w, str) else int(w) for w in which
        }
        keep = [j for j in range(self.n_features) if j not in drop]
        return self.select_features(keep)

    def replace_column(
        self, j: int, codes: np.ndarray, n_levels: int, name: str | None = None
    ) -> "CategoricalMatrix":
        """Return a copy with feature ``j`` swapped for a recoded version.

        Used by foreign-key domain compression, which maps an FK column
        onto a smaller domain.
        """
        new_codes = self.codes.copy()
        new_codes[:, j] = codes
        levels = list(self.n_levels)
        levels[j] = n_levels
        names = list(self.names)
        if name is not None:
            names[j] = name
        return CategoricalMatrix(new_codes, levels, names)

    def __repr__(self) -> str:
        return (
            f"CategoricalMatrix(n={self.n_rows}, d={self.n_features}, "
            f"onehot_width={self.onehot_width})"
        )
