"""Projected key-foreign-key equi-joins.

The paper's full training table is ``T ← π(R ⋈_{RID=FK} S)`` — the fact
table with each dimension's foreign features appended via its foreign key.
Because a :class:`~repro.relational.schema.StarSchema` requires the FK and
RID columns to share a single :class:`~repro.relational.column.Domain`,
the join reduces to an index lookup: build a code→row map for the
dimension key, then gather each foreign-feature column at the fact's FK
codes.  This is a hash join with the hash table precomputed by encoding.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ReferentialIntegrityError, SchemaError
from repro.relational.column import CategoricalColumn
from repro.relational.schema import StarSchema
from repro.relational.table import Table


def dimension_row_index(schema: StarSchema, name: str) -> np.ndarray:
    """Map each dimension-key code to its row position in the dimension.

    Entries for codes that never occur in the dimension are ``-1``;
    :func:`resolve_dimension_rows` turns a lookup that lands on one into
    a loud :class:`ReferentialIntegrityError`.  The shared encoder
    (:mod:`repro.data.encoder`) caches these index arrays so
    per-request KFK lookups are O(1) gathers instead of re-joins.
    """
    table = schema.dimension(name)
    rid = table.column(schema.constraint(name).rid_column)
    index = np.full(len(rid.domain), -1, dtype=np.int64)
    index[rid.codes] = np.arange(len(rid.codes), dtype=np.int64)
    return index


def resolve_dimension_rows(
    schema: StarSchema,
    name: str,
    fk_codes: np.ndarray,
    row_of_code: np.ndarray | None = None,
) -> np.ndarray:
    """Gather dimension row positions for a vector of foreign-key codes.

    Raises
    ------
    ReferentialIntegrityError
        If any foreign-key code has no matching dimension row.  The
        message names the dangling key labels so a serving-time
        referential-integrity violation is immediately diagnosable.
    """
    if row_of_code is None:
        row_of_code = dimension_row_index(schema, name)
    fk_codes = np.asarray(fk_codes, dtype=np.int64)
    invalid = (fk_codes < 0) | (fk_codes >= row_of_code.size)
    if invalid.any():
        bad = np.unique(fk_codes[invalid])
        raise ReferentialIntegrityError(
            f"dimension {name!r}: foreign-key codes {bad[:5].tolist()} are "
            f"outside the key domain of size {row_of_code.size}"
        )
    dim_rows = row_of_code[fk_codes]
    missing = dim_rows < 0
    if missing.any():
        dangling = np.unique(fk_codes[missing])
        rid = schema.constraint(name).rid_column
        domain = schema.dimension(name).column(rid).domain
        labels = domain.decode(dangling[:5])
        raise ReferentialIntegrityError(
            f"dimension {name!r}: {dangling.size} foreign-key value(s) have "
            f"no dimension row, e.g. {labels}; the closed-domain assumption "
            f"(Section 2.2) requires every FK value to resolve"
        )
    return dim_rows


def kfk_join(schema: StarSchema, name: str, fact: Table | None = None) -> Table:
    """Join one dimension's foreign features onto the fact table.

    Parameters
    ----------
    schema:
        The star schema holding the tables and the KFK constraint.
    name:
        Which dimension to join in.
    fact:
        The table to extend; defaults to ``schema.fact``.  Passing the
        output of a previous :func:`kfk_join` lets callers fold in several
        dimensions (that is exactly what :func:`join_subset` does).

    Returns
    -------
    Table
        ``fact`` with one column per foreign feature of ``name`` appended.
        Appended columns keep their dimension-table names; a clash with an
        existing fact column raises :class:`SchemaError`.
    """
    fact = schema.fact if fact is None else fact
    constraint = schema.constraint(name)
    dim = schema.dimension(name)
    if constraint.fk_column not in fact:
        raise SchemaError(
            f"cannot join {name!r}: table {fact.name!r} lacks foreign key "
            f"{constraint.fk_column!r}"
        )
    dim_rows = resolve_dimension_rows(
        schema, name, fact.codes(constraint.fk_column)
    )
    result = fact
    for feature in schema.foreign_features(name):
        if feature in fact:
            raise SchemaError(
                f"cannot join {name!r}: column {feature!r} already exists "
                f"in {fact.name!r}"
            )
        column = dim.column(feature)
        result = result.with_column(
            CategoricalColumn(feature, column.domain, column.codes[dim_rows])
        )
    return result


def join_subset(schema: StarSchema, names: Sequence[str]) -> Table:
    """Join a chosen subset of dimensions onto the fact table.

    This powers the paper's Table 4 robustness study, which discards
    dimension tables one or two at a time: ``join_subset(schema, kept)``
    materialises exactly the features of the kept dimensions.
    """
    unknown = [n for n in names if n not in schema.dimension_names]
    if unknown:
        raise SchemaError(
            f"unknown dimensions {unknown}; available: {schema.dimension_names}"
        )
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate dimensions in join request: {list(names)}")
    result = schema.fact
    for name in names:
        result = kfk_join(schema, name, fact=result)
    return result.renamed(f"{schema.fact.name}_joined")


def join_all(schema: StarSchema) -> Table:
    """Materialise the paper's full training table ``T`` (all dimensions)."""
    return join_subset(schema, schema.dimension_names)
