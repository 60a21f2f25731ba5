"""Serving-time assembly through the shared ``ShardEncoder``: cache
accounting and loud RI failures."""

import numpy as np
import pytest

from repro.core import (
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.datasets import generate_real_world
from repro.errors import ReferentialIntegrityError, SchemaError
from repro.ml.encoding import CategoricalMatrix
from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
    join_all,
)
from repro.data.encoder import ShardEncoder
from repro.serving import DimensionIndexCache


class TestAssembly:
    def test_joinall_matches_offline_join(self, churn_schema):
        """Serving-time gathers reproduce the materialised join exactly."""
        strategy = join_all_strategy()
        service = ShardEncoder(churn_schema, strategy)
        offline = CategoricalMatrix.from_table(
            join_all(churn_schema), strategy.feature_names(churn_schema)
        )
        online = service.assemble_table(churn_schema.fact)
        np.testing.assert_array_equal(online.codes, offline.codes)
        assert online.names == offline.names
        assert online.n_levels == offline.n_levels

    def test_nofk_requires_fk_for_gather_but_not_as_feature(self, churn_schema):
        service = ShardEncoder(churn_schema, no_fk_strategy())
        assert "Employer" not in service.feature_names
        assert "Employer" in service.required_columns
        online = service.assemble_table(churn_schema.fact)
        assert "State" in online.names and "Revenue" in online.names

    def test_nojoin_never_touches_dimensions(self, churn_schema):
        service = ShardEncoder(churn_schema, no_join_strategy())
        service.assemble_table(churn_schema.fact)
        service.assemble_table(churn_schema.fact)
        assert service.cache.stats.lookups == 0
        assert service.joined_dimensions == ()

    def test_a_joined_dimension_that_keeps_no_feature_needs_no_fk(self):
        """Under NoFK a dimension with no foreign features is joined but
        contributes nothing, so its FK is not a required column and a
        batch or request without it assembles."""
        key, flag = Domain.of_size(2, prefix="c"), Domain.boolean()
        keys_only = Table("D3", [CategoricalColumn("C", key, [0, 1])])
        fact = Table(
            "F",
            [
                CategoricalColumn("Y", flag, [0, 1, 0]),
                CategoricalColumn("H", flag, [1, 0, 0]),
                CategoricalColumn("C", key, [0, 1, 1]),
            ],
        )
        schema = StarSchema(
            fact=fact,
            target="Y",
            dimensions=[(keys_only, KFKConstraint("C", "D3", "C"))],
        )
        service = ShardEncoder(schema, no_fk_strategy())
        assert service.joined_dimensions == ("D3",)
        assert service.required_columns == ("H",)
        X = service.assemble(service.code_table(fact))
        np.testing.assert_array_equal(X.codes[:, 0], fact.codes("H"))
        X = service.assemble(service.encode_requests([{"H": "1"}]))
        assert X.codes.shape == (1, 1)

    def test_out_of_range_fact_codes_raise(self, churn_schema):
        """assemble() must range-check caller-supplied fact codes; a bad
        code would otherwise wrap through the implicit engine's gathers."""
        service = ShardEncoder(churn_schema, no_join_strategy())
        bad = np.zeros((1, len(service.required_columns)), dtype=np.int64)
        bad[0, service.required_columns.index("Gender")] = -1
        with pytest.raises(SchemaError, match="out of range"):
            service.assemble(bad)

    def test_code_array_must_have_one_column_per_required_column(
        self, churn_schema
    ):
        """``assemble`` and ``dimension_rows`` take only an ``(n, k)``
        code table; a column mapping, a 1-D array or a wrong column
        count is a SchemaError naming the expected shape, raised before
        any dimension lookup."""
        service = ShardEncoder(churn_schema, join_all_strategy())
        codes = service.encode_requests(
            [{"Gender": "F", "Age": "old", "Employer": "initech"}]
        )
        assert isinstance(service.assemble(codes), CategoricalMatrix)
        assert list(service.dimension_rows(codes)) == ["Employers"]
        mapping = dict(zip(service.required_columns, codes.T))
        for bad in (mapping, codes[0], codes[:, :-1], np.hstack([codes, codes])):
            for method in (service.assemble, service.dimension_rows):
                with pytest.raises(
                    SchemaError, match=r"expected \(n, 3\): one column per"
                ):
                    method(bad)
        assert service.cache.stats.lookups == 2

    def test_code_table_is_the_required_columns(self, churn_schema):
        service = ShardEncoder(churn_schema, no_fk_strategy())
        fact = churn_schema.fact
        codes = service.code_table(fact)
        assert codes.dtype == np.int64 and codes.flags.c_contiguous
        np.testing.assert_array_equal(
            codes, np.stack([fact.codes(c) for c in service.required_columns], axis=1)
        )
        np.testing.assert_array_equal(
            service.assemble_table(fact).codes, service.assemble(codes).codes
        )
        stump = ShardEncoder(churn_schema, join_all_strategy(), features=())
        assert stump.code_table(fact).shape == (fact.n_rows, 0)


class TestRequestEncoding:
    def test_label_rows_encode_through_fact_domains(self, churn_schema):
        service = ShardEncoder(churn_schema, join_all_strategy())
        X = service.assemble(
            service.encode_requests(
                [{"Gender": "F", "Age": "old", "Employer": "initech"}]
            )
        )
        j = X.names.index("State")
        # initech is row 2 of Employers, whose State code is 0 ("CA").
        assert X.codes[0, j] == 0

    def test_label_rows_round_trip_to_the_fact_codes(self):
        dataset = generate_real_world("flights", n_fact=300, seed=0)
        fact = dataset.schema.fact
        service = ShardEncoder(dataset.schema, join_all_strategy())
        columns = service.required_columns
        labels = {
            c: fact.domain(c).decode(fact.codes(c)[dataset.test])
            for c in columns
        }
        rows = [
            {c: labels[c][i] for c in columns} for i in range(dataset.test.size)
        ]
        expected = np.stack(
            [fact.codes(c)[dataset.test] for c in columns], axis=1
        )
        encoded = service.encode_requests(rows)
        assert encoded.dtype == expected.dtype
        np.testing.assert_array_equal(encoded, expected)

    def test_out_of_domain_label_raises(self, churn_schema):
        service = ShardEncoder(churn_schema, join_all_strategy())
        with pytest.raises(SchemaError, match="closed domain"):
            service.encode_requests(
                [{"Gender": "F", "Age": "old", "Employer": "hooli"}]
            )

    def test_missing_column_in_request_raises(self, churn_schema):
        service = ShardEncoder(churn_schema, join_all_strategy())
        with pytest.raises(SchemaError, match="lacks fact column"):
            service.encode_requests([{"Gender": "F"}])

    def test_empty_batch_rejected(self, churn_schema):
        service = ShardEncoder(churn_schema, join_all_strategy())
        with pytest.raises(ValueError, match="empty"):
            service.encode_requests([])


class TestCacheAccounting:
    def test_hits_and_misses(self, churn_schema):
        service = ShardEncoder(churn_schema, join_all_strategy())
        service.assemble_table(churn_schema.fact)
        stats = service.cache.stats
        assert stats.misses == 1 and stats.hits == 0
        assert stats.builds == 1
        service.assemble_table(churn_schema.fact)
        service.assemble_table(churn_schema.fact)
        stats = service.cache.stats  # stats are point-in-time snapshots
        assert stats.misses == 1 and stats.hits == 2
        assert stats.builds == 1  # built once, never rebuilt
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_every_dimension_is_built_once_and_kept(self):
        cache = DimensionIndexCache(_two_dimension_schema())
        for name in ("D1", "D2", "D1", "D2", "D1"):
            cache.get(name)
        assert cache.stats.misses == 2
        assert cache.stats.builds == 2
        assert cache.stats.hits == 3
        assert len(cache) == 2


def _two_dimension_schema(dangling: bool = False) -> StarSchema:
    """A tiny two-dimension star; optionally with a dangling FK."""
    d1_key = Domain.of_size(3, prefix="a")
    d2_key = Domain.of_size(3, prefix="b")
    flag = Domain.boolean()
    d1 = Table(
        "D1",
        [
            CategoricalColumn("A", d1_key, [0, 1, 2]),
            CategoricalColumn("A_f", flag, [0, 1, 0]),
        ],
    )
    # When dangling, D2 lacks a row for key code 2 although the fact
    # references it — a referential-integrity violation.
    d2_rows = [0, 1] if dangling else [0, 1, 2]
    d2 = Table(
        "D2",
        [
            CategoricalColumn("B", d2_key, d2_rows),
            CategoricalColumn("B_f", flag, [1] * len(d2_rows)),
        ],
    )
    fact = Table(
        "F",
        [
            CategoricalColumn("Y", flag, [0, 1, 0]),
            CategoricalColumn("A", d1_key, [0, 1, 2]),
            CategoricalColumn("B", d2_key, [0, 1, 2]),
        ],
    )
    return StarSchema(
        fact=fact,
        target="Y",
        dimensions=[
            (d1, KFKConstraint("A", "D1", "A")),
            (d2, KFKConstraint("B", "D2", "B")),
        ],
        validate=False,
    )


class TestReferentialIntegrity:
    def test_dangling_fk_fails_loudly_with_labels(self):
        schema = _two_dimension_schema(dangling=True)
        service = ShardEncoder(schema, join_all_strategy())
        with pytest.raises(ReferentialIntegrityError, match="b2"):
            service.assemble_table(schema.fact)

    def test_valid_fks_resolve(self):
        schema = _two_dimension_schema(dangling=False)
        service = ShardEncoder(schema, join_all_strategy())
        X = service.assemble_table(schema.fact)
        assert X.n_rows == 3
