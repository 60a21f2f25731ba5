"""Shared fixtures: a small customers/employers star schema.

This mirrors the paper's running example (Section 1): predicting customer
churn from a Customers fact table joined with an Employers dimension.
"""

import numpy as np
import pytest

from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
)


@pytest.fixture
def employer_domain():
    return Domain(["acme", "globex", "initech", "umbrella"])


@pytest.fixture
def employers(employer_domain):
    state = Domain(["CA", "NY", "WI"])
    revenue = Domain(["low", "high"])
    return Table(
        "Employers",
        [
            CategoricalColumn("Employer", employer_domain, [0, 1, 2, 3]),
            CategoricalColumn("State", state, [0, 1, 0, 2]),
            CategoricalColumn("Revenue", revenue, [1, 1, 0, 0]),
        ],
    )


@pytest.fixture
def customers(employer_domain):
    churn = Domain(["no", "yes"])
    gender = Domain(["F", "M"])
    age = Domain(["young", "mid", "old"])
    sid = Domain.of_size(8, prefix="c")
    return Table(
        "Customers",
        [
            CategoricalColumn("CustomerID", sid, np.arange(8)),
            CategoricalColumn("Churn", churn, [0, 1, 0, 1, 0, 1, 0, 1]),
            CategoricalColumn("Gender", gender, [0, 1, 0, 1, 0, 1, 1, 0]),
            CategoricalColumn("Age", age, [0, 1, 2, 0, 1, 2, 0, 1]),
            CategoricalColumn("Employer", employer_domain, [0, 1, 2, 3, 0, 1, 2, 3]),
        ],
    )


@pytest.fixture
def churn_schema(customers, employers):
    return StarSchema(
        fact=customers,
        target="Churn",
        fact_key="CustomerID",
        dimensions=[
            (employers, KFKConstraint("Employer", "Employers", "Employer")),
        ],
    )


@pytest.fixture
def dense_oracle():
    """``with dense_oracle():`` runs the numeric models on the dense
    one-hot encoding — the reference every sparse path must match."""
    import contextlib

    from repro.ml import sparse

    def dense(X):
        return sparse.gathered(X).onehot()

    @contextlib.contextmanager
    def oracle():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "encode_features", dense)
            yield

    return oracle


@pytest.fixture
def force_layout():
    """``with force_layout("gather" | "factorize"):`` overrides the
    encoder's per-dimension plan for every joined dimension."""
    import contextlib

    from repro.data import encoder

    @contextlib.contextmanager
    def force(layout):
        if layout not in ("gather", "factorize"):
            raise ValueError(f"unknown layout {layout!r}")
        decision = layout == "factorize"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                encoder, "factorize_dimension", lambda *shape: decision
            )
            yield

    return force
