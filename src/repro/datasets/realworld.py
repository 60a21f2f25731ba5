"""Emulators of the paper's seven real-world star-schema datasets.

The originals (Kaggle, GroupLens, openflights, last.fm, BookCrossing)
are unavailable offline, so each is replaced by a synthetic generator
that preserves what the paper's phenomena depend on:

- the star schema shape (number of dimension tables ``q``, home feature
  count ``d_S``, per-dimension foreign feature count ``d_Ri``);
- the **tuple ratio** of every dimension (Table 1), the quantity the
  whole join-avoidance rule is built on;
- open-domain foreign keys (Expedia's search events) that can never be
  used as features;
- a planted target distribution in which ``Y`` depends on home
  features, foreign features, *and* per-foreign-key identity effects,
  so JoinAll/NoJoin/NoFK genuinely trade off bias and variance the way
  Section 3 describes.

Row counts are scaled down ~100x (configurable through ``n_fact``);
tuple ratios are preserved by scaling each dimension with the fact
table.  See DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.skew import ZipfFK
from repro.datasets.splits import SplitDataset, three_way_split
from repro.obs import registry, trace
from repro.relational.column import CategoricalColumn, Domain
from repro.relational.schema import KFKConstraint, StarSchema
from repro.relational.table import Table
from repro.rng import ensure_rng

#: Fewest fact rows :meth:`RealWorldSpec.generate` accepts: every split
#: of the 50/25/25 train/validation/test split keeps at least two rows.
MIN_FACT_ROWS = 8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    e = np.exp(z[~positive])
    out[~positive] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class DimensionSpec:
    """Shape and signal weights of one emulated dimension table.

    Attributes
    ----------
    name:
        Dimension table name (e.g. ``"users"``).
    tuple_ratio:
        Paper's Table 1 ratio of *training* examples to dimension rows;
        the emulator sizes the dimension as
        ``n_train / tuple_ratio`` (minimum 2 rows).
    n_features:
        Foreign feature count ``d_Ri``.
    xr_effect:
        Weight of the foreign features' contribution to the target.
    fk_effect:
        Weight of the per-row identity effect — target signal carried by
        *which* dimension row a fact row references beyond what the
        foreign features record.  Non-zero values make NoFK lose
        accuracy (Flights, LastFM, Books in the paper).
    open_fk:
        Whether the foreign key has an open domain (Expedia's search
        id): it can never be used as a feature and the dimension can
        never be discarded.
    feature_domain_size:
        Domain size of each foreign feature.
    fk_skew:
        Zipf exponent for the foreign-key frequency distribution.  Real
        activity data concentrates on popular entities (LastFM plays on
        popular artists, book ratings on bestsellers); the skew is what
        makes per-entity identity effects learnable and hence NoFK
        costly on those datasets.
    """

    name: str
    tuple_ratio: float
    n_features: int
    xr_effect: float = 1.0
    fk_effect: float = 0.0
    open_fk: bool = False
    feature_domain_size: int = 4
    fk_skew: float = 0.0


@dataclass(frozen=True)
class RealWorldSpec:
    """Full generator specification for one emulated dataset.

    ``n_fact`` counts *all* rows; the 50/25/25 split yields
    ``n_train = n_fact / 2``, matching Table 1's convention that the
    listed tuple ratio is ``0.5 × n_S / n_R``.
    """

    name: str
    n_fact: int
    d_s: int
    dimensions: tuple[DimensionSpec, ...]
    xs_effect: float = 1.0
    sharpness: float = 2.0
    xs_domain_size: int = 4

    def generate(
        self,
        n_fact: int | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> SplitDataset:
        """Materialise the dataset at ``n_fact`` rows (default: spec size)."""
        rng = ensure_rng(seed)
        n = self.n_fact if n_fact is None else n_fact
        if n < MIN_FACT_ROWS:
            raise ValueError(f"n_fact must be >= {MIN_FACT_ROWS}, got {n}")
        n_train = n // 2
        score = np.zeros(n)

        # Home features.
        xs_columns: list[CategoricalColumn] = []
        for j in range(self.d_s):
            domain = Domain.of_size(self.xs_domain_size, prefix=f"s{j}_")
            codes = rng.integers(0, self.xs_domain_size, size=n)
            weights = rng.normal(0.0, 1.0, self.xs_domain_size)
            score += self.xs_effect * weights[codes] / max(1, self.d_s) ** 0.5
            xs_columns.append(CategoricalColumn(f"hf{j}", domain, codes))

        # Dimension tables and their contributions.
        dim_tables: list[tuple[Table, KFKConstraint]] = []
        fk_columns: list[CategoricalColumn] = []
        open_fks: set[str] = set()
        for spec in self.dimensions:
            n_rows = max(2, int(round(n_train / spec.tuple_ratio)))
            fk_domain = Domain.of_size(n_rows, prefix=f"{spec.name}_")
            columns = [CategoricalColumn("RID", fk_domain, np.arange(n_rows))]
            feature_scores = np.zeros(n_rows)
            k = spec.feature_domain_size
            for j in range(spec.n_features):
                codes = rng.integers(0, k, size=n_rows)
                weights = rng.normal(0.0, 1.0, k)
                feature_scores += (
                    spec.xr_effect
                    * weights[codes]
                    / max(1, spec.n_features) ** 0.5
                )
                columns.append(
                    CategoricalColumn(
                        f"{spec.name}_f{j}", Domain.of_size(k, prefix=f"{spec.name}{j}_"), codes
                    )
                )
            identity = rng.normal(0.0, 1.0, n_rows) * spec.fk_effect
            if spec.fk_skew > 0:
                fk_codes = ZipfFK(s=spec.fk_skew).sample(rng, n, n_rows)
            else:
                fk_codes = rng.integers(0, n_rows, size=n)
            score += feature_scores[fk_codes] + identity[fk_codes]
            fk_name = f"{spec.name}_fk"
            fk_columns.append(CategoricalColumn(fk_name, fk_domain, fk_codes))
            rid_column = columns[0].renamed(f"{spec.name}_rid")
            dim_tables.append(
                (
                    Table(spec.name, [rid_column, *columns[1:]]),
                    KFKConstraint(fk_name, spec.name, f"{spec.name}_rid"),
                )
            )
            if spec.open_fk:
                open_fks.add(fk_name)

        # Target: Bernoulli(sigmoid(sharpness * standardised score)).
        std = score.std()
        if std > 0:
            score = (score - score.mean()) / std
        p1 = _sigmoid(self.sharpness * score)
        y = (rng.random(n) < p1).astype(np.int64)
        y_optimal = (p1 > 0.5).astype(np.int64)

        fact = Table(
            "fact",
            [
                CategoricalColumn("label", Domain.boolean(), y),
                *xs_columns,
                *fk_columns,
            ],
        )
        schema = StarSchema(
            fact=fact,
            target="label",
            dimensions=dim_tables,
            open_fks=frozenset(open_fks),
        )
        train, validation, test = three_way_split(n, seed=rng)
        return SplitDataset(
            name=self.name,
            schema=schema,
            train=train,
            validation=validation,
            test=test,
            y_optimal=y_optimal,
            metadata={
                "spec": self.name,
                "tuple_ratios": {
                    spec.name: schema.tuple_ratio(spec.name) / 2.0
                    for spec in self.dimensions
                },
            },
        )


#: Table 1 reconstructions.  Tuple ratios and feature counts follow the
#: paper; ``fk_effect`` is positive exactly where the paper found NoFK to
#: lose accuracy (Flights, LastFM, Books, and mildly Expedia/Movies) and
#: zero where NoFK matched or beat JoinAll (Yelp, Walmart).
REAL_WORLD_SPECS: dict[str, RealWorldSpec] = {
    "expedia": RealWorldSpec(
        name="expedia",
        n_fact=2000,
        d_s=1,
        dimensions=(
            DimensionSpec(
                "hotels", tuple_ratio=39.5, n_features=8,
                xr_effect=1.0, fk_effect=0.6,
            ),
            DimensionSpec(
                "searches", tuple_ratio=1.0, n_features=14,
                xr_effect=0.6, fk_effect=0.0, open_fk=True,
            ),
        ),
    ),
    "movies": RealWorldSpec(
        name="movies",
        n_fact=2000,
        d_s=0,
        dimensions=(
            DimensionSpec(
                "users", tuple_ratio=82.8, n_features=4,
                xr_effect=1.0, fk_effect=0.5,
            ),
            DimensionSpec(
                "movies", tuple_ratio=135.0, n_features=21,
                xr_effect=1.0, fk_effect=0.5,
            ),
        ),
    ),
    "yelp": RealWorldSpec(
        name="yelp",
        n_fact=2000,
        d_s=0,
        dimensions=(
            DimensionSpec(
                "users", tuple_ratio=9.4, n_features=32,
                xr_effect=1.0, fk_effect=0.0,
            ),
            DimensionSpec(
                "businesses", tuple_ratio=2.5, n_features=6,
                xr_effect=2.0, fk_effect=0.0,
            ),
        ),
    ),
    "walmart": RealWorldSpec(
        name="walmart",
        n_fact=2000,
        d_s=1,
        dimensions=(
            DimensionSpec(
                "stores", tuple_ratio=90.1, n_features=9,
                xr_effect=1.0, fk_effect=0.0,
            ),
            DimensionSpec(
                "indicators", tuple_ratio=4684.1, n_features=2,
                xr_effect=1.0, fk_effect=0.0,
            ),
        ),
        sharpness=3.0,
    ),
    "lastfm": RealWorldSpec(
        name="lastfm",
        n_fact=2000,
        d_s=0,
        dimensions=(
            DimensionSpec(
                "users", tuple_ratio=42.0, n_features=7,
                xr_effect=0.5, fk_effect=1.6, fk_skew=1.0,
            ),
            DimensionSpec(
                "artists", tuple_ratio=3.5, n_features=4,
                xr_effect=0.5, fk_effect=1.6, fk_skew=1.2,
            ),
        ),
        sharpness=2.5,
    ),
    "books": RealWorldSpec(
        name="books",
        n_fact=2000,
        d_s=0,
        dimensions=(
            DimensionSpec(
                "readers", tuple_ratio=4.6, n_features=2,
                xr_effect=0.6, fk_effect=1.0, fk_skew=0.8,
            ),
            DimensionSpec(
                "books", tuple_ratio=2.6, n_features=4,
                xr_effect=0.6, fk_effect=1.0, fk_skew=1.0,
            ),
        ),
        sharpness=1.2,
    ),
    "flights": RealWorldSpec(
        name="flights",
        n_fact=2000,
        d_s=20,
        xs_effect=0.7,
        dimensions=(
            DimensionSpec(
                "airlines", tuple_ratio=61.6, n_features=5,
                xr_effect=0.8, fk_effect=1.0,
            ),
            DimensionSpec(
                "src_airports", tuple_ratio=10.5, n_features=6,
                xr_effect=0.8, fk_effect=1.0,
            ),
            DimensionSpec(
                "dst_airports", tuple_ratio=10.5, n_features=6,
                xr_effect=0.8, fk_effect=1.0,
            ),
        ),
        sharpness=3.0,
    ),
}

#: Dataset order used by the paper's tables.
DATASET_ORDER = (
    "expedia",
    "movies",
    "yelp",
    "walmart",
    "lastfm",
    "books",
    "flights",
)


def generate_real_world(
    name: str,
    n_fact: int | None = None,
    seed: int | np.random.Generator | None = 0,
) -> SplitDataset:
    """Generate one emulated dataset by name (see :data:`REAL_WORLD_SPECS`).

    Generation is cross-cutting setup work shared by every command and
    experiment, so it counts into the process-wide registry
    (``datasets.generated`` / ``datasets.rows``) and traces as a
    ``generate`` span.
    """
    try:
        spec = REAL_WORLD_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(REAL_WORLD_SPECS)}"
        ) from None
    with trace("generate", dataset=name):
        dataset = spec.generate(n_fact=n_fact, seed=seed)
    metrics = registry()
    metrics.counter("datasets.generated").inc()
    metrics.counter("datasets.rows").inc(dataset.schema.fact.n_rows)
    return dataset


@dataclass
class DatasetStatistics:
    """One row of the reproduction's Table 1."""

    dataset: str
    n_s: int
    d_s: int
    q: int
    dimensions: list[tuple[str, int, int, float | None]] = field(
        default_factory=list
    )

    def __str__(self) -> str:
        dims = "; ".join(
            f"{name}: n_R={n_r}, d_R={d_r}, "
            + (f"ratio={ratio:.1f}" if ratio is not None else "ratio=N/A")
            for name, n_r, d_r, ratio in self.dimensions
        )
        return (
            f"{self.dataset}: n_S={self.n_s}, d_S={self.d_s}, q={self.q} "
            f"[{dims}]"
        )


def dataset_statistics(dataset: SplitDataset) -> DatasetStatistics:
    """Compute the Table 1 statistics row for a generated dataset.

    The tuple ratio follows the paper's convention of counting
    *training* examples: ``0.5 × n_S / n_R`` under the 50/25/25 split.
    Open-FK dimensions report ``None`` (the paper's "N/A").
    """
    schema = dataset.schema
    stats = DatasetStatistics(
        dataset=dataset.name,
        n_s=schema.fact.n_rows,
        d_s=len(schema.home_features),
        q=schema.q,
    )
    for name in schema.dimension_names:
        constraint = schema.constraint(name)
        is_open = constraint.fk_column in schema.open_fks
        ratio = None if is_open else dataset.train.size / schema.dimension(name).n_rows
        stats.dimensions.append(
            (
                name,
                schema.dimension(name).n_rows,
                len(schema.foreign_features(name)),
                ratio,
            )
        )
    return stats
