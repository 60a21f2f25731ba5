"""The paper's Section 4 simulation scenarios.

Each scenario builds a two-table star schema (fact ``S``, one dimension
``R``) from a controlled "true" distribution and returns a
:class:`~repro.datasets.splits.SplitDataset` whose fact table holds
``n_train + 2 * (n_train // 4)`` rows (the paper samples ``n_S/4``
examples each for validation and holdout testing).

- :class:`OneXrScenario` — a lone foreign feature ``X_r ∈ X_R``
  probabilistically determines ``Y``; everything else is noise.  The
  known worst case for avoiding joins with linear models.
- :class:`XSXRScenario` — a random true probability table over
  ``[X_S, X_R]`` with ``H(Y | X) = 0`` (no Bayes noise).
- :class:`RepOneXrScenario` — like OneXr but every foreign feature is a
  copy of ``X_r``, inflating the FK-to-``X_R``-value ratio to try to
  "confuse" NoJoin models.

**Populations.**  The Monte Carlo study retrains a model on many
independent training sets and decomposes the error at *fixed* test
points, so the dimension table, true distribution and test block must be
shared across runs while training/validation rows are redrawn.  Each
scenario's :meth:`population` returns a :class:`ScenarioPopulation`
supporting exactly that: ``draw(rng, n)`` samples fact-row blocks and
``dataset(train, validation, test)`` assembles them into a
:class:`SplitDataset`.  ``scenario.sample(seed)`` is the one-shot
convenience drawing all three blocks at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.skew import UniformFK
from repro.datasets.splits import SplitDataset
from repro.relational.column import CategoricalColumn, Domain
from repro.relational.schema import KFKConstraint, StarSchema
from repro.relational.table import Table
from repro.rng import ensure_rng

#: Column names shared by every simulated schema.
FK_NAME = "FK"
DIM_NAME = "R"
RID_NAME = "RID"
TARGET_NAME = "Y"

#: Fewest training rows a simulation scenario accepts.
MIN_TRAIN_ROWS = 4


@dataclass
class FactBlock:
    """A block of sampled fact rows (features, keys and labels)."""

    xs_codes: np.ndarray
    fk_codes: np.ndarray
    y: np.ndarray
    y_optimal: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.fk_codes.shape[0]

    @staticmethod
    def concatenate(blocks: list["FactBlock"]) -> "FactBlock":
        """Stack blocks in order (train, validation, test)."""
        return FactBlock(
            xs_codes=np.concatenate([b.xs_codes for b in blocks], axis=0),
            fk_codes=np.concatenate([b.fk_codes for b in blocks]),
            y=np.concatenate([b.y for b in blocks]),
            y_optimal=np.concatenate([b.y_optimal for b in blocks]),
        )


class ScenarioPopulation:
    """A frozen "true world": dimension table plus target distribution.

    Subclasses implement :meth:`draw`; this base handles assembling
    drawn blocks into a validated :class:`SplitDataset`.
    """

    name: str = "scenario"

    def __init__(
        self,
        n_r: int,
        d_s: int,
        dim_columns: list[CategoricalColumn],
        metadata: dict,
    ):
        self.n_r = n_r
        self.d_s = d_s
        self.fk_domain = Domain.of_size(n_r, prefix="fk")
        self.dim_columns = dim_columns
        self.metadata = metadata

    def draw(self, rng: np.random.Generator | int | None, n: int) -> FactBlock:
        """Sample ``n`` fact rows from the population."""
        raise NotImplementedError

    def block_table(self, block: FactBlock) -> Table:
        """Materialise one drawn block as a fact :class:`Table`.

        Out-of-core training (:mod:`repro.streaming`) turns each drawn
        block into a bounded fact-table shard with this; ``dataset``
        uses the same assembly for the fully materialised case, so the
        two paths cannot drift apart.
        """
        columns = [
            CategoricalColumn(TARGET_NAME, Domain.boolean(), block.y),
        ]
        for j in range(self.d_s):
            columns.append(
                CategoricalColumn(
                    f"Xs{j}", Domain.boolean(), block.xs_codes[:, j]
                )
            )
        columns.append(
            CategoricalColumn(FK_NAME, self.fk_domain, block.fk_codes)
        )
        return Table("S", columns)

    def dimension_table(self) -> Table:
        """The frozen dimension table ``R`` (shared by every draw)."""
        return Table(
            DIM_NAME,
            [
                CategoricalColumn(RID_NAME, self.fk_domain, np.arange(self.n_r)),
                *self.dim_columns,
            ],
        )

    def schema_skeleton(self) -> StarSchema:
        """The population's star schema with an *empty* fact table.

        Sharded training never holds all fact rows at once, yet the join
        and encoding machinery needs the schema structure (constraints,
        dimension contents, closed domains).  The skeleton provides
        exactly that; fact rows arrive shard by shard via
        :meth:`block_table`.
        """
        empty = FactBlock(
            xs_codes=np.zeros((0, self.d_s), dtype=np.int64),
            fk_codes=np.zeros(0, dtype=np.int64),
            y=np.zeros(0, dtype=np.int64),
            y_optimal=np.zeros(0, dtype=np.int64),
        )
        return StarSchema(
            fact=self.block_table(empty),
            target=TARGET_NAME,
            dimensions=[
                (self.dimension_table(), KFKConstraint(FK_NAME, DIM_NAME, RID_NAME))
            ],
        )

    def dataset(
        self,
        train: FactBlock,
        validation: FactBlock,
        test: FactBlock,
    ) -> SplitDataset:
        """Assemble drawn blocks into a SplitDataset (rows in block order)."""
        combined = FactBlock.concatenate([train, validation, test])
        schema = StarSchema(
            fact=self.block_table(combined),
            target=TARGET_NAME,
            dimensions=[
                (self.dimension_table(), KFKConstraint(FK_NAME, DIM_NAME, RID_NAME))
            ],
        )
        offsets = np.cumsum([0, train.n_rows, validation.n_rows])
        return SplitDataset(
            name=self.name,
            schema=schema,
            train=np.arange(train.n_rows),
            validation=np.arange(offsets[1], offsets[1] + validation.n_rows),
            test=np.arange(offsets[2], offsets[2] + test.n_rows),
            y_optimal=combined.y_optimal,
            metadata=dict(self.metadata),
        )


def _sample_standard(
    scenario, seed: int | np.random.Generator | None
) -> SplitDataset:
    """Draw train + n/4 validation + n/4 test from a fresh population."""
    rng = ensure_rng(seed)
    population = scenario.population(rng)
    n_eval = max(1, scenario.n_train // 4)
    train = population.draw(rng, scenario.n_train)
    validation = population.draw(rng, n_eval)
    test = population.draw(rng, n_eval)
    return population.dataset(train, validation, test)


def _majority_label(xr_codes: np.ndarray) -> np.ndarray:
    """The majority class per X_r level.

    For binary X_r this reproduces the paper's
    ``P(Y=0 | Xr=0) = P(Y=1 | Xr=1) = p`` convention (level 0's majority
    class is 1 and vice versa when ``p < 0.5``); larger domains
    alternate by parity.
    """
    return ((xr_codes + 1) % 2).astype(np.int64)


class _OneXrPopulation(ScenarioPopulation):
    name = "OneXr"

    def __init__(self, scenario: "OneXrScenario", rng: np.random.Generator):
        xr_domain = Domain.of_size(scenario.xr_domain_size, prefix="x")
        self.xr_codes = rng.integers(0, scenario.xr_domain_size, size=scenario.n_r)
        dim_columns = [CategoricalColumn("Xr0", xr_domain, self.xr_codes)]
        for i in range(1, scenario.d_r):
            dim_columns.append(
                CategoricalColumn(
                    f"Xr{i}",
                    Domain.boolean(),
                    rng.integers(0, 2, size=scenario.n_r),
                )
            )
        self.scenario = scenario
        super().__init__(
            n_r=scenario.n_r,
            d_s=scenario.d_s,
            dim_columns=dim_columns,
            metadata={
                "scenario": "OneXr",
                "p": scenario.p,
                "bayes_error": min(scenario.p, 1.0 - scenario.p),
                "tuple_ratio": scenario.n_train / scenario.n_r,
            },
        )

    def draw(
        self,
        rng: np.random.Generator | int | None,
        n: int,
        fk_subset: np.ndarray | None = None,
    ) -> FactBlock:
        """Sample fact rows; ``fk_subset`` restricts which FK levels occur.

        The restriction powers the Section 6.2 smoothing experiment,
        where a fraction gamma of the FK domain never appears during
        training yet arises at test time.
        """
        rng = ensure_rng(rng)
        scenario = self.scenario
        xs = rng.integers(0, 2, size=(n, scenario.d_s))
        if fk_subset is None:
            fk = np.asarray(
                scenario.fk_sampler.sample(rng, n, scenario.n_r), dtype=np.int64
            )
        else:
            fk_subset = np.asarray(fk_subset, dtype=np.int64)
            if fk_subset.size == 0:
                raise ValueError("fk_subset must contain at least one level")
            fk = fk_subset[
                np.asarray(
                    scenario.fk_sampler.sample(rng, n, fk_subset.size),
                    dtype=np.int64,
                )
            ]
        majority = _majority_label(self.xr_codes[fk])
        flips = rng.random(n) < scenario.p
        y = np.where(flips, 1 - majority, majority).astype(np.int64)
        y_optimal = majority if scenario.p <= 0.5 else 1 - majority
        return FactBlock(xs, fk, y, y_optimal.astype(np.int64))


@dataclass(frozen=True)
class OneXrScenario:
    """Scenario ``OneXr``: a lone foreign feature determines the target.

    Generation (Section 4.1): (1) build ``R`` with iid random feature
    values, feature ``Xr0`` drawn over ``xr_domain_size`` levels;
    (2) build ``S`` with iid random home features; (3) assign foreign
    keys by ``fk_sampler``; (4) set ``Y`` from the referenced tuple's
    ``X_r`` through ``P(Y = majority(X_r) | X_r) = 1 - p``.

    Parameters mirror the figure axes: ``n_train`` (= paper's ``n_S``),
    ``n_r`` (= ``|D_FK|``), ``d_s``, ``d_r``, flip probability ``p``,
    ``xr_domain_size`` (= ``|D_Xr|``, Figure 2F), and the FK skew.
    """

    n_train: int = 1000
    n_r: int = 40
    d_s: int = 4
    d_r: int = 4
    p: float = 0.1
    xr_domain_size: int = 2
    fk_sampler: object = field(default_factory=UniformFK)

    def _validate(self) -> None:
        if self.n_train < MIN_TRAIN_ROWS:
            raise ValueError(f"n_train must be >= {MIN_TRAIN_ROWS}, got {self.n_train}")
        if self.n_r < 1:
            raise ValueError(f"n_r must be >= 1, got {self.n_r}")
        if self.d_r < 1:
            raise ValueError("OneXr requires d_r >= 1 (X_r must exist)")
        if self.d_s < 0:
            raise ValueError(f"d_s must be >= 0, got {self.d_s}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.xr_domain_size < 2:
            raise ValueError(
                f"xr_domain_size must be >= 2, got {self.xr_domain_size}"
            )

    def population(
        self, seed: int | np.random.Generator | None = 0
    ) -> ScenarioPopulation:
        """Freeze a "true world" (dimension table + distribution)."""
        self._validate()
        return _OneXrPopulation(self, ensure_rng(seed))

    def sample(self, seed: int | np.random.Generator | None = 0) -> SplitDataset:
        """Draw one full dataset (fresh population, all three splits)."""
        return _sample_standard(self, seed)


class _XSXRPopulation(ScenarioPopulation):
    name = "XSXR"

    def __init__(self, scenario: "XSXRScenario", rng: np.random.Generator):
        d_s, d_r = scenario.d_s, scenario.d_r
        n_combos = 1 << (d_s + d_r)
        n_xr = 1 << d_r
        # (1)-(2) Random TPT with a deterministic Y per entry.
        tpt = rng.random(n_combos)
        tpt /= tpt.sum()
        self.y_of_combo = rng.integers(0, 2, size=n_combos)
        xr_of_combo = np.arange(n_combos) % n_xr
        # (3) Dimension tuples from the X_R marginal.
        p_xr = np.bincount(xr_of_combo, weights=tpt, minlength=n_xr)
        self.dim_xr = rng.choice(n_xr, size=scenario.n_r, p=p_xr)
        # (4)-(5) Restrict the TPT to the sampled X_R combos, renormalise.
        available = np.zeros(n_xr, dtype=bool)
        available[self.dim_xr] = True
        restricted = np.where(available[xr_of_combo], tpt, 0.0)
        total = restricted.sum()
        if total <= 0:
            raise RuntimeError("restricted TPT is empty; increase n_r")
        self.restricted_tpt = restricted / total
        self.n_xr = n_xr
        self.scenario = scenario
        self._rids_by_xr = {
            int(xr): np.flatnonzero(self.dim_xr == xr)
            for xr in np.unique(self.dim_xr)
        }
        dim_columns = [
            CategoricalColumn(
                f"Xr{bit}", Domain.boolean(), (self.dim_xr >> bit) & 1
            )
            for bit in range(d_r)
        ]
        super().__init__(
            n_r=scenario.n_r,
            d_s=d_s,
            dim_columns=dim_columns,
            metadata={
                "scenario": "XSXR",
                "bayes_error": 0.0,
                "tuple_ratio": scenario.n_train / scenario.n_r,
            },
        )

    def draw(self, rng: np.random.Generator | int | None, n: int) -> FactBlock:
        rng = ensure_rng(rng)
        d_r = self.scenario.d_r
        combos = rng.choice(self.restricted_tpt.shape[0], size=n, p=self.restricted_tpt)
        y = self.y_of_combo[combos].astype(np.int64)
        row_xr = combos % self.n_xr
        fk = np.empty(n, dtype=np.int64)
        for xr, rids in self._rids_by_xr.items():
            mask = row_xr == xr
            if np.any(mask):
                fk[mask] = rng.choice(rids, size=int(mask.sum()))
        xs_values = combos >> d_r
        xs = np.stack(
            [(xs_values >> bit) & 1 for bit in range(self.d_s)], axis=1
        ) if self.d_s else np.zeros((n, 0), dtype=np.int64)
        return FactBlock(xs.astype(np.int64), fk, y, y.copy())


@dataclass(frozen=True)
class XSXRScenario:
    """Scenario ``XSXR``: a noiseless true probability table over ``[X_S, X_R]``.

    Follows Section 4.2's six-step procedure: random TPT over all
    boolean ``[X_S, X_R]`` combinations, deterministic ``Y`` per entry,
    dimension tuples sampled from the ``X_R`` marginal, TPT restricted
    and renormalised to the sampled ``X_R`` combinations, fact rows
    sampled from the restricted TPT, and foreign keys drawn uniformly
    among the RIDs sharing the row's ``X_R`` combination.
    """

    n_train: int = 1000
    n_r: int = 40
    d_s: int = 4
    d_r: int = 4
    max_total_features: int = 20

    def _validate(self) -> None:
        if self.n_train < MIN_TRAIN_ROWS:
            raise ValueError(f"n_train must be >= {MIN_TRAIN_ROWS}, got {self.n_train}")
        if self.n_r < 1:
            raise ValueError(f"n_r must be >= 1, got {self.n_r}")
        if self.d_s < 0 or self.d_r < 1:
            raise ValueError("XSXR requires d_s >= 0 and d_r >= 1")
        if self.d_s + self.d_r > self.max_total_features:
            raise ValueError(
                f"d_s + d_r = {self.d_s + self.d_r} exceeds the TPT limit "
                f"({self.max_total_features}); the table has 2^(d_s+d_r) rows"
            )

    def population(
        self, seed: int | np.random.Generator | None = 0
    ) -> ScenarioPopulation:
        """Freeze a "true world" (TPT + dimension table)."""
        self._validate()
        return _XSXRPopulation(self, ensure_rng(seed))

    def sample(self, seed: int | np.random.Generator | None = 0) -> SplitDataset:
        """Draw one full dataset (fresh population, all three splits)."""
        return _sample_standard(self, seed)


class _RepOneXrPopulation(ScenarioPopulation):
    name = "RepOneXr"

    def __init__(self, scenario: "RepOneXrScenario", rng: np.random.Generator):
        self.xr_codes = rng.integers(0, 2, size=scenario.n_r)
        dim_columns = [
            CategoricalColumn(f"Xr{i}", Domain.boolean(), self.xr_codes)
            for i in range(scenario.d_r)
        ]
        self.scenario = scenario
        super().__init__(
            n_r=scenario.n_r,
            d_s=scenario.d_s,
            dim_columns=dim_columns,
            metadata={
                "scenario": "RepOneXr",
                "p": scenario.p,
                "bayes_error": min(scenario.p, 1.0 - scenario.p),
                "tuple_ratio": scenario.n_train / scenario.n_r,
            },
        )

    def draw(self, rng: np.random.Generator | int | None, n: int) -> FactBlock:
        rng = ensure_rng(rng)
        scenario = self.scenario
        xs = rng.integers(0, 2, size=(n, scenario.d_s))
        fk = rng.integers(0, scenario.n_r, size=n)
        majority = _majority_label(self.xr_codes[fk])
        flips = rng.random(n) < scenario.p
        y = np.where(flips, 1 - majority, majority).astype(np.int64)
        y_optimal = majority if scenario.p <= 0.5 else 1 - majority
        return FactBlock(xs, fk, y, y_optimal.astype(np.int64))


@dataclass(frozen=True)
class RepOneXrScenario:
    """Scenario ``RepOneXr``: every foreign feature replicates ``X_r``.

    Section 4.3: ``X_R`` of a dimension tuple is the single sampled
    ``X_r`` value repeated ``d_r`` times, so the FD ``FK → X_R`` maps
    many FK values onto very few distinct ``X_R`` vectors.  Targets
    follow the OneXr convention with flip probability ``p``.
    """

    n_train: int = 1000
    n_r: int = 40
    d_s: int = 4
    d_r: int = 4
    p: float = 0.1

    def _validate(self) -> None:
        if self.n_train < MIN_TRAIN_ROWS:
            raise ValueError(f"n_train must be >= {MIN_TRAIN_ROWS}, got {self.n_train}")
        if self.n_r < 1:
            raise ValueError(f"n_r must be >= 1, got {self.n_r}")
        if self.d_r < 1 or self.d_s < 0:
            raise ValueError("RepOneXr requires d_r >= 1 and d_s >= 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    def population(
        self, seed: int | np.random.Generator | None = 0
    ) -> ScenarioPopulation:
        """Freeze a "true world" (replicated dimension table)."""
        self._validate()
        return _RepOneXrPopulation(self, ensure_rng(seed))

    def sample(self, seed: int | np.random.Generator | None = 0) -> SplitDataset:
        """Draw one full dataset (fresh population, all three splits)."""
        return _sample_standard(self, seed)
