"""Dataset generators for the reproduction.

Two families:

- :mod:`repro.datasets.synthetic` — the paper's Section 4 simulation
  scenarios (``OneXr``, ``XSXR``, ``RepOneXr``) with uniform, Zipfian and
  needle-and-thread foreign-key skew (:mod:`repro.datasets.skew`).
- :mod:`repro.datasets.realworld` — synthetic emulators of the seven
  real-world star-schema datasets of Table 1 (Walmart, Expedia, Flights,
  Yelp, Movies, LastFM, Books), preserving schema shapes and tuple
  ratios at a laptop-friendly scale.

Every generator emits a :class:`~repro.datasets.splits.SplitDataset`:
a validated star schema pre-split 50/25/25 into train/validation/test,
with Bayes-optimal labels where the generating distribution knows them.
"""

from repro.datasets.realworld import (
    MIN_FACT_ROWS,
    REAL_WORLD_SPECS,
    RealWorldSpec,
    dataset_statistics,
    generate_real_world,
)
from repro.datasets.skew import NeedleThreadFK, UniformFK, ZipfFK
from repro.datasets.splits import SplitDataset, three_way_split
from repro.datasets.synthetic import (
    MIN_TRAIN_ROWS,
    OneXrScenario,
    RepOneXrScenario,
    XSXRScenario,
)

__all__ = [
    "MIN_FACT_ROWS",
    "MIN_TRAIN_ROWS",
    "NeedleThreadFK",
    "OneXrScenario",
    "REAL_WORLD_SPECS",
    "RealWorldSpec",
    "RepOneXrScenario",
    "SplitDataset",
    "UniformFK",
    "XSXRScenario",
    "ZipfFK",
    "dataset_statistics",
    "generate_real_world",
    "three_way_split",
]
