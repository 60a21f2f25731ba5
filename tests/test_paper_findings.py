"""The paper's central finding, checked on every run of the suite.

Avoiding a KFK join (NoJoin: keep the foreign key, drop the dimension's
features) is safe for a high-capacity model at a much lower tuple ratio
than for a linear one.  On the OneXr worst case (Section 4: the target
depends only on one foreign feature) the gini tree tolerates NoJoin at
every tuple ratio down to its advisor threshold, while L1 logistic
regression already pays for it there and only tolerates it from its own,
higher threshold.  Both thresholds are the advisor's
``FAMILY_THRESHOLDS``; the sweep below is what they must stand on.
"""

import pytest

from repro.core import FAMILY_THRESHOLDS, join_all_strategy, no_join_strategy
from repro.datasets import OneXrScenario
from repro.experiments import sweep
from repro.ml import DecisionTreeClassifier, GridSearch, L1LogisticRegression

N_TRAIN = 500
TUPLE_RATIOS = (50, 20, 6, 3, 1.5)
#: A NoJoin - JoinAll test-error gap within this counts as "safe".
GAP_TOLERANCE = 0.02


def _tree():
    """The benchmarks' simulation tree: gini over a reduced rpart grid."""
    return GridSearch(
        DecisionTreeClassifier(unseen="majority", random_state=0),
        grid={"minsplit": [10, 100], "cp": [1e-3, 0.01]},
    )


def _linear():
    return GridSearch(L1LogisticRegression(), grid={"lam": [1e-3, 1e-2]})


def _gaps(model_factory) -> dict[float, float]:
    """NoJoin minus JoinAll test error at each tuple ratio.

    ``n_r`` is rounded down, so each realised ratio ``N_TRAIN / n_r``
    is at least its nominal one.
    """
    results = sweep(
        lambda n_r: OneXrScenario(n_train=N_TRAIN, n_r=n_r, p=0.1),
        values=[int(N_TRAIN / ratio) for ratio in TUPLE_RATIOS],
        model_factory=model_factory,
        strategies=[join_all_strategy(), no_join_strategy()],
        n_runs=4,
        seed=0,
    )
    return {
        ratio: result.test_error["NoJoin"] - result.test_error["JoinAll"]
        for ratio, (_, result) in zip(TUPLE_RATIOS, results)
    }


@pytest.fixture(scope="module")
def tree_gaps():
    return _gaps(_tree)


@pytest.fixture(scope="module")
def linear_gaps():
    return _gaps(_linear)


def test_tree_tolerates_avoidance_down_to_its_threshold(tree_gaps):
    threshold = FAMILY_THRESHOLDS["decision_tree"]
    safe = {r: gap for r, gap in tree_gaps.items() if r >= threshold}
    assert safe, "no swept ratio at or above the tree threshold"
    assert all(gap <= GAP_TOLERANCE for gap in safe.values()), tree_gaps


def test_linear_model_needs_a_higher_ratio_than_the_tree(linear_gaps):
    tree_threshold = FAMILY_THRESHOLDS["decision_tree"]
    linear_threshold = FAMILY_THRESHOLDS["linear"]
    assert linear_threshold > tree_threshold
    # Where the tree is still safe, the linear model is not ...
    assert linear_gaps[tree_threshold] > GAP_TOLERANCE, linear_gaps
    # ... and from its own threshold on, it is.
    safe = {r: gap for r, gap in linear_gaps.items() if r >= linear_threshold}
    assert safe, "no swept ratio at or above the linear threshold"
    assert all(gap <= GAP_TOLERANCE for gap in safe.values()), linear_gaps
