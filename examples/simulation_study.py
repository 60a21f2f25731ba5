"""Mini simulation study: stress-testing NoJoin as the FK domain grows.

Reproduces the heart of the paper's Figure 2(B)/Figure 3 at example
scale: sweep the foreign-key domain size ``n_R`` (equivalently, shrink
the tuple ratio) on the OneXr worst-case scenario and compare
JoinAll / NoJoin / NoFK test errors for a decision tree and for 1-NN.
The tree's NoJoin curve should hug JoinAll until the tuple ratio gets
tiny, while 1-NN deviates much earlier.

Run:  python examples/simulation_study.py
"""

from repro.core import join_all_strategy, no_fk_strategy, no_join_strategy
from repro.datasets import OneXrScenario
from repro.experiments import FigureSeries, default_tree_tuner, sweep
from repro.ml import GridSearch, KNeighborsClassifier

N_TRAIN = 400
N_R_VALUES = [2, 10, 50, 200]
STRATEGIES = [join_all_strategy(), no_join_strategy(), no_fk_strategy()]


def nn_factory():
    return GridSearch(KNeighborsClassifier(n_neighbors=1), grid={})


def run_model(label: str, model_factory) -> FigureSeries:
    results = sweep(
        lambda n_r: OneXrScenario(n_train=N_TRAIN, n_r=n_r, p=0.1),
        values=N_R_VALUES,
        model_factory=model_factory,
        strategies=STRATEGIES,
        n_runs=4,
        seed=0,
    )
    figure = FigureSeries(
        title=f"OneXr: avg test error vs |D_FK| ({label})", x_label="n_R"
    )
    for n_r, result in results:
        figure.add_point(n_r, result.test_error)
    return figure


def main() -> None:
    for label, factory in (
        ("decision tree", default_tree_tuner), ("1-NN", nn_factory)
    ):
        figure = run_model(label, factory)
        print(figure.render())
        gap = figure.max_gap("JoinAll", "NoJoin")
        print(f"max |JoinAll - NoJoin| gap: {gap:.4f}")
        print()
    print(
        "The decision tree's NoJoin error stays glued to JoinAll across "
        "the sweep (Bayes error here is 0.10); the unstable 1-NN separates "
        "sooner, matching the paper's Figure 3."
    )


if __name__ == "__main__":
    main()
