"""Serving throughput: single-row vs micro-batched, JoinAll vs NoJoin.

The serving-side counterpart of Figure 1's training-time argument.  A
NoJoin model serves straight off the fact row.  A JoinAll model gathers
the foreign features it reads on each request, and a tree reads only
the features it splits on: the Yelp JoinAll tree splits on the two FKs
alone, so it is served over the same columns as the NoJoin tree and
joins nothing, and the two serve at the same rate.  Micro-batching then
amortises the per-call overhead (request encoding aside, assembly and
prediction are fully vectorized).

Shape checks: the headline ratio — micro-batched NoJoin over single-row
JoinAll — must be at least 5x, and the served JoinAll tree reads the
NoJoin tree's columns and makes no dimension lookup.
"""

from repro.datasets import generate_real_world
from repro.serving import serving_throughput

from conftest import run_once

ROWS = 4000
BATCH_SIZE = 64


def test_serving_throughput(benchmark, scale):
    dataset = generate_real_world("yelp", n_fact=scale.n_fact, seed=0)

    report = run_once(
        benchmark,
        lambda: serving_throughput(
            dataset,
            model_key="dt_gini",
            rows=ROWS,
            batch_size=BATCH_SIZE,
            scale=scale,
        ),
    )

    print()
    print(report.render())

    assert (
        report.required_columns["JoinAll"] == report.required_columns["NoJoin"]
    ), "the served JoinAll tree must read the NoJoin tree's columns"
    assert report.dimension_lookups["JoinAll"] == 0, (
        "the served JoinAll tree must resolve no dimension"
    )
    assert report.speedup >= 5.0, (
        f"micro-batched NoJoin should be >= 5x single-row JoinAll, "
        f"got {report.speedup:.1f}x"
    )
