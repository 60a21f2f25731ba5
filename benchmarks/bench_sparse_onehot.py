"""Dense vs implicit one-hot execution: train/predict time and peak memory.

Trains L1 logistic regression (the paper's linear model, FISTA) on a
synthetic fact table with one FK-like feature of growing closed domain
size plus two small home features — exactly the regime where the dense
one-hot encoding explodes: its ``(n, |D_FK| + 8)`` float64 matrix and
every product against it cost ``O(n · |D_FK|)``, while the implicit
:class:`~repro.ml.sparse.OneHotMatrix` view stays ``O(n · 3)`` per pass.

The benchmark makes the model encode through one operand or the other
— ``OneHotMatrix(X)`` or the dense ``X.onehot()`` array — by
substituting :func:`repro.ml.sparse.encode_features` for the fit, as
the tests' ``dense_oracle`` fixture does, so both run the same fixed
number of FISTA iterations (``tol=0``) on exactly that operand: the
comparison is work-for-work.  Timing runs are separated from
``tracemalloc`` peak-memory runs to keep timings honest.  Results land
in ``BENCH_sparse_onehot.json``; the committed copy at the repo root
records a full run at domain sizes 10^2..10^5.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_onehot.py
    # CI smoke: tiny sizes, equivalence check only
    PYTHONPATH=src python benchmarks/bench_sparse_onehot.py \
        --sizes 50 500 --rows 400 --max-iter 10 --out /tmp/bench.json

The script exits non-zero if the implicit and dense decision functions
of one fitted model disagree beyond 1e-10, so the equivalence guarantee
is enforced wherever the benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import tracemalloc

import numpy as np

from repro.ml import sparse
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression
from repro.ml.sparse import OneHotMatrix
from repro.obs import machine_info
from repro.rng import ensure_rng

EQUIVALENCE_ATOL = 1e-10


def make_dataset(n_rows: int, fk_domain: int, seed: int = 0):
    """A fact-table-shaped matrix: one wide FK plus two small features."""
    rng = ensure_rng(seed)
    fk = rng.integers(0, fk_domain, size=n_rows)
    home = rng.integers(0, 4, size=(n_rows, 2))
    codes = np.column_stack([fk, home])
    # Signal from both the FK (parity) and a home feature, so the fit is
    # non-trivial for every domain size.
    y = ((fk % 2) ^ (home[:, 0] >= 2)).astype(np.int64)
    X = CategoricalMatrix(codes, (fk_domain, 4, 4), ("fk", "xs0", "xs1"))
    return X, y


#: The two operands compared: the implicit view and the dense array.
OPERANDS = {"implicit": OneHotMatrix, "dense": CategoricalMatrix.onehot}


@contextlib.contextmanager
def _encoding(operand: str):
    """Make the model encode every shard as ``operand`` inside the block."""
    original = sparse.encode_features
    sparse.encode_features = OPERANDS[operand]
    try:
        yield
    finally:
        sparse.encode_features = original


def _fit(X, y, operand: str, max_iter: int) -> L1LogisticRegression:
    # tol=0 disables early convergence so both operands run max_iter
    # FISTA iterations: identical work, directly comparable wall-clock.
    model = L1LogisticRegression(lam=1e-4, max_iter=max_iter, tol=0.0)
    with _encoding(operand):
        return model.fit(X, y)


def _decision(model: L1LogisticRegression, X, operand: str) -> np.ndarray:
    return sparse.matmul(OPERANDS[operand](X), model.coef_) + model.intercept_


def measure_operand(X, y, operand: str, max_iter: int, predict_repeats: int = 3):
    """Train/predict wall-clock and tracemalloc peaks for one operand.

    Building the operand is part of both timings: for the dense path
    the allocation is most of the cost.
    """
    started = time.perf_counter()
    model = _fit(X, y, operand, max_iter)
    train_s = time.perf_counter() - started

    predict_s = float("inf")
    for _ in range(predict_repeats):
        started = time.perf_counter()
        _decision(model, X, operand)
        predict_s = min(predict_s, time.perf_counter() - started)

    tracemalloc.start()
    _fit(X, y, operand, max_iter)
    train_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracemalloc.start()
    _decision(model, X, operand)
    predict_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    return model, {
        "train_seconds": train_s,
        "predict_seconds": predict_s,
        "train_peak_bytes": int(train_peak),
        "predict_peak_bytes": int(predict_peak),
    }


def check_equivalence(model: L1LogisticRegression, X) -> float:
    """Max |implicit - dense| decision-function gap of one fitted model."""
    if not X.n_rows:
        return 0.0
    implicit = _decision(model, X, "implicit")
    dense = _decision(model, X, "dense")
    return float(np.max(np.abs(implicit - dense)))


def run(sizes, n_rows, max_iter, dense_limit, seed=0):
    results = {
        "model": "L1LogisticRegression (FISTA, fixed iterations)",
        "n_rows": n_rows,
        "max_iter": max_iter,
        "equivalence_atol": EQUIVALENCE_ATOL,
        "dense_limit": dense_limit,
        "domains": [],
    }
    ok = True
    for fk_domain in sizes:
        X, y = make_dataset(n_rows, fk_domain, seed=seed)
        entry = {"fk_domain": fk_domain, "onehot_width": X.onehot_width}

        model, entry["implicit"] = measure_operand(X, y, "implicit", max_iter)
        run_dense = fk_domain <= dense_limit
        if run_dense:
            _, entry["dense"] = measure_operand(X, y, "dense", max_iter)
            entry["train_speedup"] = (
                entry["dense"]["train_seconds"]
                / max(entry["implicit"]["train_seconds"], 1e-12)
            )
            entry["predict_speedup"] = (
                entry["dense"]["predict_seconds"]
                / max(entry["implicit"]["predict_seconds"], 1e-12)
            )
            entry["train_peak_ratio"] = (
                entry["dense"]["train_peak_bytes"]
                / max(entry["implicit"]["train_peak_bytes"], 1)
            )
        else:
            entry["dense"] = None
            entry["skipped_dense"] = (
                f"dense path skipped above --dense-limit {dense_limit} "
                f"(the point of the implicit view)"
            )

        gap = check_equivalence(model, X)
        entry["equivalence_max_abs_gap"] = gap
        if gap > EQUIVALENCE_ATOL:
            ok = False
        results["domains"].append(entry)

        implicit = entry["implicit"]
        line = (
            f"|D_FK|={fk_domain:>7d}  implicit: "
            f"train {implicit['train_seconds']:.4f}s "
            f"predict {implicit['predict_seconds']:.5f}s "
            f"peak {implicit['train_peak_bytes'] / 1e6:.1f}MB"
        )
        if run_dense:
            dense = entry["dense"]
            line += (
                f"  dense: train {dense['train_seconds']:.4f}s "
                f"peak {dense['train_peak_bytes'] / 1e6:.1f}MB"
                f"  speedup {entry['train_speedup']:.1f}x "
                f"mem {entry['train_peak_ratio']:.1f}x"
            )
        else:
            line += "  dense: skipped"
        line += f"  gap {gap:.1e}"
        print(line)
    return results, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+",
        default=[100, 1000, 10_000, 100_000],
        help="FK closed-domain sizes to sweep",
    )
    parser.add_argument("--rows", type=int, default=2000, help="fact rows")
    parser.add_argument(
        "--max-iter", type=int, default=40, help="FISTA iterations per fit"
    )
    parser.add_argument(
        "--dense-limit", type=int, default=100_000,
        help="largest domain size at which the dense operand is measured",
    )
    parser.add_argument(
        "--out", default="BENCH_sparse_onehot.json", help="JSON output path"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    results, ok = run(
        args.sizes, args.rows, args.max_iter, args.dense_limit, seed=args.seed
    )
    results["machine"] = machine_info()
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.out}")
    if not ok:
        print(
            "ERROR: implicit/dense decision functions disagree beyond "
            f"{EQUIVALENCE_ATOL}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
