"""Sequential minimal optimisation for the soft-margin SVM dual.

Solves::

    max_a  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0

with Platt-style SMO: pick a KKT-violating multiplier, pair it with a
second one (maximal |E_i - E_j| over the free multipliers, falling back
to random), and solve the two-variable subproblem analytically.  The
Gram matrix is computed once up front, which is fine at the dataset
scales this reproduction runs.

A pass visits every row in order but updates only about a third of
them, so the per-row cost is what matters.  The scalar step (KKT test,
clipping, bias) runs on Python floats, mirrors of alpha, y and the Gram
diagonal.  Numpy does only the two O(n) parts: the second-choice scan,
an argmax of ``|E - E_i|`` plus an incrementally kept 0/-inf at-bound
penalty, and the error-cache update ``((d_i K_i + d_j K_j) + db)`` in
preallocated buffers.  Both keep the float operations and their order
of a plain numpy step, so the solution, the visit order and the random
draws do not depend on this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import ensure_rng


@dataclass
class SMOResult:
    """Solution of the dual problem."""

    alpha: np.ndarray
    bias: float
    n_iterations: int
    converged: bool


def solve_smo(
    gram: np.ndarray,
    y_signed: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_passes: int = 5,
    max_iterations: int = 20_000,
    seed: int | np.random.Generator | None = 0,
) -> SMOResult:
    """Run SMO on a precomputed Gram matrix.

    Parameters
    ----------
    gram:
        ``(n, n)`` kernel matrix.
    y_signed:
        Labels in {-1, +1}.
    C:
        Box constraint (misclassification cost).
    tol:
        KKT violation tolerance.
    max_passes:
        Number of consecutive full passes without any update before
        declaring convergence (Platt's simplified stopping rule).
    max_iterations:
        Hard cap on total examined pairs, a safety net for pathological
        gamma/C combinations in grid search.
    seed:
        Randomness for the fallback second-choice heuristic.
    """
    gram = np.asarray(gram, dtype=np.float64)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError(f"gram must be square, got {gram.shape}")
    y = np.asarray(y_signed, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("y_signed length must match gram")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("y_signed must be coded in {-1, +1}")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    rng = ensure_rng(seed)
    C = float(C)

    alpha = [0.0] * n
    labels = y.tolist()
    diagonal = gram.diagonal().tolist()
    bias = 0.0
    # errors[i] = f(x_i) - y_i, maintained incrementally.
    errors = -y
    # 0 where alpha_i is strictly inside (0, C), -inf at a bound: added
    # to |E - E_i| it leaves the argmax to the free multipliers.
    free = [False] * n
    n_free = 0
    bound_penalty = np.full(n, -np.inf)
    gaps = np.empty(n)
    step_i = np.empty(n)
    step_j = np.empty(n)
    passes = 0
    iterations = 0

    while passes < max_passes and iterations < max_iterations:
        changed = 0
        for i in range(n):
            iterations += 1
            e_i = errors.item(i)
            y_i = labels[i]
            a_i_old = alpha[i]
            r_i = e_i * y_i
            if not ((r_i < -tol and a_i_old < C) or (r_i > tol and a_i_old > 0)):
                continue
            if n_free > free[i]:
                # A free multiplier other than i exists: maximal
                # |E_i - E_j| over those, first index on ties.
                np.subtract(errors, e_i, out=gaps)
                np.abs(gaps, out=gaps)
                gaps += bound_penalty
                gaps[i] = -np.inf
                j = int(gaps.argmax())
            else:
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
            e_j = errors.item(j)
            y_j = labels[j]
            a_j_old = alpha[j]
            if y_i != y_j:
                low = max(0.0, a_j_old - a_i_old)
                high = min(C, C + a_j_old - a_i_old)
            else:
                low = max(0.0, a_i_old + a_j_old - C)
                high = min(C, a_i_old + a_j_old)
            if high - low < 1e-12:
                continue
            k_ij = gram.item(i, j)
            k_ii, k_jj = diagonal[i], diagonal[j]
            eta = 2.0 * k_ij - k_ii - k_jj
            if eta >= 0:
                continue
            a_j = a_j_old - y_j * (e_i - e_j) / eta
            a_j = min(high, max(low, a_j))
            if abs(a_j - a_j_old) < 1e-7 * (a_j + a_j_old + 1e-7):
                continue
            a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j

            b1 = (
                bias
                - e_i
                - y_i * (a_i - a_i_old) * k_ii
                - y_j * (a_j - a_j_old) * k_ij
            )
            b2 = (
                bias
                - e_j
                - y_i * (a_i - a_i_old) * k_ij
                - y_j * (a_j - a_j_old) * k_jj
            )
            if 0 < a_i < C:
                new_bias = b1
            elif 0 < a_j < C:
                new_bias = b2
            else:
                new_bias = 0.5 * (b1 + b2)
            # errors += (delta_i K_i + delta_j K_j) + (new_bias - bias)
            np.multiply(gram[i], y_i * (a_i - a_i_old), out=step_i)
            np.multiply(gram[j], y_j * (a_j - a_j_old), out=step_j)
            step_i += step_j
            step_i += new_bias - bias
            errors += step_i
            bias = new_bias
            for index, value in ((i, a_i), (j, a_j)):
                is_free = 0 < value < C
                if is_free != free[index]:
                    free[index] = is_free
                    n_free += 1 if is_free else -1
                    bound_penalty[index] = 0.0 if is_free else -np.inf
            changed += 1
        passes = passes + 1 if changed == 0 else 0

    return SMOResult(
        alpha=np.array(alpha),
        bias=bias,
        n_iterations=iterations,
        converged=iterations < max_iterations,
    )
