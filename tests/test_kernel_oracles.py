"""Twelve kernels against the implementations they replaced.

Each kernel the paper's tuned tree, SVM, 1-NN and L1-path cells, the
streamed FISTA fit and the served tree spend their time in was rewritten
for speed with its arithmetic unchanged, so each must reproduce its
plain predecessor exactly (``np.array_equal``, ``==`` and equal
pickles, no tolerance):

- :meth:`OneHotMatrix.match_counts` (float32 one-hot GEMM for narrow
  features plus one equality pass per wide one) against the broadcast
  count ``(A[:, None, :] == B[None, :, :]).sum(axis=2)``;
- :func:`solve_smo` (Python-float scalar step, kept at-bound mask,
  buffered error-cache update) against the all-numpy SMO step below;
- :meth:`LogisticRegressionPath.fit` (one operand and one Lipschitz
  estimate per path) against a chain of warm-started
  :meth:`L1LogisticRegression.fit` calls;
- :meth:`DecisionTreeClassifier._best_split` (every prefix candidate of
  every feature scored at once) against the feature-by-feature scan
  :func:`reference_best_split`, which ``tests/test_streaming_models.py``
  also grows its depth-first reference trees with;
- :meth:`DecisionTreeClassifier.predict_proba` (the whole batch one
  level per gather over the flat tree, one seen-mask lookup under
  ``unseen="error"``) against the node-by-node walk
  :func:`node_by_node_proba`, with its per-feature unseen check;
- :meth:`DecisionTreeClassifier.prune` against a direct fit at the
  larger ``cp``;
- :meth:`GridSearch.fit` over a tree grid (one fit per group of points
  that differ only in ``cp``, the others pruned from it) against one
  fit per grid point, :func:`per_point_grid_search`;
- :meth:`FactorizedMatrix.matmul` / :meth:`FactorizedMatrix.rmatmul`
  (one gather or ``bincount`` per dimension over its flat block; the
  per-row ``bincount`` written, not added to zeros) against one per
  block column, :func:`per_column_matmul` / :func:`per_column_rmatmul`,
  with and without blocks (a gathered shard's :class:`OneHotMatrix`);
- a 1-D :meth:`OneHotMatrix.matmul` over fewer than eight columns (adds
  in column order) against the row sum :func:`row_sum_matmul`;
- ``logistic._sigmoid`` (one ``exp(-|z|)``, picked by ``np.where``)
  against the four-mask form :func:`masked_sigmoid`;
- ``logistic._lipschitz`` (power iteration over shard passes, each
  step a :func:`logistic._power_step` sum) on one shard against the
  same loop on one operand, :func:`one_operand_lipschitz`;
- :meth:`ShardEncoder.assemble` (one plan: a slice of the code table
  for the fact columns, one block gather per dimension, into one
  array) against the feature-by-feature :func:`per_feature_assemble`
  over the same codes as a column mapping, errors and cache accounting
  included.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.data import encoder as encoder_module
from repro.data.encoder import ShardEncoder
from repro.data.source import MatrixSource, ShardPasses
from repro.datasets import generate_real_world
from repro.datasets.realworld import DATASET_ORDER
from repro.errors import SchemaError, UnseenCategoryError
from repro.experiments.config import DEFAULT, PAPER
from repro.experiments.runner import MODEL_REGISTRY
from repro.ml import GridSearch, sparse
from repro.ml.encoding import CategoricalMatrix, check_code_ranges
from repro.ml.linear import L1LogisticRegression, LogisticRegressionPath
from repro.ml.linear import logistic
from repro.ml.sparse import (
    GEMM_MAX_LEVELS,
    FactorizedGroup,
    FactorizedMatrix,
    OneHotMatrix,
    gathered,
)
from repro.ml.svm.kernels import linear_kernel, polynomial_kernel, rbf_kernel
from repro.ml.svm.smo import solve_smo
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.tree.cart import _BestSplit
from repro.ml.tree.criteria import impurity_function, split_information
from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
)
from repro.relational.join import resolve_dimension_rows
from repro.rng import ensure_rng


# ----------------------------------------------------------------------
# match_counts
# ----------------------------------------------------------------------
def broadcast_match_counts(A: OneHotMatrix, B: OneHotMatrix) -> np.ndarray:
    """Code-match counts by an ``(n, m, d)`` boolean broadcast."""
    equal = A.codes[:, np.newaxis, :] == B.codes[np.newaxis, :, :]
    return equal.sum(axis=2).astype(np.float64)


def _codes(rng, n, levels):
    """Codes with many matches: half uniform, half from a few levels
    that include both ends of each domain."""
    columns = []
    for k in levels:
        pool = np.unique([0, k // 2, k - 1])
        columns.append(
            np.where(
                rng.random(n) < 0.5,
                rng.integers(0, k, size=n),
                pool[rng.integers(0, pool.size, size=n)],
            )
        )
    if not columns:
        return np.zeros((n, 0), dtype=np.int64)
    return np.column_stack(columns)


def _pair(n, m, levels, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"f{j}" for j in range(len(levels)))
    A = CategoricalMatrix(_codes(rng, n, levels), levels, names)
    B = CategoricalMatrix(_codes(rng, m, levels), levels, names)
    return OneHotMatrix(A), OneHotMatrix(B)


LEVELS = {
    "all_narrow": (4, 3, 6, 2),
    "all_wide": (GEMM_MAX_LEVELS + 1, 320, 1000),
    "mixed": (85, 4, 320, 4, 4, GEMM_MAX_LEVELS + 1, 2),
    "at_and_above_constant": (GEMM_MAX_LEVELS, GEMM_MAX_LEVELS + 1),
    "single_level": (1, 1, 5, 1),
    "one_single_level": (1,),
    "zero_features": (),
}


@pytest.mark.parametrize("levels", LEVELS.values(), ids=LEVELS.keys())
@pytest.mark.parametrize(
    "n, m", [(37, 37), (23, 41), (0, 9), (9, 0), (0, 0)],
    ids=["square", "n_ne_m", "zero_left_rows", "zero_right_rows", "empty"],
)
def test_match_counts_equal_the_broadcast_count(levels, n, m):
    A, B = _pair(n, m, levels, seed=n + 7 * m + len(levels))
    got = A.match_counts(B)
    assert got.dtype == np.float64
    assert np.array_equal(got, broadcast_match_counts(A, B))
    assert np.array_equal(
        A.squared_distances(B),
        2.0 * (A.n_features - broadcast_match_counts(A, B)),
    )


@pytest.mark.parametrize("levels", LEVELS.values(), ids=LEVELS.keys())
def test_training_gram_equals_the_broadcast_count(levels):
    # ``other is self`` builds the one-hot operand once.
    A, _ = _pair(31, 0, levels, seed=3)
    assert np.array_equal(A.match_counts(A), broadcast_match_counts(A, A))


# ----------------------------------------------------------------------
# solve_smo
# ----------------------------------------------------------------------
def reference_smo(
    gram, y_signed, C, tol=1e-3, max_passes=5, max_iterations=20_000, seed=0
):
    """Platt's SMO with every step in numpy; returns the same fields."""
    n = gram.shape[0]
    y = np.asarray(y_signed, dtype=np.float64)
    rng = ensure_rng(seed)
    alpha = np.zeros(n)
    bias = 0.0
    errors = -y.copy()
    passes = 0
    iterations = 0

    def select_second(i):
        candidates = np.flatnonzero((alpha > 0) & (alpha < C))
        candidates = candidates[candidates != i]
        if candidates.size:
            return int(
                candidates[np.argmax(np.abs(errors[candidates] - errors[i]))]
            )
        j = int(rng.integers(0, n - 1))
        return j if j < i else j + 1

    while passes < max_passes and iterations < max_iterations:
        changed = 0
        for i in range(n):
            iterations += 1
            e_i = errors[i]
            r_i = e_i * y[i]
            if not ((r_i < -tol and alpha[i] < C) or (r_i > tol and alpha[i] > 0)):
                continue
            j = select_second(i)
            e_j = errors[j]
            a_i_old, a_j_old = alpha[i], alpha[j]
            if y[i] != y[j]:
                low = max(0.0, a_j_old - a_i_old)
                high = min(C, C + a_j_old - a_i_old)
            else:
                low = max(0.0, a_i_old + a_j_old - C)
                high = min(C, a_i_old + a_j_old)
            if high - low < 1e-12:
                continue
            eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
            if eta >= 0:
                continue
            a_j = a_j_old - y[j] * (e_i - e_j) / eta
            a_j = min(high, max(low, a_j))
            if abs(a_j - a_j_old) < 1e-7 * (a_j + a_j_old + 1e-7):
                continue
            a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j
            b1 = (
                bias
                - e_i
                - y[i] * (a_i - a_i_old) * gram[i, i]
                - y[j] * (a_j - a_j_old) * gram[i, j]
            )
            b2 = (
                bias
                - e_j
                - y[i] * (a_i - a_i_old) * gram[i, j]
                - y[j] * (a_j - a_j_old) * gram[j, j]
            )
            if 0 < a_i < C:
                new_bias = b1
            elif 0 < a_j < C:
                new_bias = b2
            else:
                new_bias = 0.5 * (b1 + b2)
            delta_i = y[i] * (a_i - a_i_old)
            delta_j = y[j] * (a_j - a_j_old)
            errors += delta_i * gram[i] + delta_j * gram[j] + (new_bias - bias)
            bias = new_bias
            changed += 1
        passes = passes + 1 if changed == 0 else 0
    return alpha, bias, iterations, iterations < max_iterations


def _svm_problem(n=48, seed=0):
    """A noisy categorical problem: label from two features, 15% flipped."""
    rng = np.random.default_rng(seed)
    levels = (3, 4, 2, 60)
    codes = np.column_stack([rng.integers(0, k, size=n) for k in levels])
    y = ((codes[:, 0] == 1) ^ (codes[:, 1] >= 2)).astype(float)
    y = np.where(rng.random(n) < 0.15, 1.0 - y, y)
    view = OneHotMatrix(
        CategoricalMatrix(codes, levels, tuple(f"f{j}" for j in range(4)))
    )
    return view, np.where(y > 0, 1.0, -1.0)


_VIEW, _Y = _svm_problem()
GRAMS = {
    "rbf": rbf_kernel(_VIEW, _VIEW, gamma=0.1),
    "poly": polynomial_kernel(_VIEW, _VIEW, gamma=0.1, degree=2, coef0=1.0),
    "linear": linear_kernel(_VIEW, _VIEW),
}


def _assert_same_solve(got, expected):
    alpha, bias, n_iterations, converged = expected
    assert np.array_equal(got.alpha, alpha)
    assert got.bias == bias
    assert got.n_iterations == n_iterations
    assert got.converged == converged


@pytest.mark.parametrize("max_passes", [1, 3, 5])
@pytest.mark.parametrize("C", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("kernel", GRAMS.keys())
def test_smo_equals_the_numpy_step(kernel, C, max_passes):
    gram = GRAMS[kernel]
    _assert_same_solve(
        solve_smo(gram, _Y, C=C, max_passes=max_passes, max_iterations=4_000),
        reference_smo(gram, _Y, C=C, max_passes=max_passes, max_iterations=4_000),
    )


def test_smo_draws_the_random_fallback_alike():
    # At C = 0.1 on a linear Gram most multipliers sit at a bound, so the
    # second choice keeps falling back to a random draw: both solvers
    # must consume the generator identically.
    gram = GRAMS["linear"]
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    untouched = np.random.default_rng(11).bit_generator.state
    _assert_same_solve(
        solve_smo(gram, _Y, C=0.1, seed=ours),
        reference_smo(gram, _Y, C=0.1, seed=theirs),
    )
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.bit_generator.state != untouched


def test_smo_stops_at_max_iterations_alike():
    gram = GRAMS["rbf"]
    got = solve_smo(gram, _Y, C=100.0, max_iterations=70)
    _assert_same_solve(got, reference_smo(gram, _Y, C=100.0, max_iterations=70))
    # The cap is checked between passes, so the last pass completes.
    assert not got.converged
    assert got.n_iterations >= 70


# ----------------------------------------------------------------------
# LogisticRegressionPath
# ----------------------------------------------------------------------
def _logistic_problem(n=120, seed=4):
    rng = np.random.default_rng(seed)
    levels = (5, 3, 40)
    codes = np.column_stack([rng.integers(0, k, size=n) for k in levels])
    y = ((codes[:, 0] < 2) ^ (rng.random(n) < 0.2)).astype(np.int64)
    return CategoricalMatrix(codes, levels, ("a", "b", "fk")), y


def test_path_equals_a_chain_of_warm_started_fits(monkeypatch):
    X, y = _logistic_problem()
    path = LogisticRegressionPath(nlambda=8, max_iter=400, tol=1e-4)
    estimates = []
    lipschitz = logistic._lipschitz

    def counted(*args, **kwargs):
        estimates.append(args)
        return lipschitz(*args, **kwargs)

    monkeypatch.setattr(logistic, "_lipschitz", counted)
    models = path.fit(X, y)
    assert len(estimates) == 1  # one power iteration for the whole path

    lam_max = path.lambda_max(X, y)
    lams = np.geomspace(lam_max, lam_max * path.lambda_min_ratio, num=8)
    warm = None
    for model, lam in zip(models, lams):
        chained = L1LogisticRegression(
            lam=float(lam), max_iter=path.max_iter, tol=path.tol
        ).fit(X, y, warm_start=warm)
        warm = (chained.coef_, chained.intercept_)
        assert model.lam == chained.lam
        assert np.array_equal(model.coef_, chained.coef_)
        assert model.intercept_ == chained.intercept_
        assert model.n_iter_ == chained.n_iter_
        assert model.n_features_ == chained.n_features_
    assert len(estimates) == 1 + len(lams)  # the chain estimates per fit


# ----------------------------------------------------------------------
# DecisionTreeClassifier._best_split
# ----------------------------------------------------------------------
def reference_best_split(tree, stats, node_counts):
    """Best binary subset split of a node, one feature at a time.

    ``stats[j]`` is feature ``j``'s ``(levels, classes)`` integer count
    matrix over the node's rows.  Present levels are ordered by
    positive-class proportion (stable), every prefix but the full one is
    scored, the feature's first maximum is its winner, and a later
    feature's winner replaces an earlier one only when it scores more
    than ``1e-12`` higher.
    """
    impurity = impurity_function(tree.criterion)
    node_impurity = float(impurity(node_counts))
    n_node = int(node_counts.sum())
    minbucket = tree._effective_minbucket
    best = None
    for j, level_class in enumerate(stats):
        k = level_class.shape[0]
        level_totals = level_class.sum(axis=1)
        present = np.flatnonzero(level_totals)
        if present.size < 2:
            continue
        pos = level_class[present, -1] / level_totals[present]
        order = present[np.argsort(pos, kind="stable")]
        ordered = level_class[order].astype(np.float64)
        prefix = np.cumsum(ordered, axis=0)[:-1]
        total = level_class[present].sum(axis=0, dtype=np.float64)
        left_counts = prefix
        right_counts = total[np.newaxis, :] - prefix
        n_left = left_counts.sum(axis=1)
        n_right = right_counts.sum(axis=1)
        valid = (n_left >= minbucket) & (n_right >= minbucket)
        if not np.any(valid):
            continue
        child_impurity = (
            n_left * impurity(left_counts) + n_right * impurity(right_counts)
        )
        weighted_gain = n_node * node_impurity - child_impurity
        if tree.criterion == "gain_ratio":
            info = split_information(n_left, n_right)
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(
                    info > 0, (weighted_gain / n_node) / info, -np.inf
                )
        else:
            score = weighted_gain
        score = np.where(valid, score, -np.inf)
        pick = int(np.argmax(score))
        if not np.isfinite(score[pick]) or weighted_gain[pick] <= 1e-12:
            continue
        if best is None or score[pick] > best.score + 1e-12:
            goes_left = np.zeros(k, dtype=bool)
            goes_left[order[: pick + 1]] = True
            # Levels absent from the node follow the heavier branch.
            if n_left[pick] >= n_right[pick]:
                goes_left[level_totals == 0] = True
            best = _BestSplit(
                feature=j,
                goes_left=goes_left,
                score=float(score[pick]),
                weighted_gain=float(weighted_gain[pick]),
                left_counts=left_counts[pick],
                right_counts=right_counts[pick],
            )
    return best


def _search(tree, stats, node_counts):
    """The model's search over the same histograms, stacked."""
    offsets = np.concatenate(([0], np.cumsum([h.shape[0] for h in stats])))
    return tree._best_split(np.concatenate(stats), node_counts, offsets)


def _assert_same_split(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got.feature == expected.feature
    assert got.goes_left.dtype == bool
    assert np.array_equal(got.goes_left, expected.goes_left)
    assert got.score == expected.score
    assert got.weighted_gain == expected.weighted_gain
    assert np.array_equal(got.left_counts, expected.left_counts)
    assert np.array_equal(got.right_counts, expected.right_counts)


def _histograms(*features):
    return [np.array(h, dtype=np.int64) for h in features]


#: (per-feature histograms, tree parameters), two classes; node counts
#: are the column sums of any feature's histogram.
SPLIT_CASES = {
    # Feature 1 scores 3.6e-15 above feature 0 under gini: within the
    # margin, so feature 0 keeps the split.
    "features_tied_within_1e-12": (
        _histograms([[13, 17], [7, 13]], [[9, 11], [11, 19]]),
        {},
    ),
    "identical_features": (
        _histograms([[3, 0], [1, 4]], [[3, 0], [1, 4]]),
        {},
    ),
    # Feature 1's first and second prefixes score alike (mirror images).
    "tie_within_a_feature": (
        _histograms([[2, 1], [1, 2]], [[2, 0], [1, 1], [0, 2]]),
        {},
    ),
    # Levels 0 and 1 have the same proportion; minbucket 4 rules out the
    # prefixes that keep them together, so their order decides the split.
    "tied_proportions_keep_level_order": (
        _histograms([[3, 1], [6, 2], [2, 0], [1, 0]]),
        {"minbucket": 4},
    ),
    "every_candidate_below_minbucket": (
        _histograms([[3, 2], [2, 3]], [[4, 1], [0, 0], [1, 4]]),
        {"minbucket": 6},
    ),
    "fewer_than_two_present_levels": (
        _histograms([[0, 0], [4, 6], [0, 0]], [[4, 6]], [[4, 0], [0, 6]]),
        {},
    ),
    "only_single_level_features": (
        _histograms([[0, 0], [4, 6]], [[4, 6]]),
        {},
    ),
    # Absent levels 0, 2 and 4 join the heavier branch; on a tie, the left.
    "absent_levels_with_equal_branches": (
        _histograms([[0, 0], [4, 0], [0, 0], [0, 4], [0, 0]]),
        {},
    ),
    "absent_levels_with_a_heavier_right": (
        _histograms([[0, 0], [3, 0], [0, 0], [1, 4]]),
        {},
    ),
    # Split information is zero only for an empty branch, which no
    # candidate has; the nearest a histogram comes is a one-row branch.
    "smallest_split_information": (
        _histograms([[0, 1], [40, 0]], [[1, 1], [39, 0]]),
        {},
    ),
    "best_gain_at_most_1e-12": (
        _histograms([[2, 2], [2, 2]], [[1, 1], [3, 3]]),
        {},
    ),
    "no_gain_then_a_gain": (
        _histograms([[2, 2], [2, 2]], [[4, 0], [0, 4]]),
        {},
    ),
}


def _random_node(seed):
    """Histograms of 1-5 features (1-6 levels, some absent), 2-3 classes,
    counted from random rows, with the node's class counts."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 4))
    n = int(rng.integers(1, 60))
    y = rng.integers(0, n_classes, size=n)
    stats = []
    for k in rng.integers(1, 7, size=int(rng.integers(1, 6))):
        used = int(rng.integers(1, k + 1))  # levels past ``used`` are absent
        codes = rng.integers(0, used, size=n)
        stats.append(
            np.bincount(codes * n_classes + y, minlength=k * n_classes)
            .reshape(k, n_classes)
        )
    return stats, np.bincount(y, minlength=n_classes)


@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
@pytest.mark.parametrize(
    "case", [*SPLIT_CASES, "random_minbucket_unset", "random_minbucket_3"]
)
def test_split_search_equals_the_per_feature_scan(case, criterion):
    if case.startswith("random"):
        minbucket = None if case.endswith("unset") else 3
        nodes = [_random_node(seed) for seed in range(400)]
        trees = [
            DecisionTreeClassifier(
                criterion=criterion, minsplit=seed % 12 + 1, minbucket=minbucket
            )
            for seed in range(400)
        ]
    else:
        stats, params = SPLIT_CASES[case]
        nodes = [(stats, stats[0].sum(axis=0))]
        trees = [DecisionTreeClassifier(criterion=criterion, minsplit=1, **params)]
    for tree, (stats, node_counts) in zip(trees, nodes):
        _assert_same_split(
            _search(tree, stats, node_counts),
            reference_best_split(tree, stats, node_counts),
        )


#: Each named case's split under gini: (feature, goes_left), or None.
GINI_PICKS = {
    "features_tied_within_1e-12": (0, [True, False]),
    "identical_features": (0, [True, False]),
    "tie_within_a_feature": (1, [True, False, False]),
    "tied_proportions_keep_level_order": (0, [True, False, True, True]),
    "every_candidate_below_minbucket": None,
    "fewer_than_two_present_levels": (2, [True, False]),
    "only_single_level_features": None,
    "absent_levels_with_equal_branches": (0, [True, True, True, False, True]),
    "absent_levels_with_a_heavier_right": (0, [False, True, False, False]),
    "best_gain_at_most_1e-12": None,
    "no_gain_then_a_gain": (1, [True, False]),
}


@pytest.mark.parametrize("case", GINI_PICKS)
def test_gini_split_search_picks(case):
    stats, params = SPLIT_CASES[case]
    tree = DecisionTreeClassifier(criterion="gini", minsplit=1, **params)
    best = _search(tree, stats, stats[0].sum(axis=0))
    got = None if best is None else (best.feature, best.goes_left.tolist())
    assert got == GINI_PICKS[case]


# ----------------------------------------------------------------------
# DecisionTreeClassifier.predict_proba
# ----------------------------------------------------------------------
def node_by_node_proba(tree, X):
    """``predict_proba`` as one walk over the tree's nodes.

    Under ``unseen="error"``, one feature at a time, the first feature
    with a level training never saw raises with the code of its first
    such row.  Then rows go down depth first, left before right, one
    ``goes_left`` lookup per visited node, and each leaf writes
    ``counts / counts.sum()`` into its rows.
    """
    X = gathered(X)
    if tree.unseen == "error":
        for j in range(X.n_features):
            codes = X.codes[:, j]
            bad = codes[~tree.seen_levels_[j][codes]]
            if bad.size:
                raise UnseenCategoryError(tree.feature_names_[j], int(bad[0]))
    out = np.zeros((X.n_rows, tree.n_classes_), dtype=np.float64)
    stack = [(tree.root_, np.arange(X.n_rows))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.counts / node.counts.sum()
            continue
        mask = node.goes_left[X.codes[rows, node.feature]]
        stack.append((node.right, rows[~mask]))
        stack.append((node.left, rows[mask]))
    return out


def _assert_same_proba(tree, X):
    """The tree's probabilities equal the walk's bit for bit, or both
    raise the same unseen-level error."""
    try:
        expected = node_by_node_proba(tree, X)
    except UnseenCategoryError as error:
        with pytest.raises(UnseenCategoryError) as got:
            tree.predict_proba(X)
        assert (got.value.feature, got.value.code) == (error.feature, error.code)
        return
    got = tree.predict_proba(X)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


#: The star of :func:`_star`: fact features ``s0`` (2 levels) and ``s1``
#: (5), the FK (12 dimension rows) and the dimension's ``r0`` (3) and
#: ``r1`` (4).
_STAR_NAMES = ("s0", "s1", "fk", "r0", "r1")
_STAR_LEVELS = (2, 5, 12, 3, 4)


def _star(n, seed, n_classes=2):
    """``n`` rows of the star, its ``(12, 2)`` dimension block, labels,
    and which rows use only the levels training sees (FK below 9 and
    ``s1`` below 4)."""
    rng = np.random.default_rng(seed)
    block = rng.integers(0, _STAR_LEVELS[3:], size=(12, 2))
    fk = rng.integers(0, 12, size=n)
    fact = rng.integers(0, _STAR_LEVELS[:2], size=(n, 2))
    codes = np.column_stack([fact, fk, block[fk]])
    score = fact[:, 0] + block[fk, 0] + (fk % 3 == 0) + rng.integers(0, 2, size=n)
    y = score % n_classes
    seen = (fk < 9) & (fact[:, 1] < 4)
    return codes, block, y, seen


def _star_matrix(codes):
    return CategoricalMatrix(codes, _STAR_LEVELS, _STAR_NAMES)


def _factorized_star(codes, block):
    """The same rows with the dimension's features left in their block."""
    return FactorizedMatrix(
        _STAR_NAMES, _STAR_LEVELS, np.array([0, 1, 2]), codes[:, :3],
        [FactorizedGroup("R", np.array([3, 4]), codes[:, 2], block)],
    )


def _star_split(seed, n_classes=2):
    """A 900-row star: training rows are those of the first 600 that use
    seen levels; the other 300 rows (every level) are test rows."""
    codes, block, y, seen = _star(900, seed, n_classes)
    train = np.flatnonzero(seen[:600])
    return _star_matrix(codes[train]), y[train], codes[600:], block, seen[600:]


def _fitted_star(criterion, unseen, seed=0, n_classes=2, **params):
    """A tree fit on a star split, with the split's test rows."""
    X, y, codes, block, seen = _star_split(seed, n_classes)
    params = {"minsplit": 6, "cp": 0.0, **params}
    tree = DecisionTreeClassifier(criterion=criterion, unseen=unseen, **params)
    return tree.fit(X, y), codes, block, seen


@pytest.mark.parametrize("unseen", ["error", "majority"])
@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
@pytest.mark.parametrize(
    "case",
    ["seen_levels", "unseen_levels", "three_classes", "stump", "zero_rows",
     "zero_features", "factorized"],
)
def test_flat_prediction_equals_the_node_by_node_walk(case, criterion, unseen):
    if case == "zero_features":
        tree = DecisionTreeClassifier(criterion=criterion, unseen=unseen)
        tree.fit(CategoricalMatrix.empty(40), np.arange(40) % 2)
        for X in (CategoricalMatrix.empty(7), CategoricalMatrix.empty(0)):
            _assert_same_proba(tree, X)
        return
    tree, codes, block, seen = _fitted_star(
        criterion, unseen,
        n_classes=3 if case == "three_classes" else 2,
        **({"minsplit": 10_000} if case == "stump" else {}),
    )
    assert tree.depth_ == 0 if case == "stump" else tree.depth_ >= 3
    if case == "zero_rows":
        batches = [_star_matrix(codes[:0])]
    elif case == "factorized":
        batches = [_factorized_star(codes, block),
                   _factorized_star(codes[seen], block)]
    elif case == "seen_levels":
        batches = [_star_matrix(codes[seen]), _star_matrix(codes[seen][:1])]
    else:
        batches = [_star_matrix(codes), _star_matrix(codes[seen])]
    for X in batches:
        _assert_same_proba(tree, X)


@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
def test_flat_prediction_equals_the_walk_on_random_trees(criterion):
    """200 random data sets: 1-5 features of 1-40 levels (some unseen in
    training), 2-3 classes, minsplit 2-13, both policies; 30 test rows,
    and those of them whose every level training saw."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_levels = tuple(
            int(k) for k in rng.integers(1, 41, size=rng.integers(1, 6))
        )
        n = int(rng.integers(1, 120))
        codes = rng.integers(0, n_levels, size=(n + 30, len(n_levels)))
        noise = rng.integers(0, 2, size=n + 30)
        y = (codes.sum(axis=1) + noise) % int(rng.integers(2, 4))
        names = tuple(f"f{j}" for j in range(len(n_levels)))
        tree = DecisionTreeClassifier(
            criterion=criterion,
            minsplit=seed % 12 + 2,
            cp=0.0,
            unseen=("error", "majority")[seed % 2],
        ).fit(CategoricalMatrix(codes[:n], n_levels, names), y[:n])
        test = codes[n:]
        seen = np.all(
            [tree.seen_levels_[j][test[:, j]] for j in range(len(n_levels))],
            axis=0,
        )
        for rows in (test, test[seen]):
            _assert_same_proba(tree, CategoricalMatrix(rows, n_levels, names))


def test_batch_domains_wider_than_training_are_range_checked():
    """Codes inside the training domains route as the walk does; a code
    past them raises instead of reading another node's slot."""
    tree, codes, _, _ = _fitted_star("gini", "majority")
    wider = tuple(k + 3 for k in _STAR_LEVELS)
    _assert_same_proba(tree, CategoricalMatrix(codes, wider, _STAR_NAMES))
    codes = codes.copy()
    codes[5, 2] = _STAR_LEVELS[2]
    with pytest.raises(SchemaError, match="fk"):
        tree.predict_proba(CategoricalMatrix(codes, wider, _STAR_NAMES))


def test_refit_predicts_like_a_fresh_fit():
    """Refitting the same object on other data must drop the first
    tree's flat form."""
    X_train, y_train, codes, _, _ = _star_split(0)
    X_other, y_other, _, _, _ = _star_split(1)
    tree = DecisionTreeClassifier(minsplit=6, cp=0.0, unseen="majority")
    X = _star_matrix(codes)
    first = tree.fit(X_train, y_train).predict_proba(X)
    refit = tree.fit(X_other, y_other).predict_proba(X)
    fresh = DecisionTreeClassifier(minsplit=6, cp=0.0, unseen="majority")
    fresh.fit(X_other, y_other)
    assert not np.array_equal(refit, first)
    assert np.array_equal(refit, fresh.predict_proba(X))
    assert np.array_equal(refit, node_by_node_proba(fresh, X))


@pytest.mark.parametrize("predicted", [False, True], ids=["never", "already"])
def test_pickled_tree_predicts_like_a_fresh_fit(predicted):
    """A pickle carries the tree, not its flat form: an unpickled tree,
    like one saved before the flat form existed, builds its own."""
    tree, codes, _, _ = _fitted_star("entropy", "majority")
    fresh, _, _, _ = _fitted_star("entropy", "majority")
    X = _star_matrix(codes)
    if predicted:
        tree.predict_proba(X)
    payload = pickle.dumps(tree)
    assert payload == pickle.dumps(fresh)
    restored = pickle.loads(payload)
    assert np.array_equal(restored.predict_proba(X), fresh.predict_proba(X))
    assert np.array_equal(restored.predict_proba(X), node_by_node_proba(fresh, X))


# ----------------------------------------------------------------------
# DecisionTreeClassifier.prune
# ----------------------------------------------------------------------
PRUNE_CPS = (0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1)


def _random_tree_data(seed):
    """Random categorical training and test rows: 1-4 features of 1-12
    levels, 2-3 classes, 1-150 training rows; the 40 test rows use
    every level, so some are unseen in training."""
    rng = np.random.default_rng(seed)
    n_levels = tuple(int(k) for k in rng.integers(1, 13, size=rng.integers(1, 5)))
    n = int(rng.integers(1, 151))
    codes = rng.integers(0, n_levels, size=(n + 40, len(n_levels)))
    noise = rng.integers(0, 2, size=n + 40)
    y = (codes.sum(axis=1) + noise) % int(rng.integers(2, 4))
    names = tuple(f"f{j}" for j in range(len(n_levels)))
    return (
        CategoricalMatrix(codes[:n], n_levels, names),
        y[:n],
        CategoricalMatrix(codes[n:], n_levels, names),
    )


@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
def test_pruned_tree_equals_a_direct_fit(criterion):
    """10 random data sets x minsplit {1, 4, 12}: every tree grown at
    one cp of :data:`PRUNE_CPS` prunes to the direct fit at every cp at
    least as large, pickle for pickle, whether or not it predicted
    before (and so holds a flat form, which the pruned tree must not
    inherit)."""
    for seed in range(10):
        X, y, X_test = _random_tree_data(seed)
        for minsplit in (1, 4, 12):
            direct = {
                cp: DecisionTreeClassifier(
                    criterion=criterion, minsplit=minsplit, cp=cp,
                    unseen="majority", random_state=0,
                ).fit(X, y)
                for cp in PRUNE_CPS
            }
            payloads = {cp: pickle.dumps(tree) for cp, tree in direct.items()}
            for low, tree in direct.items():
                for high in PRUNE_CPS[PRUNE_CPS.index(low):]:
                    assert pickle.dumps(tree.prune(high)) == payloads[high]
                tree.predict_proba(X_test)
                for high in PRUNE_CPS[PRUNE_CPS.index(low):]:
                    pruned = tree.prune(high)
                    assert pickle.dumps(pruned) == payloads[high]
                    assert np.array_equal(
                        pruned.predict_proba(X_test),
                        direct[high].predict_proba(X_test),
                    )


@pytest.mark.parametrize("state", ["seed", "generator"])
def test_pruned_tree_draws_like_a_direct_fit(state):
    """Under ``unseen="random"`` a pruned tree shares its source's
    ``random_state`` as ``clone`` does, a ``Generator`` included, and
    draws for unseen test levels exactly as the direct fit does."""
    for seed in range(15):
        X, y, X_test = _random_tree_data(seed)
        random_state = seed if state == "seed" else np.random.default_rng(seed)
        tree = DecisionTreeClassifier(
            minsplit=2, cp=0.0, unseen="random", random_state=random_state
        ).fit(X, y)
        for cp in PRUNE_CPS:
            pruned = tree.prune(cp)
            direct = tree.clone(cp=cp).fit(X, y)
            assert pruned.random_state is direct.random_state is random_state
            assert pickle.dumps(pruned) == pickle.dumps(direct)
            if state == "generator":
                before = random_state.bit_generator.state
            got = pruned.predict_proba(X_test)
            if state == "generator":
                after = random_state.bit_generator.state
                random_state.bit_generator.state = before
            assert np.array_equal(got, direct.predict_proba(X_test))
            if state == "generator":
                assert random_state.bit_generator.state == after


# ----------------------------------------------------------------------
# GridSearch.fit over a tree grid
# ----------------------------------------------------------------------
def per_point_grid_search(search, X_train, y_train, X_val, y_val):
    """``search.fit`` as one fit per grid point, scored in grid order,
    the first of equal scores winning: the ``(params, validation
    accuracy)`` trace and the best point's score, model and params."""
    results, best = [], (-np.inf, None, {})
    for params in search.candidates():
        model = search.estimator.clone(**params)
        model.fit(X_train, y_train)
        score = model.score(X_val, y_val)
        results.append((params, score))
        if score > best[0]:
            best = (score, model, params)
    return results, best


def _assert_search_equals_the_oracle(make_search, X_train, y_train, X_val, y_val):
    """A search and the per-point loop agree on the trace, the best
    point and its score, and the best tree's pickle.  ``make_search``
    builds each its own template, so a ``Generator`` seed is not shared
    between the two."""
    search = make_search().fit(X_train, y_train, X_val, y_val)
    results, (score, model, params) = per_point_grid_search(
        make_search(), X_train, y_train, X_val, y_val
    )
    assert [
        (result.params, result.validation_accuracy) for result in search.results_
    ] == results
    assert search.best_params_ == params
    assert search.best_validation_accuracy_ == float(score)
    assert pickle.dumps(search.best_model_) == pickle.dumps(model)


TREE_SCALES = {"default": DEFAULT, "paper": PAPER}


@pytest.mark.parametrize("dataset", DATASET_ORDER)
@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
@pytest.mark.parametrize("scale", TREE_SCALES.values(), ids=TREE_SCALES.keys())
def test_tree_grid_search_equals_one_fit_per_point(scale, criterion, dataset):
    """The registry's tree tuner at the DEFAULT and PAPER scales, on an
    emulator (n_fact 800, seed 0; JoinAll, or NoJoin for every other
    data set)."""
    strategy = (join_all_strategy, no_join_strategy)[
        DATASET_ORDER.index(dataset) % 2
    ]()
    matrices = strategy.matrices(generate_real_world(dataset, n_fact=800, seed=0))
    _assert_search_equals_the_oracle(
        lambda: MODEL_REGISTRY[f"dt_{criterion}"].make_tuner(scale),
        matrices.X_train, matrices.y_train,
        matrices.X_validation, matrices.y_validation,
    )


#: cp values a drawn grid picks from, repeats allowed.
_CP_VALUES = (0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["gini", "entropy", "gain_ratio"]),
    st.sampled_from(["default", "paper", "drawn"]),
    st.lists(st.sampled_from(_CP_VALUES), min_size=1, max_size=5),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
    st.booleans(),
    st.sampled_from(["majority", "random-seed", "random-generator"]),
)
def test_tree_grid_search_equals_one_fit_per_point_on_drawn_data(
    seed, criterion, grid_name, cps, minsplits, cp_first, unseen
):
    """Drawn data under the DEFAULT and PAPER grids and drawn grids (cp
    repeats, its smallest value anywhere, the cp axis first or second),
    under ``unseen="majority"`` and ``"random"`` with a seed or a
    ``Generator``: scoring the validation rows in grid order keeps the
    draws the per-point loop makes."""
    X, y, X_val = _random_tree_data(seed)
    y_val = np.random.default_rng(seed + 1).integers(0, 2, size=X_val.n_rows)
    if grid_name == "drawn":
        axes = [("cp", cps), ("minsplit", minsplits)]
        grid = dict(axes if cp_first else axes[::-1])
    else:
        grid = TREE_SCALES[grid_name].grid_for("dt_gini")

    def make_search():
        policy, _, state = unseen.partition("-")
        random_state = np.random.default_rng(seed) if state == "generator" else 0
        return GridSearch(
            DecisionTreeClassifier(
                criterion=criterion, unseen=policy, random_state=random_state
            ),
            grid,
        )

    _assert_search_equals_the_oracle(make_search, X, y, X_val, y_val)


# ----------------------------------------------------------------------
# FactorizedMatrix.matmul / rmatmul, the 1-D gather-sum, _sigmoid
# ----------------------------------------------------------------------
def per_column_matmul(X: FactorizedMatrix, W: np.ndarray) -> np.ndarray:
    """``X @ W`` with one gather per block column (the plain kernel)."""
    W = np.asarray(W, dtype=np.float64)
    out = np.zeros((X.n_rows,) + W.shape[1:], dtype=np.float64)
    if len(X.fact_positions):
        flat = X.fact_codes + X.offsets[X.fact_positions][np.newaxis, :]
        if W.ndim == 1:
            out += W[flat].sum(axis=1)
        else:
            for j in range(flat.shape[1]):
                out += W[flat[:, j]]
    for group in X.groups:
        contrib = np.zeros((group.n_dim_rows,) + W.shape[1:], dtype=np.float64)
        for c, position in enumerate(group.positions):
            contrib += W[group.block[:, c] + X.offsets[position]]
        out += contrib[group.dim_rows]
    return out


def per_column_rmatmul(X: FactorizedMatrix, V: np.ndarray) -> np.ndarray:
    """``X.T @ V`` with one ``bincount`` per block column (the plain kernel)."""
    V = np.asarray(V, dtype=np.float64)
    if X.n_features == 0:
        return np.zeros((0,) + V.shape[1:], dtype=np.float64)
    k = 1 if V.ndim == 1 else int(np.prod(V.shape[1:]))
    V2 = V.reshape(V.shape[0], k)
    out = np.zeros((X.width, k), dtype=np.float64)
    d_fact = len(X.fact_positions)
    if d_fact:
        flat = (X.fact_codes + X.offsets[X.fact_positions][np.newaxis, :]).ravel()
        for column in range(k):
            weights = V2[:, column] if d_fact == 1 else np.repeat(V2[:, column], d_fact)
            out[:, column] += np.bincount(flat, weights=weights, minlength=X.width)
    for group in X.groups:
        totals = np.empty((group.n_dim_rows, k), dtype=np.float64)
        for column in range(k):
            totals[:, column] = np.bincount(
                group.dim_rows, weights=V2[:, column], minlength=group.n_dim_rows
            )
        for c, position in enumerate(group.positions):
            offset = int(X.offsets[position])
            n_levels = X.n_levels[position]
            for column in range(k):
                out[offset : offset + n_levels, column] += np.bincount(
                    group.block[:, c], weights=totals[:, column], minlength=n_levels
                )
    return out.reshape((X.width,) + V.shape[1:])


def row_sum_matmul(X: OneHotMatrix, w: np.ndarray) -> np.ndarray:
    """A 1-D ``X @ w`` as one gather and a row sum (the plain kernel)."""
    return w[X.codes + X.offsets[:-1][np.newaxis, :]].sum(axis=1)


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function by boolean masks (the plain kernel)."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    e = np.exp(z[~positive])
    out[~positive] = e / (1.0 + e)
    return out


def _assert_bitwise(got, expected):
    """Equal bit for bit, signed zeros and infinities included.  Any NaN
    equals any NaN: which NaN ``inf - inf`` propagates through a sum is
    the one bit pattern the two summation loops may differ in."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(expected[numbers]))


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1.0, -1.0])


def _operand(rng, shape, kind):
    """Random normals, the special values, or a mix of both."""
    normals = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    if kind == "normal":
        return normals
    specials = rng.choice(SPECIALS, size=shape)
    if kind == "special":
        return specials
    return np.where(rng.random(shape) < 0.2, specials, normals)


def _random_factorized(seed, n, d_fact, widths, interleave):
    """A random factorized matrix: ``d_fact`` per-row columns and one
    group per entry of ``widths``, its features adjacent or interleaved
    with every other feature (a span wider than the group).  With no
    groups it is the gathered shard's operand, a :class:`OneHotMatrix`."""
    rng = np.random.default_rng(seed)
    d = d_fact + sum(widths)
    levels = rng.integers(1, 6, size=d)
    order = rng.permutation(d) if interleave else np.arange(d)
    fact_positions = np.sort(order[:d_fact])
    groups, start = [], d_fact
    for g, width in enumerate(widths):
        positions = np.sort(order[start : start + width])
        start += width
        n_dim = int(rng.integers(1, 9))
        block = rng.integers(0, levels[positions], size=(n_dim, width))
        dim_rows = rng.integers(0, n_dim, size=n)
        groups.append(FactorizedGroup(f"D{g}", positions, dim_rows, block))
    fact = rng.integers(0, levels[fact_positions], size=(n, d_fact))
    names = [f"f{j}" for j in range(d)]
    if not widths:
        return OneHotMatrix(CategoricalMatrix(fact, levels, names))
    return FactorizedMatrix(names, levels, fact_positions, fact, groups)


FACTORIZED_SHAPES = {
    "one-group": (40, 3, (2,), False),
    "three-groups": (60, 2, (1, 3, 4), False),
    "interleaved": (50, 4, (2, 3), True),
    "no-fact-columns": (30, 0, (3, 2), False),
    "interleaved-no-fact": (30, 0, (2, 2), True),
    "wide-fact": (30, 9, (5,), True),
    "zero-rows": (0, 3, (2, 1), False),
    "one-row": (1, 1, (1,), False),
    "no-block-zero-rows": (0, 3, (), False),
    "no-block-one-column": (30, 1, (), False),
    "no-block-narrow": (40, 5, (), False),
    "no-block-eight-columns": (40, 8, (), False),
    "no-block-wide": (40, 11, (), False),
}


@pytest.mark.parametrize("kind", ["normal", "special", "mixed"])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize(
    "shape", FACTORIZED_SHAPES.values(), ids=FACTORIZED_SHAPES.keys()
)
def test_factorized_kernels_equal_the_per_column_loops(shape, ndim, kind):
    for seed in range(4):
        X = _random_factorized(seed, *shape)
        assert isinstance(X, OneHotMatrix) == (not shape[2])
        rng = np.random.default_rng(100 + seed)
        trailing = () if ndim == 1 else (3,)
        W = _operand(rng, (X.width,) + trailing, kind)
        V = _operand(rng, (X.n_rows,) + trailing, kind)
        with np.errstate(all="ignore"):
            for operand in (X, X.resident()):
                _assert_bitwise(operand.matmul(W), per_column_matmul(X, W))
                _assert_bitwise(operand.rmatmul(V), per_column_rmatmul(X, V))


@pytest.mark.parametrize("layout", ["plan", "gather", "factorize"])
def test_encoded_shard_kernels_equal_the_per_column_loops(force_layout, layout):
    """A 10k-row Expedia shard (the plan blocks hotels and gathers
    searches), with zeros of both signs in the weights as FISTA's
    soft-threshold leaves them."""
    expedia = generate_real_world("expedia", n_fact=20_000, seed=101)
    encoder = ShardEncoder(expedia.schema, join_all_strategy())
    rows = expedia.schema.fact.select(expedia.train[:10_000])
    if layout == "plan":
        X, _ = encoder.encode_shard(rows)
    else:
        with force_layout(layout):
            X, _ = encoder.encode_shard(rows)
    if not isinstance(X, FactorizedMatrix):
        X = OneHotMatrix(X)
    rng = np.random.default_rng(7)
    w = rng.normal(size=X.width)
    w[rng.random(X.width) < 0.5] = -0.0
    v = rng.normal(size=X.n_rows)
    for operand in (X, X.resident()):
        _assert_bitwise(operand.matmul(w), per_column_matmul(X, w))
        _assert_bitwise(operand.rmatmul(v), per_column_rmatmul(X, v))
        _assert_bitwise(operand.matmul(np.full(X.width, -0.0)), np.zeros(X.n_rows))


def test_flat_blocks_are_c_ordered_and_resident_bytes_do_not_grow():
    """Each block column is one contiguous row of the flat block (an
    F-ordered ``codes.T + offsets`` made the gather ~30% slower), and a
    resident group holds the flat block in place of the block."""
    X = _random_factorized(3, 40, 2, (3, 4), True)
    resident = X.resident()
    for group, kept in zip(X.groups, resident.groups):
        flat = group.flat_block(X.offsets)
        assert flat.flags.c_contiguous
        assert flat.shape == (len(group.positions), group.n_dim_rows)
        assert kept.flat_block(X.offsets) is flat
        assert np.array_equal(kept.block, group.block)
        assert kept.n_dim_rows == group.n_dim_rows
        assert kept.nbytes == (
            group.positions.nbytes + group.dim_rows.nbytes + group.block.nbytes
        )
        sliced = kept.take_rows(slice(5, 9))
        assert np.array_equal(sliced.block, group.block)


@pytest.mark.parametrize("d", range(1, 10))
def test_one_dimensional_matmul_equals_the_row_sum(d):
    """Below numpy's 8-wide pairwise unroll a row sum adds left to right
    from zero; the column-by-column adds that replace it do the same."""
    rng = np.random.default_rng(d)
    levels = tuple(int(k) for k in rng.integers(1, 7, size=d))
    for n in (0, 1, 37):
        codes = np.column_stack([rng.integers(0, k, size=n) for k in levels])
        X = OneHotMatrix(CategoricalMatrix(codes.reshape(n, d), levels, [f"f{j}" for j in range(d)]))
        for kind in ("normal", "special", "mixed"):
            w = _operand(rng, (X.width,), kind)
            with np.errstate(all="ignore"):
                _assert_bitwise(X.matmul(w), row_sum_matmul(X, w))
                _assert_bitwise(X.resident().matmul(w), row_sum_matmul(X, w))


def test_sigmoid_equals_the_masked_form():
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [
            SPECIALS,
            [5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0, 36.0, -36.0],
            rng.normal(size=4_000) * 10.0 ** rng.integers(-8, 3, size=4_000),
        ]
    )
    for values in (z, rng.permutation(z), z[:0], z[4:5], -z):
        _assert_bitwise(logistic._sigmoid(values), masked_sigmoid(values))


def one_operand_lipschitz(X, fit_intercept: bool) -> float:
    """FISTA's step-size bound by power iteration on one operand's
    ``rmatmul(X, matmul(X, v))`` (the plain loop, no shard passes)."""
    encoded = sparse.encode_features(X)
    n, width = encoded.shape
    intercept = 0.25 if fit_intercept else 0.0
    v = ensure_rng(0).normal(size=width)
    norm = np.linalg.norm(v)
    if norm == 0 or width == 0:
        return 1.0 + intercept
    v /= norm
    sigma = 1.0
    for _ in range(30):
        v = sparse.rmatmul(encoded, sparse.matmul(encoded, v))
        norm = np.linalg.norm(v)
        if norm == 0:
            break
        sigma = norm
        v /= norm
    return max(sigma / (4.0 * n), 1e-12) + intercept


@pytest.mark.parametrize("layout", ["gather", "factorize"])
def test_one_operand_lipschitz_equals_the_shard_pass_estimate(force_layout, layout):
    """A fit's ``_lipschitz`` (power iteration over shard passes) and
    :func:`one_operand_lipschitz` return the same float on one shard
    of either layout."""
    dataset = generate_real_world("flights", n_fact=2_000, seed=3)
    encoder = ShardEncoder(dataset.schema, join_all_strategy())
    rows = dataset.schema.fact.select(dataset.train)
    with force_layout(layout):
        X, y = encoder.encode_shard(rows)
    assert isinstance(X, FactorizedMatrix) == (layout == "factorize")
    for fit_intercept in (True, False):
        passes = ShardPasses(MatrixSource(X, y), logistic._prepare)
        assert logistic._lipschitz(passes, fit_intercept) == (
            one_operand_lipschitz(X, fit_intercept)
        )


# ----------------------------------------------------------------------
# ShardEncoder.assemble
# ----------------------------------------------------------------------
def _resolve(encoder, name, fk, fact_codes):
    """A joined dimension's cached index and resolved row per fact row,
    read from a column mapping, as ``ShardEncoder`` resolved one before
    it took only code tables."""
    entry = encoder.cache.get(name)
    try:
        fk_codes = np.asarray(fact_codes[fk], dtype=np.int64)
    except KeyError:
        raise SchemaError(
            f"request batch lacks foreign key {fk!r} needed "
            f"to resolve dimension {name!r}"
        ) from None
    return entry, resolve_dimension_rows(
        encoder.schema, name, fk_codes, row_of_code=entry.row_of_code
    )


def per_feature_assemble(encoder: ShardEncoder, fact_codes):
    """Feature-by-feature assembly from a column mapping (the plain
    path): one read, gather and stack entry per feature."""
    n = None
    for column, codes in fact_codes.items():
        codes = np.asarray(codes)
        if n is None:
            n = codes.shape[0]
        elif codes.shape[0] != n:
            raise SchemaError(
                f"ragged request batch: column {column!r} has "
                f"{codes.shape[0]} rows, expected {n}"
            )
    if n is None:
        raise ValueError("cannot assemble an empty request batch")
    schema = encoder.schema
    foreign_of = {
        feature: (name, schema.constraint(name).fk_column)
        for name in encoder.strategy.joined_dimensions(schema)
        for feature in schema.foreign_features(name)
    }
    entries, dim_rows, blocks = {}, {}, {}
    columns, positions, fact = [], [], []
    for position, feature in enumerate(encoder.feature_names):
        owner = foreign_of.get(feature)
        if owner is None:
            try:
                codes = np.asarray(fact_codes[feature], dtype=np.int64)
            except KeyError:
                raise SchemaError(
                    f"request batch lacks fact column {feature!r}"
                ) from None
            fact.append(codes)
        else:
            name = owner[0]
            if name not in entries:
                entries[name], dim_rows[name] = _resolve(
                    encoder, name, owner[1], fact_codes
                )
                if encoder_module.factorize_dimension(
                    n,
                    encoder.schema.dimension(name).n_rows,
                    len(encoder._dimension_features[name]),
                ):
                    blocks[name] = []
            if name in blocks:
                blocks[name].append(position)
                continue
            codes = entries[name].feature_codes[feature][dim_rows[name]]
        columns.append(codes)
        positions.append(position)
    if fact:
        check_code_ranges(
            np.stack(fact).T, encoder._fact_levels, encoder._fact_features
        )
    if not blocks:
        if not columns:
            return CategoricalMatrix.empty(n)
        return CategoricalMatrix(
            np.stack(columns, axis=1), encoder.n_levels, encoder.feature_names,
            validate=False,
        )
    return FactorizedMatrix(
        encoder.feature_names,
        encoder.n_levels,
        np.asarray(positions, dtype=np.int64),
        np.stack(columns, axis=1) if columns else np.zeros((n, 0), dtype=np.int64),
        [
            FactorizedGroup(
                name,
                block_positions,
                dim_rows[name],
                encoder._block(name, entries[name]),
            )
            for name, block_positions in blocks.items()
        ],
    )


def _assert_same_matrix(got, expected):
    assert type(got) is type(expected)
    assert got.names == expected.names and got.n_levels == expected.n_levels
    if isinstance(expected, CategoricalMatrix):
        assert got.codes.dtype == expected.codes.dtype
        assert got.codes.flags.c_contiguous == expected.codes.flags.c_contiguous
        assert np.array_equal(got.codes, expected.codes)
        return
    assert np.array_equal(got.fact_positions, expected.fact_positions)
    assert np.array_equal(got.fact_codes, expected.fact_codes)
    assert [g.name for g in got.groups] == [g.name for g in expected.groups]
    for group, oracle in zip(got.groups, expected.groups):
        assert np.array_equal(group.positions, oracle.positions)
        assert np.array_equal(group.dim_rows, oracle.dim_rows)
        assert np.array_equal(group.block, oracle.block)


def _raised(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the exception is the result
        return type(error), str(error)
    return None


def _table(encoder, fact_codes):
    """The ``(n, k)`` code table of a complete column mapping."""
    return np.stack([fact_codes[c] for c in encoder.required_columns], axis=1)


def _batches(dataset, encoder, sizes):
    fact = dataset.schema.fact
    rows = np.concatenate([dataset.train, dataset.test])
    start = 0
    for size in sizes:
        chosen = fact.select(rows[start : start + size])
        start += size
        yield {c: chosen.codes(c) for c in encoder.required_columns}


ASSEMBLY_CASES = {
    # name: (dataset, n_fact, strategy, layout, batch sizes)
    "flights-joinall-served": ("flights", 4_000, join_all_strategy, "plan", (64, 1, 64, 0)),
    "expedia-joinall-plan": ("expedia", 20_000, join_all_strategy, "plan", (10_000, 64, 10_000)),
    "yelp-nofk-no-fact-columns": ("yelp", 1_000, no_fk_strategy, "plan", (64, 0)),
    "yelp-nofk-blocked": ("yelp", 1_000, no_fk_strategy, "factorize", (200, 3)),
    "movies-joinall-gathered": ("movies", 1_000, join_all_strategy, "gather", (100, 0)),
    "movies-joinall-blocked": ("movies", 1_000, join_all_strategy, "factorize", (100, 0, 7)),
    "flights-mixed": ("flights", 4_000, join_all_strategy, "mixed", (64, 500)),
    "walmart-nojoin": ("walmart", 1_000, no_join_strategy, "plan", (64, 0)),
}


@pytest.mark.parametrize("case", ASSEMBLY_CASES.values(), ids=ASSEMBLY_CASES.keys())
def test_assembly_plan_equals_the_per_feature_path(case, force_layout):
    """Matrices, and the cache's hits, misses and builds after every
    batch, from the code table against the per-feature path on its own
    encoder, fed the same codes as a column mapping.  Each batch looks
    up each joined dimension that keeps a feature once."""
    name, n_fact, strategy, layout, sizes = case
    dataset = generate_real_world(name, n_fact=n_fact, seed=5)
    oracle_encoder = ShardEncoder(dataset.schema, strategy())
    encoder = ShardEncoder(dataset.schema, strategy())
    with pytest.MonkeyPatch.context() as patch:
        if layout == "mixed":  # block the airline, gather the airports
            patch.setattr(
                encoder_module, "factorize_dimension",
                lambda n, dim_rows, kept: kept == 5,
            )
        elif layout != "plan":
            patch.setattr(
                encoder_module, "factorize_dimension",
                lambda *shape: layout == "factorize",
            )
        kept = sum(
            any(
                feature in oracle_encoder.feature_names
                for feature in dataset.schema.foreign_features(dimension)
            )
            for dimension in oracle_encoder.joined_dimensions
        )
        for k, codes in enumerate(_batches(dataset, oracle_encoder, sizes), 1):
            expected = per_feature_assemble(oracle_encoder, codes)
            _assert_same_matrix(encoder.assemble(_table(encoder, codes)), expected)
            stats = encoder.cache.stats
            assert stats == oracle_encoder.cache.stats
            assert stats.hits + stats.misses == k * kept


def _bad_batches(dataset, encoder):
    """(label, mapping) pairs, every required column present, that each
    break one rule, or several."""
    fact = dataset.schema.fact
    good = {c: fact.codes(c)[dataset.test[:20]].copy() for c in encoder.required_columns}
    fact_features = encoder._fact_features
    dims = list(encoder._dimension_features)
    fk_of = {
        name: dataset.schema.constraint(name).fk_column for name in dims
    }

    def changed(**columns):
        return {**good, **columns}

    if fact_features:
        first = fact_features[0]
        bad = good[first].copy()
        bad[-1] = -1
        yield "fact-code-below-range", changed(**{first: bad})
        bad = good[fact_features[-1]].copy()
        bad[0] = 10**6
        yield "fact-code-above-range", changed(**{fact_features[-1]: bad})
    for name in dims:
        fk = fk_of[name]
        bad = good[fk].copy()
        bad[len(bad) // 2] = 10**7
        yield f"dangling-{name}", changed(**{fk: bad})
        bad2 = good[fk].copy()
        bad2[:] = -1
        yield f"negative-fk-{name}", changed(**{fk: bad2})
        if fact_features:
            wrong = good[fact_features[0]].copy()
            wrong[0] = -5
            yield f"dangling-{name}-and-bad-fact-code", changed(
                **{fk: bad2, fact_features[0]: wrong}
            )
    if len(dims) > 1:
        first, last = fk_of[dims[0]], fk_of[dims[-1]]
        bad = good[first].copy()
        bad[0] = 10**7
        bad_last = good[last].copy()
        bad_last[:] = -1
        yield "dangling-first-and-last-fk", changed(**{first: bad, last: bad_last})


def _dangling_star():
    """Two dimensions; the fact's key ``b2`` is in D2's key domain but has
    no D2 row, a referential-integrity violation inside the domain."""
    key_a, key_b, flag = Domain.of_size(3, prefix="a"), Domain.of_size(3, prefix="b"), Domain.boolean()
    d1 = Table("D1", [CategoricalColumn("A", key_a, [0, 1, 2]), CategoricalColumn("A_f", flag, [0, 1, 0])])
    d2 = Table("D2", [CategoricalColumn("B", key_b, [0, 1]), CategoricalColumn("B_f", flag, [1, 1])])
    fact = Table(
        "F",
        [
            CategoricalColumn("Y", flag, [0, 1, 0, 1]),
            CategoricalColumn("H", flag, [1, 0, 0, 1]),
            CategoricalColumn("A", key_a, [0, 1, 2, 0]),
            CategoricalColumn("B", key_b, [0, 1, 2, 1]),
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


ERROR_CASES = {
    "churn-joinall": ("churn", join_all_strategy),
    "churn-nofk": ("churn", no_fk_strategy),
    "dangling-star-joinall": ("dangling", join_all_strategy),
    "dangling-star-nofk": ("dangling", no_fk_strategy),
    "flights-joinall": ("flights", join_all_strategy),
    "flights-nofk": ("flights", no_fk_strategy),
    "yelp-nofk": ("yelp", no_fk_strategy),
}


@pytest.mark.parametrize("layout", ["gather", "factorize"])
@pytest.mark.parametrize("case", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_assembly_errors_equal_the_per_feature_path(case, layout, force_layout, churn_schema):
    """The same exception type and message for every malformed code
    table as for its column mapping on the per-feature path, and the
    same cache accounting after it."""
    name, strategy = case
    if name in ("churn", "dangling"):
        schema = churn_schema if name == "churn" else _dangling_star()
        dataset = SimpleNamespace(schema=schema, test=np.arange(schema.fact.n_rows))
    else:
        dataset = generate_real_world(name, n_fact=1_000, seed=9)
        schema = dataset.schema
    oracle_encoder = ShardEncoder(schema, strategy())
    encoder = ShardEncoder(schema, strategy())
    seen = 0
    with force_layout(layout):
        for label, batch in _bad_batches(dataset, encoder):
            expected = _raised(lambda: per_feature_assemble(oracle_encoder, batch))
            got = _raised(lambda: encoder.assemble(_table(encoder, batch)))
            assert got == expected, label
            assert expected is not None, label
            assert encoder.cache.stats == oracle_encoder.cache.stats, label
            seen += 1
    assert seen >= 4
