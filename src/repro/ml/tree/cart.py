"""Binary CART decision trees over categorical features.

Split search follows the classic CART treatment of categorical
predictors for binary classification: within a node, the levels of a
feature are ordered by their positive-class proportion and only the
prefix partitions of that order are scored — for gini and entropy this
finds the *optimal* binary subset split without enumerating all
``2^(m-1) - 1`` subsets (Breiman et al., 1984).  The same candidate set
is scored by gain ratio when that criterion is selected.

Hyper-parameters mirror R's ``rpart`` (the package the paper used):

- ``minsplit`` — minimum node size for a split to be attempted;
- ``minbucket`` — minimum child size (defaults to ``minsplit // 3``,
  rpart's default);
- ``cp`` — complexity parameter: a split must reduce the tree's overall
  impurity by at least ``cp`` relative to the root's impurity.

Unseen-level behaviour at prediction time is explicit: ``unseen='error'``
reproduces the R crash the paper reports for foreign-key features
(Section 6.2); ``unseen='majority'`` routes unseen levels down the
heavier branch at each split.

Split search consumes only per-node *histograms* — for each feature, a
``(levels, classes)`` count matrix — never the rows themselves.  That
makes training streamable, and the tree has one builder,
:meth:`DecisionTreeClassifier.fit_stream`: it grows the tree
breadth-first over any :class:`repro.data.FeatureSource`, one pass per
level, and ``fit(X, y)`` runs it over one in-memory shard.  Integer
histograms are associative over shards, so the tree is **identical**
for every shard layout.  One descent routes rows in training and in
prediction; it reads raw codes row by row, so factorized shards are
gathered first.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.data.source import MatrixSource, ShardPasses
from repro.errors import UnseenCategoryError
from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import gathered
from repro.ml.tree.criteria import entropy, impurity_function, split_information
from repro.rng import ensure_rng

_UNSEEN_POLICIES = ("error", "majority", "random")


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Leaves carry a prediction; internal nodes carry the split feature, a
    boolean ``goes_left`` routing mask over that feature's full domain,
    and two children.
    """

    counts: np.ndarray
    prediction: int
    depth: int
    feature: int | None = None
    goes_left: np.ndarray | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


@dataclass
class _BestSplit:
    feature: int
    goes_left: np.ndarray
    score: float
    weighted_gain: float
    left_counts: np.ndarray
    right_counts: np.ndarray


def _gathered_shard(X, y) -> tuple:
    """A read shard as the level passes route it: gathered codes."""
    return gathered(X), np.asarray(y)


class DecisionTreeClassifier(Estimator):
    """CART decision tree for categorical features and binary targets.

    Parameters
    ----------
    criterion:
        ``'gini'``, ``'entropy'`` (information gain), or ``'gain_ratio'``.
    minsplit:
        Minimum number of samples a node needs for a split attempt.
    cp:
        Complexity parameter; splits whose impurity decrease, scaled by
        the root impurity and the training-set size, falls below ``cp``
        are pruned off (rpart semantics).
    minbucket:
        Minimum samples in each child; ``None`` uses ``minsplit // 3``
        (at least 1), rpart's default.
    max_depth:
        Optional hard depth cap (the paper's grids never needed one, but
        simulations use it for stress tests).
    unseen:
        Prediction-time policy for feature levels never seen in training:
        ``'error'`` raises :class:`UnseenCategoryError` (reproducing R),
        ``'majority'`` follows the heavier branch, ``'random'`` picks a
        branch uniformly per example.
    random_state:
        Seed for the ``'random'`` unseen policy.
    """

    _param_names = (
        "criterion",
        "minsplit",
        "cp",
        "minbucket",
        "max_depth",
        "unseen",
        "random_state",
    )

    def __init__(
        self,
        criterion: str = "gini",
        minsplit: int = 20,
        cp: float = 0.01,
        minbucket: int | None = None,
        max_depth: int | None = None,
        unseen: str = "error",
        random_state: int | None = None,
    ):
        self.criterion = criterion
        self.minsplit = minsplit
        self.cp = cp
        self.minbucket = minbucket
        self.max_depth = max_depth
        self.unseen = unseen
        self.random_state = random_state

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X: CategoricalMatrix, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree over one in-memory matrix: :meth:`fit_stream`
        over a one-shard :class:`repro.data.MatrixSource`."""
        y = check_X_y(X, y)
        return self.fit_stream(MatrixSource(X, y))

    def fit_stream(self, source) -> "DecisionTreeClassifier":
        """Grow the tree over a :class:`repro.data.FeatureSource`.

        Breadth-first histogram streaming: a first pass collects the
        label counts, seen levels and row total; then each tree level
        costs one pass over the shards, bringing every row to its
        frontier node and accumulating per-node per-feature
        ``(levels, classes)`` histograms, from which
        :meth:`_best_split_from_stats` decides all of the level's
        splits.  Integer sums do not depend on how rows fall into
        shards, so the tree is the same for every shard layout.  The
        passes read through one :class:`repro.data.source.ShardPasses`
        that keeps the first
        :data:`~repro.data.source.RESIDENT_SHARDS` shards gathered, so
        a stream within the cap is read, joined and gathered once per
        fit; for those shards the fit also remembers each row's
        frontier node (one row index per row), so a level moves rows
        one step instead of routing them from the root.  A shard past
        the cap leaves only the frontier's histograms behind — bounded
        by tree width, not by ``n_rows``.
        """
        self._validate_hyperparameters()
        self._reset()
        names = tuple(source.feature_names)
        n_levels = tuple(int(k) for k in source.n_levels)
        impurity = impurity_function(self.criterion)

        # Pass 0: label counts, per-feature seen levels, total rows.
        label_counts = np.zeros(0, dtype=np.int64)
        seen = [np.zeros(k, dtype=bool) for k in n_levels]
        n_total = 0
        passes = ShardPasses(source, _gathered_shard)
        for _, (X, y) in passes():
            y = check_X_y(X, y)
            if tuple(X.n_levels) != n_levels:
                raise ValueError(
                    f"shard has feature levels {X.n_levels}, source "
                    f"advertises {n_levels}; shards must share closed domains"
                )
            shard_counts = np.bincount(y)
            if shard_counts.size > label_counts.size:
                shard_counts[: label_counts.size] += label_counts
                label_counts = shard_counts
            else:
                label_counts[: shard_counts.size] += shard_counts
            for j in range(len(n_levels)):
                seen[j][np.unique(X.codes[:, j])] = True
            n_total += y.size
        if n_total == 0:
            raise ValueError("cannot fit on zero examples")

        self.n_classes_ = max(int(label_counts.size), 2)
        self.feature_names_ = names
        self.n_levels_ = n_levels
        self.seen_levels_ = seen
        root_counts = np.zeros(self.n_classes_, dtype=np.int64)
        root_counts[: label_counts.size] = label_counts
        self._root_impurity = float(impurity(root_counts))
        self._n_total = n_total
        root = TreeNode(
            counts=root_counts,
            prediction=int(np.argmax(root_counts)),
            depth=0,
        )
        self.root_ = root

        # One pass per level: accumulate the frontier's histograms, then
        # split every frontier node from the totals.  ``reached`` keeps,
        # per kept shard, the frontier nodes its rows reached last level,
        # so descending from them moves each row one step; the other
        # shards descend from the root.
        reached: dict[int, list[tuple[TreeNode, np.ndarray]]] = {}
        frontier = [root] if self._splittable(root_counts, 0) else []
        while frontier:
            stats: dict[int, list[np.ndarray] | None] = dict.fromkeys(
                id(node) for node in frontier
            )
            for index, (X, y) in passes():
                starts = reached.get(index)
                if starts is None:
                    starts = [(root, np.arange(X.n_rows))]
                at_frontier = [
                    (node, rows)
                    for start, start_rows in starts
                    for node, rows in self._descend(start, X, start_rows)
                    if id(node) in stats
                ]
                if index in passes.resident:
                    reached[index] = at_frontier
                for node, rows in at_frontier:
                    y_rows = y[rows]
                    histograms = [
                        np.bincount(
                            X.codes[rows, j] * self.n_classes_ + y_rows,
                            minlength=k * self.n_classes_,
                        ).reshape(k, self.n_classes_)
                        for j, k in enumerate(n_levels)
                    ]
                    # A node's first shard's histograms become its totals,
                    # so a one-shard fit allocates nothing more; later
                    # shards add to them.
                    totals = stats[id(node)]
                    if totals is None:
                        stats[id(node)] = histograms
                    else:
                        for total, histogram in zip(totals, histograms):
                            total += histogram
            next_frontier: list[TreeNode] = []
            for node in frontier:
                best = self._best_split_from_stats(stats[id(node)], node.counts)
                if best is None or not self._passes_cp(best):
                    continue  # stays a leaf
                node.feature = best.feature
                node.goes_left = best.goes_left
                node.gain = best.weighted_gain
                for child_counts, side in (
                    (best.left_counts, "left"),
                    (best.right_counts, "right"),
                ):
                    # Prefix sums of integer histograms are exact; store
                    # them as int64 counts.
                    counts = np.asarray(np.rint(child_counts), dtype=np.int64)
                    child = TreeNode(
                        counts=counts,
                        prediction=int(np.argmax(counts)),
                        depth=node.depth + 1,
                    )
                    setattr(node, side, child)
                    if self._splittable(counts, child.depth):
                        next_frontier.append(child)
            frontier = next_frontier
        self.split_counts_ = self._count_splits()
        return self

    def _descend(
        self,
        node: TreeNode,
        X: CategoricalMatrix,
        rows: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> Iterator[tuple[TreeNode, np.ndarray]]:
        """Route ``rows`` of ``X`` from ``node`` to the leaves below it.

        Yields ``(leaf, rows)`` for each leaf that some rows reach, depth
        first and left before right.  While the tree grows, its frontier
        nodes are leaves, so the descent stops there.  With ``rng``, a
        row whose level of a split feature was never seen in training
        takes a uniformly random branch; draws happen node by node in
        that same order, so predictions are reproducible per seed.
        """
        stack = [(node, rows)]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                yield node, rows
                continue
            codes = X.codes[rows, node.feature]
            mask = node.goes_left[codes]
            if rng is not None:
                unseen = ~self.seen_levels_[node.feature][codes]
                if np.any(unseen):
                    mask[unseen] = rng.random(int(unseen.sum())) < 0.5
            stack.append((node.right, rows[~mask]))
            stack.append((node.left, rows[mask]))

    def _reset(self) -> None:
        """Drop learned state so a new training session starts fresh."""
        for attribute in (
            "root_",
            "split_counts_",
            "seen_levels_",
            "feature_names_",
            "n_levels_",
            "n_classes_",
            "_root_impurity",
            "_n_total",
        ):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def _validate_hyperparameters(self) -> None:
        if self.criterion not in ("gini", "entropy", "gain_ratio"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.minsplit < 1:
            raise ValueError(f"minsplit must be >= 1, got {self.minsplit}")
        if self.cp < 0:
            raise ValueError(f"cp must be >= 0, got {self.cp}")
        if self.unseen not in _UNSEEN_POLICIES:
            raise ValueError(
                f"unseen must be one of {_UNSEEN_POLICIES}, got {self.unseen!r}"
            )
        if self.minbucket is not None and self.minbucket < 1:
            raise ValueError(f"minbucket must be >= 1, got {self.minbucket}")

    @property
    def _effective_minbucket(self) -> int:
        if self.minbucket is not None:
            return self.minbucket
        return max(1, self.minsplit // 3)

    def _splittable(self, counts: np.ndarray, depth: int) -> bool:
        """Whether a node with these class counts may attempt a split."""
        return (
            int(counts.sum()) >= self.minsplit
            and np.count_nonzero(counts) > 1
            and (self.max_depth is None or depth < self.max_depth)
        )

    def _passes_cp(self, best: _BestSplit) -> bool:
        """rpart-style complexity pruning: the split's impurity decrease,
        normalised by root impurity and total training size, must reach cp."""
        if self._root_impurity > 0:
            relative_gain = best.weighted_gain / (
                self._root_impurity * self._n_total
            )
            return relative_gain >= self.cp
        return self.cp <= 0

    def _best_split_from_stats(
        self, stats: list[np.ndarray], node_counts: np.ndarray
    ) -> _BestSplit | None:
        """Best binary subset split given per-feature histograms.

        ``stats[j]`` is the ``(levels, classes)`` integer count matrix of
        feature ``j`` over the node's rows, summed over shards.  The
        counts, and so the split, do not depend on the shard layout.
        """
        impurity = impurity_function(self.criterion)
        node_impurity = float(impurity(node_counts))
        n_node = int(node_counts.sum())
        minbucket = self._effective_minbucket
        best: _BestSplit | None = None
        for j, level_class in enumerate(stats):
            k = level_class.shape[0]
            level_totals = level_class.sum(axis=1)
            present = np.flatnonzero(level_totals)
            if present.size < 2:
                continue
            # Order present levels by positive-class proportion; prefix
            # partitions of this order contain the optimal binary split.
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
            if self.criterion == "gain_ratio":
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
                # Levels absent from this node follow the heavier branch,
                # the standard CART convention.
                absent = level_totals == 0
                if n_left[pick] >= n_right[pick]:
                    goes_left[absent] = True
                best = _BestSplit(
                    feature=j,
                    goes_left=goes_left,
                    score=float(score[pick]),
                    weighted_gain=float(weighted_gain[pick]),
                    left_counts=left_counts[pick],
                    right_counts=right_counts[pick],
                )
        return best

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        proba = self.predict_proba(X)
        return np.argmax(proba, axis=1)

    def predict_proba(self, X: CategoricalMatrix) -> np.ndarray:
        """Per-class probabilities from leaf class frequencies."""
        check_fitted(self, "root_")
        if X.n_features != len(self.n_levels_):
            raise ValueError(
                f"expected {len(self.n_levels_)} features, got {X.n_features}"
            )
        X = gathered(X)
        self._enforce_unseen_policy(X)
        out = np.zeros((X.n_rows, self.n_classes_), dtype=np.float64)
        rng = (
            ensure_rng(self.random_state)
            if self.unseen == "random"
            else None
        )
        for leaf, rows in self._descend(
            self.root_, X, np.arange(X.n_rows), rng
        ):
            out[rows] = leaf.counts / leaf.counts.sum()
        return out

    def _enforce_unseen_policy(self, X: CategoricalMatrix) -> None:
        if self.unseen != "error":
            return
        for j in range(X.n_features):
            seen = self.seen_levels_[j]
            codes = X.codes[:, j]
            bad = codes[~seen[codes]]
            if bad.size:
                raise UnseenCategoryError(self.feature_names_[j], int(bad[0]))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _count_splits(self) -> dict[str, int]:
        counts: dict[str, int] = {name: 0 for name in self.feature_names_}

        def walk(node: TreeNode) -> None:
            if node.is_leaf:
                return
            counts[self.feature_names_[node.feature]] += 1
            walk(node.left)
            walk(node.right)

        walk(self.root_)
        return counts

    @property
    def n_leaves_(self) -> int:
        """Number of leaves in the fitted tree."""
        check_fitted(self, "root_")

        def count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root_)

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (0 for a stump)."""
        check_fitted(self, "root_")

        def depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self.root_)
