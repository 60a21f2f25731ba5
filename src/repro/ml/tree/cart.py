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
  impurity by at least ``cp`` relative to the root's impurity.  The test
  reads only the chosen split's own gain, so a grown tree prunes
  exactly to any larger ``cp`` (:meth:`DecisionTreeClassifier.prune`):
  grid search grows one tree per ``minsplit`` and derives the rest.

Unseen-level behaviour at prediction time is explicit: ``unseen='error'``
reproduces the R crash the paper reports for foreign-key features
(Section 6.2); ``unseen='majority'`` routes unseen levels down the
heavier branch at each split.

Split search consumes only per-node *histograms* — one
``(width, classes)`` count matrix whose rows are every level of every
feature, feature after feature — never the rows themselves.  That
makes training streamable, and the tree has one builder,
:meth:`DecisionTreeClassifier.fit_stream`: it grows the tree
breadth-first over any :class:`repro.data.FeatureSource`, one pass per
level, and ``fit(X, y)`` runs it over one in-memory shard.  Integer
histograms are associative over shards, so the tree is **identical**
for every shard layout.  Training routes rows node by node
(:meth:`DecisionTreeClassifier._descend`), and so does prediction under
``unseen='random'``, whose per-node draws fix that order.  Otherwise
prediction routes the whole batch one tree level per round of array
gathers over a flat form of the tree (:class:`_FlatTree`), built on the
first prediction; its probabilities are the node-by-node walk's, bit
for bit.  Both read raw codes, so factorized shards are gathered first.

One split search scores every prefix candidate of every feature at
once (:meth:`DecisionTreeClassifier._best_split`).  It decides as a
feature-by-feature scan does: each candidate's class counts are the
same exact integers, each score comes from the same float operations
on them, row by row, each feature's winner is its first maximum, and a
later feature's winner displaces an earlier one only when it scores
more than ``1e-12`` higher.  The trees are therefore the scan's, bit
for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.data.source import MatrixSource, ShardPasses
from repro.errors import UnseenCategoryError
from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix, check_code_ranges
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


@dataclass(frozen=True)
class _FlatTree:
    """A fitted tree as arrays, so a batch moves one level per gather.

    Node ``i`` sends a row whose code of feature ``feature[i]`` is ``c``
    to node ``child[offset[i] + c]``: an internal node's ``goes_left``
    written out as child indices, a leaf's slot (on the narrowest
    feature) pointing at itself.  ``depth`` rounds therefore bring every
    row to its leaf.  ``proba[i]`` is node ``i``'s
    ``counts / counts.sum()``; ``seen[level_offsets[j] + c]`` tells
    whether training saw level ``c`` of feature ``j``.
    """

    feature: np.ndarray
    offset: np.ndarray
    child: np.ndarray
    proba: np.ndarray
    depth: int
    seen: np.ndarray
    level_offsets: np.ndarray


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
    _prunable_param = "cp"

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
        frontier node.  Each (frontier node, shard) pair adds one
        ``(width, classes)`` histogram — every feature's level-by-class
        counts, from one ``np.bincount`` over the codes offset into one
        flat level index — to the node's total.  From that total,
        :meth:`_best_split` scores all of the node's candidate splits at
        once and decides as the per-feature scan does, bit for bit: the
        same integer counts and the same float operations on them (see
        the module docstring).  Integer sums do not depend on how rows
        fall into shards, so the tree is the same for every shard
        layout.  The passes read through one
        :class:`repro.data.source.ShardPasses` that keeps the first
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
        # Feature j's levels are rows offsets[j]:offsets[j + 1] of a
        # node's histogram.
        offsets = np.concatenate(([0], np.cumsum(n_levels, dtype=np.int64)))
        width = int(offsets[-1])

        # Pass 0: label counts, seen levels, total rows.
        label_counts = np.zeros(0, dtype=np.int64)
        seen_flat = np.zeros(width, dtype=bool)
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
            seen_flat |= (
                np.bincount((X.codes + offsets[:-1]).ravel(), minlength=width)
                > 0
            )
            n_total += y.size
        if n_total == 0:
            raise ValueError("cannot fit on zero examples")

        self.n_classes_ = n_classes = max(int(label_counts.size), 2)
        self.feature_names_ = names
        self.n_levels_ = n_levels
        self.seen_levels_ = [
            seen_flat[offsets[j]:offsets[j + 1]] for j in range(len(n_levels))
        ]
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
            stats: dict[int, np.ndarray | None] = dict.fromkeys(
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
                    flat = (X.codes[rows] + offsets[:-1]) * n_classes
                    flat += y[rows][:, np.newaxis]
                    histogram = np.bincount(
                        flat.ravel(), minlength=width * n_classes
                    ).reshape(width, n_classes)
                    # A node's first shard's histogram becomes its total,
                    # so a one-shard fit allocates nothing more; later
                    # shards add to it.
                    total = stats[id(node)]
                    if total is None:
                        stats[id(node)] = histogram
                    else:
                        total += histogram
            next_frontier: list[TreeNode] = []
            for node in frontier:
                best = self._best_split(stats[id(node)], node.counts, offsets)
                if best is None or not self._passes_cp(best.weighted_gain):
                    continue  # stays a leaf
                node.feature = best.feature
                node.goes_left = best.goes_left
                node.gain = best.weighted_gain
                for counts, side in (
                    (best.left_counts, "left"),
                    (best.right_counts, "right"),
                ):
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
            "_flat",
        ):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def __getstate__(self) -> dict:
        # The flat form is a cache of ``root_``: pickles carry the tree.
        state = self.__dict__.copy()
        state.pop("_flat", None)
        return state

    def _validate_hyperparameters(self) -> None:
        # Written as ``not value >= bound`` so that NaN fails too.
        if self.criterion not in ("gini", "entropy", "gain_ratio"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if not self.minsplit >= 1:
            raise ValueError(f"minsplit must be >= 1, got {self.minsplit}")
        if not self.cp >= 0:
            raise ValueError(f"cp must be >= 0, got {self.cp}")
        if self.unseen not in _UNSEEN_POLICIES:
            raise ValueError(
                f"unseen must be one of {_UNSEEN_POLICIES}, got {self.unseen!r}"
            )
        if self.minbucket is not None and not self.minbucket >= 1:
            raise ValueError(f"minbucket must be >= 1, got {self.minbucket}")
        if self.max_depth is not None and not self.max_depth >= 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")

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

    def _passes_cp(self, gain: float) -> bool:
        """rpart-style complexity pruning: a split's impurity decrease
        (its ``weighted_gain``), normalised by root impurity and total
        training size, must reach cp."""
        if self._root_impurity > 0:
            relative_gain = gain / (self._root_impurity * self._n_total)
            return relative_gain >= self.cp
        return self.cp <= 0

    def prune(self, cp: float) -> "DecisionTreeClassifier":
        """The tree a fit at the larger complexity ``cp`` grows, without
        refitting.

        Which split a node takes does not depend on ``cp``; only
        :meth:`_passes_cp` does, on the split's stored ``gain``.  So a
        fit at ``cp >= self.cp`` grows this tree cut, top down, at every
        split that fails the test at ``cp``: that node keeps its counts
        and becomes a leaf.  Returns ``self.clone(cp=cp)`` holding the
        cut tree, recounted ``split_counts_`` and this tree's other
        fitted state, set in the order a fit sets it and shared, not
        copied (fitted arrays are never written), without the flat
        form.  It equals the direct fit at ``cp`` node for node, and
        their pickles are equal bytes.  ``self`` is unchanged.
        """
        check_fitted(self, "root_")
        pruned = self.clone(cp=cp)
        pruned._validate_hyperparameters()
        if not cp >= self.cp:
            raise ValueError(
                f"a tree grown at cp={self.cp} prunes only to a cp at least "
                f"as large, got {cp}"
            )
        for name, value in self.__getstate__().items():
            if name not in self._param_names:
                setattr(pruned, name, value)

        def cut(node: TreeNode) -> TreeNode:
            if node.is_leaf or not pruned._passes_cp(node.gain):
                return TreeNode(node.counts, node.prediction, node.depth)
            return replace(node, left=cut(node.left), right=cut(node.right))

        pruned.root_ = cut(self.root_)
        pruned.split_counts_ = pruned._count_splits()
        return pruned

    def project(self, features: Sequence[int]) -> "DecisionTreeClassifier":
        """This fitted tree over the feature subset ``features`` alone.

        ``features`` lists positions in this tree's feature order and
        must keep every feature the tree splits on.  Returns
        ``self.clone()`` holding this tree with each split re-indexed to
        its feature's place in ``features``, and the names, levels and
        seen levels of those features only; the other fitted state and
        the nodes' counts and masks are shared, not copied, and the
        flat form is left out.  A row reaches the same leaf by the same
        codes, and under ``unseen="random"`` draws in the same order, so
        its ``predict_proba`` on the kept columns equals this tree's on
        all of them, bit for bit.  ``self`` is unchanged.
        """
        check_fitted(self, "root_")
        index = {int(j): i for i, j in enumerate(features)}
        if len(index) != len(features) or not all(
            0 <= j < len(self.n_levels_) for j in index
        ):
            raise ValueError(
                f"features must be distinct positions below "
                f"{len(self.n_levels_)}, got {list(features)}"
            )
        dropped = [
            name
            for j, (name, splits) in enumerate(self.split_counts_.items())
            if splits and j not in index
        ]
        if dropped:
            raise ValueError(
                f"the tree splits on {dropped}, which the projection drops"
            )
        projected = self.clone()
        for name, value in self.__getstate__().items():
            if name not in self._param_names:
                setattr(projected, name, value)
        kept = list(index)
        projected.feature_names_ = tuple(self.feature_names_[j] for j in kept)
        projected.n_levels_ = tuple(self.n_levels_[j] for j in kept)
        projected.seen_levels_ = [self.seen_levels_[j] for j in kept]

        def reindex(node: TreeNode) -> TreeNode:
            if node.is_leaf:
                return node
            return replace(
                node,
                feature=index[node.feature],
                left=reindex(node.left),
                right=reindex(node.right),
            )

        projected.root_ = reindex(self.root_)
        projected.split_counts_ = projected._count_splits()
        return projected

    def _best_split(
        self, histogram: np.ndarray, node_counts: np.ndarray, offsets: np.ndarray
    ) -> _BestSplit | None:
        """Best binary subset split of a node, from its histogram.

        ``histogram`` is the node's ``(width, classes)`` integer count
        matrix, summed over shards; feature ``j``'s levels are its rows
        ``offsets[j]:offsets[j + 1]``.  Within each feature, the levels
        present at the node are ordered by positive-class proportion (a
        stable sort: ties keep level order), and the prefix partitions
        of that order, all but the full one, are the candidates; they
        contain the optimal binary split.  All candidates are scored at
        once.  A feature's winner is its first best-scoring prefix, and
        a later feature's winner replaces an earlier one only when it
        scores more than ``1e-12`` higher.
        """
        impurity = impurity_function(self.criterion)
        node_impurity = float(impurity(node_counts))
        n_node = int(node_counts.sum())
        minbucket = self._effective_minbucket
        level_totals = histogram.sum(axis=1)
        present = np.flatnonzero(level_totals)
        if present.size < 2:
            return None
        # ``present`` is increasing, so ``feature`` is sorted; the sort by
        # (feature, proportion) keeps each feature's levels where they
        # were, so ``feature`` also names the feature of each position of
        # ``order``.
        feature = np.searchsorted(offsets, present, side="right") - 1
        pos = histogram[present, -1] / level_totals[present]
        order = present[np.lexsort((pos, feature))]
        new_feature = feature[1:] != feature[:-1]
        first = np.concatenate(([True], new_feature))
        last = np.concatenate((new_feature, [True]))
        segment = np.cumsum(first) - 1
        # Within-feature prefix sums: a feature's prefix at each of its
        # positions, and its total at the last one.
        ordered = histogram[order]
        cumulative = np.cumsum(ordered, axis=0)
        prefix = cumulative - (cumulative[first] - ordered[first])[segment]
        candidates = np.flatnonzero(~last)
        if candidates.size == 0:
            return None
        left_counts = prefix[candidates]
        right_counts = prefix[last][segment[candidates]] - left_counts
        n_left = left_counts.sum(axis=1)
        n_right = right_counts.sum(axis=1)
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
        valid = (n_left >= minbucket) & (n_right >= minbucket)
        score = np.where(valid, score, -np.inf)

        # Each feature's first maximum: the first candidate at or after
        # the feature's first one that scores the feature's peak.
        first_candidate = first[candidates]
        starts = np.flatnonzero(first_candidate)
        peaks = np.maximum.reduceat(score, starts)
        hits = np.flatnonzero(score == peaks[np.cumsum(first_candidate) - 1])
        picks = hits[np.searchsorted(hits, starts)]
        pick, best_score = None, -math.inf
        for candidate, peak, gain in zip(
            picks.tolist(), peaks.tolist(), weighted_gain[picks].tolist()
        ):
            if not math.isfinite(peak) or gain <= 1e-12:
                continue
            if pick is None or peak > best_score + 1e-12:
                pick, best_score = candidate, peak
        if pick is None:
            return None

        at = int(candidates[pick])
        j = int(feature[at])
        lo, hi = int(offsets[j]), int(offsets[j + 1])
        goes_left = np.zeros(hi - lo, dtype=bool)
        goes_left[order[np.searchsorted(feature, j):at + 1] - lo] = True
        # Levels absent from this node follow the heavier branch, the
        # standard CART convention.
        if n_left[pick] >= n_right[pick]:
            goes_left[level_totals[lo:hi] == 0] = True
        return _BestSplit(
            feature=j,
            goes_left=goes_left,
            score=best_score,
            weighted_gain=float(weighted_gain[pick]),
            left_counts=left_counts[pick].copy(),
            right_counts=right_counts[pick].copy(),
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        proba = self.predict_proba(X)
        return np.argmax(proba, axis=1)

    def predict_proba(self, X: CategoricalMatrix) -> np.ndarray:
        """Per-class probabilities from leaf class frequencies.

        Under ``unseen='error'`` or ``'majority'`` the batch moves one
        tree level per round of gathers over the flat form
        (:class:`_FlatTree`), ``depth_`` rounds in all.  ``'error'``
        first looks all codes up in one seen mask and names the first
        unseen feature in column order, with the code of its first
        offending row.  ``unseen='random'`` descends node by node
        (:meth:`_descend`), whose order fixes the draws.  Factorized
        batches are gathered first.
        """
        check_fitted(self, "root_")
        if X.n_features != len(self.n_levels_):
            raise ValueError(
                f"expected {len(self.n_levels_)} features, got {X.n_features}"
            )
        X = gathered(X)
        if X.n_levels != self.n_levels_:
            # The flat tables cover the training domains only.
            check_code_ranges(X.codes, self.n_levels_, self.feature_names_)
        if self.unseen == "random":
            out = np.zeros((X.n_rows, self.n_classes_), dtype=np.float64)
            for leaf, rows in self._descend(
                self.root_, X, np.arange(X.n_rows),
                ensure_rng(self.random_state),
            ):
                out[rows] = leaf.counts / leaf.counts.sum()
            return out
        flat = self._flat_tree()
        codes = X.codes
        if self.unseen == "error":
            seen = flat.seen[codes + flat.level_offsets]
            if not seen.all():
                j = int(np.argmin(seen.all(axis=0)))
                code = codes[np.argmin(seen[:, j]), j]
                raise UnseenCategoryError(self.feature_names_[j], int(code))
        rows = np.arange(X.n_rows)
        node = np.zeros(X.n_rows, dtype=np.intp)
        for _ in range(flat.depth):
            node = flat.child[flat.offset[node] + codes[rows, flat.feature[node]]]
        return flat.proba[node]

    def _flat_tree(self) -> _FlatTree:
        """The fitted tree's flat form, built on first use and dropped by
        :meth:`_reset`.  Nodes are numbered breadth first.  Threads that
        predict at once may each build it; the builds are equal and the
        last one stays."""
        flat = getattr(self, "_flat", None)
        if flat is not None:
            return flat
        nodes = [self.root_]
        for node in nodes:  # the list grows as it is read
            if not node.is_leaf:
                nodes += (node.left, node.right)
        splits = [node for node in nodes if not node.is_leaf]
        levels = np.asarray(self.n_levels_, dtype=np.int64)
        # A leaf sends every level of the narrowest feature to itself.  A
        # tree without features is a stump and never reads its table.
        leaf_width, leaf_feature = min(
            zip(self.n_levels_, range(levels.size)), default=(0, 0)
        )
        is_split = np.array([not node.is_leaf for node in nodes])
        widths = np.full(len(nodes), leaf_width)
        widths[is_split] = [node.goes_left.size for node in splits]
        feature = np.full(len(nodes), leaf_feature)
        feature[is_split] = [node.feature for node in splits]
        # Every slot starts at its own node, which is right for leaves;
        # breadth first, the k-th split's children are nodes 2k+1, 2k+2.
        child = np.repeat(np.arange(len(nodes)), widths)
        left = np.repeat(2 * np.arange(len(splits)) + 1, widths[is_split])
        goes_left = np.concatenate(
            [np.zeros(0, dtype=bool), *(node.goes_left for node in splits)]
        )
        child[np.repeat(is_split, widths)] = np.where(goes_left, left, left + 1)
        counts = np.array([node.counts for node in nodes])
        self._flat = flat = _FlatTree(
            feature=feature,
            offset=np.cumsum(widths) - widths,
            child=child,
            proba=counts / counts.sum(axis=1, keepdims=True),
            depth=max(node.depth for node in nodes),
            seen=np.concatenate([np.zeros(0, dtype=bool), *self.seen_levels_]),
            level_offsets=np.cumsum(levels) - levels,
        )
        return flat

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
