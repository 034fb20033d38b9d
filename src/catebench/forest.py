"""Depth-limited CART regression trees, deterministically seeded bagging, and
one forest predictor: a node table that a forest compiles once from its trees.

Depth is the one setting, a plain int.  Split search is exhaustive: candidate
thresholds are the midpoints of consecutive distinct sorted values of each
feature (the upper value where a midpoint rounds onto the lower), scored by
the gain ``L²/n_L + R²/n_R`` of the children's sums of y less the node mean:
the between-child sum of squares, highest where the children's squared error
is least, and moved by no offset in y.  Ties break to the lowest feature
index, then the lowest threshold.  A sample routes left iff its feature value
is strictly below the threshold, so a value exactly at a threshold goes right.

A constant feature yields no candidates and can never be selected, which is
what makes the two-variable control response ignore its session-count input.

A fit works on the distinct feature rows.  Once per fit, every training row
is keyed by its per-feature ``np.unique`` codes (-0.0 merges with 0.0), and
each feature stable-orders the distinct rows.  A tree weights each distinct
row by its bootstrap draw (``fit_tree`` draws every row once): a count and
a y sum added in draw order, and a y min and max for the pure-node stop.
``TreeNode.n`` counts drawn rows.  A node holds only drawn distinct rows and
a threshold separates two values, so a split leaves drawn rows on each side.
Nodes split by cumulative sums over their distinct rows, and a child
filters its parent's orders, so no node sorts.  Summing per distinct row
only reassociates a per-row fit's sums: node means move by a few ulps, and
a split only between partitions that tie in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import DECIMAL_RANGE, in_decimal_range
from .errors import DimensionMismatch, DomainError, EmptyInput

_SEED_SPACE = 2**64


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    # keyed on (seed, tree index): tree i's stream is independent of fit order
    return np.random.default_rng([seed % _SEED_SPACE, index])


@dataclass
class TreeNode:
    """A fitted node as plain data.  ``split`` is (feature index, threshold);
    internal nodes have both children, leaves neither.  A tree of d features
    is predicted by ``RegressionForest((tree,), d)``."""

    n: int
    mean: float
    split: tuple | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


def _training_set(X, y, max_depth, n_trees=1):
    """Check the settings, then ``X`` as an (n, d) float matrix and ``y`` as n
    floats inside the cohort's value rule; returns ``_distinct_rows(X)`` and y."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    try:
        X = np.asarray(X, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("feature vectors differ in length") from exc
    y = np.asarray(y, dtype=float)
    if not y.size:
        raise EmptyInput("no training rows")
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DimensionMismatch(f"expected (n, d) features, n outcomes; got {X.shape}, {y.shape}")
    if not (in_decimal_range(X) and in_decimal_range(y)):
        raise DomainError(f"features and outcomes must be decimals in {DECIMAL_RANGE}")
    return (*_distinct_rows(X), y)


def _cells(n, codes):
    """Number ``n`` rows by their per-feature integer codes, given as (codes,
    code count) pairs: returns each cell's first row and every row's cell,
    cells numbered in ascending lexicographic order of their codes."""
    first = np.arange(min(n, 1))
    cell = np.zeros(n, dtype=np.intp)
    for code, count in codes:
        if count > 1:
            # renumbering the cells after each feature keeps the keys below
            # n times one feature's code count
            _, first, cell = np.unique(cell * count + code, return_index=True, return_inverse=True)
    return first, cell


def _distinct_rows(X):
    """The values of each feature over the distinct rows of ``X``, in
    ascending key order; every row's distinct-row index; and each feature's
    stable order of the distinct rows.  A row's key is its per-feature
    ``np.unique`` codes, feature 0 first, so order 0 is key order, and with
    no feature it still orders the one distinct row."""
    coded = (np.unique(x, return_inverse=True) for x in X.T)
    first, key = _cells(X.shape[0], ((code, values.size) for values, code in coded))
    values = X.T.take(first, axis=1)
    order = [np.argsort(x, kind="stable") for x in values] or [np.arange(first.size)]
    return values, key, np.array(order)


def _gain(n_left, left, n_right, right):  # between-child sum of squares
    return left * left / n_left + right * right / n_right


def _best_split(values, stats, order, mean):
    """Highest-gain (feature, threshold) among all candidates, or None;
    ``order[j]`` is the node's drawn distinct rows in stable order of
    ``values[j]`` and ``mean`` the node mean that centres their y sums."""
    found = []
    for j, (x, oj) in enumerate(zip(values, order)):
        sx = x.take(oj)
        cut = np.nonzero(sx[:-1] < sx[1:])[0]  # last index of each value block
        if cut.size == 0:
            continue
        run = stats[:2].take(oj, axis=1)
        run[1] -= run[0] * mean
        run = run.cumsum(axis=1)  # count, centred y sum
        left = run[:, cut]
        right = run[:, -1:] - left
        k = int(np.argmax(_gain(*left, *right)))  # first maximum: lowest threshold wins ties
        lo, hi = float(sx[cut[k]]), float(sx[cut[k] + 1])
        mid = (lo + hi) / 2.0
        found.append((j, mid if lo < mid else hi))  # adjacent floats: mid rounds onto lo
    if len(found) < 2:
        # a lone candidate is never compared, so its partition gain is not needed
        return found[0] if found else None
    # each gain from the partition alone, summed in key order, so candidates
    # that split the rows alike score bitwise equal
    count, centred = stats[:2].take(order[0], axis=1)
    centred -= count * mean
    scores = [_gain(count[s].sum(), centred[s].sum(), count[~s].sum(), centred[~s].sum())
              for s in (values[j].take(order[0]) < t for j, t in found)]
    return found[scores.index(max(scores))]  # the first of equal scores: lowest feature


def _child_order(order, keep):
    # filtering a stable order keeps it stable, so no node sorts again
    return np.compress(keep.take(order).ravel(), order).reshape(order.shape[0], -1)


def _grow(values, stats, order, depth, max_depth) -> TreeNode:
    """Grow a subtree.  ``stats`` holds each distinct row's drawn count, y
    sum, y min and y max; ``order[j]`` is the node's drawn distinct rows in
    stable order of ``values[j]``, so ``order[0]`` is key order."""
    count, total, lo, hi = stats.take(order[0], axis=1)
    n = int(count.sum())
    node = TreeNode(n=n, mean=float(total.sum() / n))
    if depth >= max_depth or lo.min() == hi.max():
        return node
    found = _best_split(values, stats, order, node.mean)
    if found is None:
        return node
    node.split = found
    left = values[found[0]] < found[1]
    node.left = _grow(values, stats, _child_order(order, left), depth + 1, max_depth)
    node.right = _grow(values, stats, _child_order(order, ~left), depth + 1, max_depth)
    return node


def _fit(values, key, order, y, draw, max_depth) -> TreeNode:
    """One tree on the training rows ``draw`` lists, repeats included, as
    weights on the distinct rows of ``_distinct_rows``."""
    k = key.take(draw)
    yk = y.take(draw)
    size = order.shape[1]
    stats = np.array([np.bincount(k, minlength=size), np.bincount(k, yk, size),
                      np.full(size, np.inf), np.full(size, -np.inf)])
    np.minimum.at(stats[2], k, yk)
    np.maximum.at(stats[3], k, yk)
    return _grow(values, stats, _child_order(order, stats[0] > 0), 0, max_depth)


def fit_tree(X, y, max_depth: int = 2) -> TreeNode:
    """Fit one CART regression tree on an (n, d) feature matrix and n outcomes."""
    *data, y = _training_set(X, y, max_depth)
    return _fit(*data, y, np.arange(y.size), max_depth)


@dataclass(frozen=True)
class RegressionForest:
    """Bagged CART trees; the prediction is the mean of per-tree predictions.

    On first use the trees compile into one node table, in scikit-learn's
    ``Tree`` layout: tree t's root is row t, and a leaf is its own child.
    """

    trees: tuple
    feature_count: int

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.feature_count,):
            raise DimensionMismatch(
                f"expected a vector of {self.feature_count} features, got shape {x.shape}"
            )
        return float(self.predict_many(x[np.newaxis, :])[0])

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DimensionMismatch(
                f"expected an (n, {self.feature_count}) matrix, got shape {X.shape}"
            )
        # The forest is constant on each cell of the grid cut by the thresholds
        # it splits on, so it is evaluated once per occupied cell, at the
        # cell's first row.  A row's cell along feature j is the number of
        # thresholds <= x_j; since a value at a threshold routes right, every
        # row of a cell takes the same path through every tree.  NaN and +inf
        # land in the last cell, whose rows all go right at every split.
        # Trees are summed in order and then divided, the arithmetic of a
        # per-row mean, so the result is bitwise equal to it.
        first, inverse = _cells(X.shape[0], (
            (np.searchsorted(thr, X[:, j], side="right"), thr.size + 1)
            for j, thr in enumerate(self.thresholds())
        ))
        feature, threshold, left, right, mean, depth = self._table
        cells = X.take(first, axis=0).ravel()
        base = np.arange(first.size) * self.feature_count
        acc = None
        for root, levels in enumerate(depth):
            node = np.full(first.size, root)
            for _ in range(levels):
                goes_left = cells.take(base + feature.take(node)) < threshold.take(node)
                node = np.where(goes_left, left.take(node), right.take(node))
            acc = mean.take(node) if acc is None else acc + mean.take(node)
        return (acc / len(self.trees))[inverse]

    @cached_property
    def _table(self):  # columns feature, threshold, left, right and mean; each tree's depth
        queue = [(node, root, 0) for root, node in enumerate(self.trees)]
        rows, depth = [], [0] * len(self.trees)
        for i, (node, root, level) in enumerate(queue):  # breadth first, as the queue grows
            kids = (i, i)
            if node.split is not None:
                kids, depth[root] = (len(queue), len(queue) + 1), level + 1
                queue += [(node.left, root, level + 1), (node.right, root, level + 1)]
            rows.append((*(node.split or (0, np.nan)), *kids, node.mean))
        feature, threshold, left, right, mean = map(np.array, zip(*rows))
        return feature, threshold, left, right, mean.astype(float), depth

    def thresholds(self) -> list:
        """Sorted distinct thresholds of the node table's split rows, one array per feature."""
        feature, threshold, left = self._table[:3]
        split = left != np.arange(left.size)
        return [np.unique(threshold[split & (feature == j)]) for j in range(self.feature_count)]


def fit_forest(
    rows,
    max_depth: int = 2,
    n_trees: int = 100,
    seed: int = 0,
) -> RegressionForest:
    """Bag ``n_trees`` trees of depth ``max_depth``; tree i fits n rows drawn
    with replacement from the (seed, i) stream.

    ``rows`` are (feature vector, outcome) pairs, unzipped into ``fit_tree``'s
    (X, y) checks, because ``perfbench/spans.py`` counts a forest's training
    rows by iterating them.  Trees are fitted one after another in the
    calling thread.
    """
    rows = list(rows)
    *data, y = _training_set([r[0] for r in rows], [r[1] for r in rows], max_depth, n_trees)
    trees = [_fit(*data, y, _tree_rng(seed, i).integers(0, y.size, size=y.size), max_depth)
             for i in range(n_trees)]
    return RegressionForest(tuple(trees), len(data[0]))


@dataclass(frozen=True)
class TreeReport:
    """Rendered tree: indented text plus a nested dict for JSON export."""

    text: str
    data: dict


def export_tree(tree: TreeNode, feature_names) -> TreeReport:
    """Render a fitted tree, one block per node in depth-first order.

    Internal nodes show ``<name> < <threshold>`` then the sample count and
    mean outcome; terminal nodes have no splitting criterion.  A threshold is
    in ``g`` format if that reads back as it, else whole; a mean keeps 6 digits.
    """
    names = list(feature_names)
    lines: list[str] = []

    def walk(node, depth) -> dict:
        pad = "  " * depth
        data = {"split": None, "n": node.n, "mean": node.mean}
        if node.split is not None:
            feature, threshold = node.split
            data["split"] = {"feature": feature, "name": names[feature], "threshold": threshold}
            text = format(threshold, "g")
            text = text if float(text) == threshold else repr(float(threshold))
            lines.append(f"{pad}{names[feature]} < {text}")
        lines.extend((f"{pad}n = {node.n}", f"{pad}mean = {format(node.mean, 'g')}"))
        if node.split is not None:
            data["left"] = walk(node.left, depth + 1)
            data["right"] = walk(node.right, depth + 1)
        return data

    try:
        data = walk(tree, 0)
    except IndexError:
        raise DimensionMismatch("feature name list shorter than the tree's feature indices") from None
    return TreeReport(text="\n".join(lines) + "\n", data=data)
