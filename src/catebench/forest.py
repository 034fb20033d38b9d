"""Depth-limited CART regression trees and deterministically seeded bagging.

Split search is exhaustive: candidate thresholds are the midpoints between
consecutive distinct sorted values of each feature, scored by the summed
squared error of the two children.  Ties break to the lowest feature index,
then the lowest threshold.  A sample routes left iff its feature value is
strictly below the threshold, so a value exactly at a threshold goes right.

A constant feature yields no candidates and can never be selected, which is
what makes the two-variable control response ignore its session-count input.

Each feature is stable-sorted once per tree, at the root.  A child inherits
its rows' order by filtering its parent's, which gives exactly the stable
sort it would compute itself, so no node sorts again.  Rows are gathered and
filtered with ``take`` and ``compress``, which select the same elements as
fancy and boolean indexing but run several times faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput

_SEED_SPACE = 2**64


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    # keyed on (seed, tree index): tree i's stream is independent of fit order
    return np.random.default_rng([seed % _SEED_SPACE, index])


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 2
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_split < 1:
            raise ValueError("min_samples_split must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class TreeNode:
    """A fitted node: sample count, mean outcome, and an optional split.

    ``split`` is (feature index, threshold); internal nodes have both
    children, leaves have neither.
    """

    n: int
    mean: float
    split: tuple | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def predict(self, x) -> float:
        return float(self.predict_many(np.asarray([x], dtype=float))[0])

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=float)
        self._route(X, np.arange(X.shape[0]), out)
        return out

    def _route(self, X, idx, out):
        if self.split is None:
            out[idx] = self.mean
            return
        feature, threshold = self.split
        mask = X[idx, feature] < threshold
        self.left._route(X, idx[mask], out)
        self.right._route(X, idx[~mask], out)


def _coerce_rows(rows):
    rows = list(rows)
    if not rows:
        raise EmptyInput("no training rows")
    try:
        X = np.array([r[0] for r in rows], dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("feature vectors differ in length") from exc
    if X.ndim != 2:
        raise DimensionMismatch("feature vectors must be one-dimensional sequences")
    y = np.array([r[1] for r in rows], dtype=float)
    return X, y


def _partition_sse(y, mask):
    # canonical child-SSE sum: a function of the row partition only, so two
    # candidates that split the rows identically score bitwise equal and the
    # lowest-feature tie-break is well defined
    left = y.compress(mask)
    right = y.compress(~mask)
    dl = left - left.mean()
    dr = right - right.mean()
    return float(dl @ dl + dr @ dr)


def _best_split(X, y, order, min_leaf):
    """Lowest-SSE (feature, threshold) among all midpoint candidates, or None;
    ``order[j]`` is the stable argsort of ``X[:, j]``."""
    n = y.size
    found = []
    for j, oj in enumerate(order):
        sx = X[:, j].take(oj)
        sy = y.take(oj)
        cut = np.nonzero(sx[:-1] < sx[1:])[0]  # last index of each value block
        if cut.size == 0:
            continue
        n_left = cut + 1
        n_right = n - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        csum = np.cumsum(sy)
        csq = np.cumsum(sy * sy)
        s_left = csum[cut]
        q_left = csq[cut]
        s_tot = csum[-1]
        q_tot = csq[-1]
        sse = (q_left - s_left**2 / n_left) + (
            q_tot - q_left - (s_tot - s_left) ** 2 / n_right
        )
        sse[~ok] = np.inf
        k = int(np.argmin(sse))  # first minimum: lowest threshold wins ties
        if np.isfinite(sse[k]):
            found.append((j, float((sx[cut[k]] + sx[cut[k] + 1]) / 2.0)))
    if len(found) < 2:
        # a lone candidate is never compared, so its canonical SSE is not needed
        return found[0] if found else None
    best = None
    for j, threshold in found:
        canonical = _partition_sse(y, X[:, j] < threshold)
        if best is None or canonical < best[0]:
            best = (canonical, j, threshold)
    return best[1], best[2]


def _child_order(order, mask):
    # Filtering a stable order keeps tied rows in row order, and cumsum - 1
    # renumbers the kept rows monotonically, so the result is exactly the
    # stable argsort of the child's rows.
    rank = np.cumsum(mask, dtype=np.int32) - 1
    kept = np.compress(mask.take(order).ravel(), order)
    return rank.take(kept.reshape(order.shape[0], -1))


def _grow(X, y, get_order, depth, params) -> TreeNode:
    """Grow a subtree.  ``get_order()`` builds the node's per-feature stable
    orders, only if the node is split (None at the root, which sorts); a right
    child's are built after the left subtree returns, so memory stays flat."""
    node = TreeNode(n=int(y.size), mean=float(y.mean()))
    if depth >= params.max_depth or y.size < params.min_samples_split or y.min() == y.max():
        return node
    if get_order:
        order = get_order()
    else:  # int32, filled a feature at a time, keeps the orders' peak memory low
        order = np.empty(X.shape[::-1], dtype=np.int32)
        for j in range(X.shape[1]):
            order[j] = np.argsort(X[:, j], kind="stable")
    found = _best_split(X, y, order, params.min_samples_leaf)
    if found is None:
        return node
    feature, threshold = found
    node.split = (feature, threshold)
    left = X[:, feature] < threshold
    node.left, node.right = (
        _grow(X.compress(m, axis=0), y.compress(m), lambda m=m: _child_order(order, m), depth + 1, params)
        for m in (left, ~left)
    )
    return node


def fit_tree(rows, params: TreeParams | None = None) -> TreeNode:
    """Fit one CART regression tree on (feature vector, outcome) pairs."""
    X, y = _coerce_rows(rows)
    return _grow(X, y, None, 0, params or TreeParams())


@dataclass(frozen=True)
class RegressionForest:
    """Bagged CART trees; the prediction is the mean of per-tree predictions."""

    trees: tuple
    n_trees: int
    seed: int
    feature_count: int
    params: TreeParams
    bootstrap: bool = True

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
        n = X.shape[0]
        first = np.arange(min(n, 1))
        inverse = np.zeros(n, dtype=np.intp)
        for j, thr in enumerate(self._thresholds()):
            if thr.size:
                # renumbering the cells after each feature keeps the codes
                # below n times one feature's threshold count
                code = inverse * (thr.size + 1) + np.searchsorted(thr, X[:, j], side="right")
                _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        cells = X[first]
        acc = self.trees[0].predict_many(cells)
        for tree in self.trees[1:]:
            acc += tree.predict_many(cells)
        return (acc / len(self.trees))[inverse]

    def _thresholds(self) -> list:
        """Sorted distinct split thresholds of every tree, one array per feature."""
        found = [[] for _ in range(self.feature_count)]
        stack = list(self.trees)
        while stack:
            node = stack.pop()
            if node.split is not None:
                found[node.split[0]].append(node.split[1])
                stack.append(node.left)
                stack.append(node.right)
        return [np.unique(np.asarray(values, dtype=float)) for values in found]


def fit_forest(
    rows,
    params: TreeParams | None = None,
    n_trees: int = 100,
    seed: int = 0,
    *,
    bootstrap: bool = True,
) -> RegressionForest:
    """Bag ``n_trees`` trees; tree i resamples from the (seed, i) stream.

    Trees are fitted one after another in the calling thread.
    """
    X, y = _coerce_rows(rows)
    params = params or TreeParams()
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    trees = []
    for i in range(n_trees):
        idx = _tree_rng(seed, i).integers(0, y.size, size=y.size) if bootstrap else slice(None)
        trees.append(_grow(X[idx], y[idx], None, 0, params))
    return RegressionForest(tuple(trees), n_trees, seed, X.shape[1], params, bootstrap)


@dataclass(frozen=True)
class TreeReport:
    """Rendered tree: indented text plus a nested dict for JSON export."""

    text: str
    data: dict


def export_tree(tree: TreeNode, feature_names) -> TreeReport:
    """Render a fitted tree, one block per node in depth-first order.

    Internal nodes show ``<name> < <threshold>`` then the sample count and
    mean outcome; terminal nodes have no splitting criterion.
    """
    names = list(feature_names)
    lines: list[str] = []

    def walk(node, depth) -> dict:
        pad = "  " * depth
        data = {"split": None, "n": node.n, "mean": node.mean}
        if node.split is not None:
            feature, threshold = node.split
            data["split"] = {"feature": feature, "name": names[feature], "threshold": threshold}
            lines.append(f"{pad}{names[feature]} < {format(threshold, 'g')}")
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
