"""Depth-limited CART regression trees, deterministically seeded bagging, and
one forest predictor: a node table that a forest compiles once from its trees.

Depth is the one setting, a plain int.  Split search is exhaustive: candidate
thresholds are the midpoints of consecutive distinct sorted values of each
feature (the upper value where a midpoint rounds onto the lower), scored by
the gain ``L²/n_L + R²/n_R`` of the children's sums of y less the node mean:
the between-child sum of squares, highest where the children's squared error
is least, and moved by no offset in y.  The highest gain wins, ties breaking
to the lowest feature index, then the lowest threshold; features whose top
gains are within rounding (``_gain_error``) are rescored from the partition
alone in key order, so partitions alike tie bitwise.  A sample routes left iff
its feature value is strictly below the threshold, so a value at one goes right.

A fit codes only features of two or more values: one of a single value is never
searched, so the two-variable control response ignores its session count.

A fit works on the distinct feature rows.  Once per fit, every training row
is keyed by its coded features' ``np.unique`` codes (-0.0 merges with 0.0),
and each stable-orders the distinct rows.  A tree weights each distinct
row by its bootstrap draw (``fit_tree`` draws every row once): a count and
a y sum added in draw order, and a y min and max for the pure-node stop.
``TreeNode.n`` counts drawn rows.  A node holds only drawn distinct rows and
a threshold separates two values, so a split leaves drawn rows on each side.
Summing per distinct row only reassociates a per-row fit's sums: node means
move by a few ulps, and a split only between partitions that tie in exact
arithmetic.

Trees grow a depth level at a time, a chunk of trees together: each level
is a few numpy passes over the (tree, node, distinct row) segments of the
whole chunk, and no node sorts.  With one coded feature, key order is value
order: the chunk gathers its drawn rows' statistics once, a node is an
interval [a, b) of its tree's drawn rows in that order, and a split is a cut
position p, with children [a, p + 1) and [p + 1, b).  With more, a child is a
stable partition of its parent's segment in each feature's order.  Each sum
that decides a node is taken over that node's rows in the order one tree
grown alone would use (a node's y sum pairwise, its running sums one
``cumsum`` over its own slice of the level), so a tree is bitwise the same
whichever chunk grows it.  Prediction takes chunks by the
same rule and routes each as one (tree, cell) node array, a level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import DECIMAL_RANGE, in_decimal_range
from .errors import DimensionMismatch, DomainError, EmptyInput

_SEED_SPACE = 2**64
# (tree, distinct row) elements a level pass holds, and (tree, cell) elements
# a routing pass holds: a forest grows and predicts in chunks of as many trees
# as this many allow, and at least one.  Larger chunks make fewer calls per tree
# but hold larger arrays: at the peak, about 125 bytes an element growing one
# feature's intervals, 160 partitioning two features' rows, and 34 routing.
_CHUNK_ELEMENTS = 10_000


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


def _floats(values, name):
    """``values`` as a float array; ragged rows are a ``DimensionMismatch``,
    anything else that is not a number a ``DomainError``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        try:
            np.shape(values)
        except ValueError:
            raise DimensionMismatch(f"{name} differ in length") from exc
        raise DomainError(f"{name} must be numbers: {exc}") from exc


def _training_set(X, y, max_depth, n_trees=1):
    """Check the settings, then ``X`` as an (n, d) float matrix and ``y`` as n
    floats inside the cohort's value rule; returns ``_distinct_rows(X)`` and y."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X, y = _floats(X, "features"), _floats(y, "outcomes")
    if not y.size:
        raise EmptyInput("no training rows")
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DimensionMismatch(f"expected (n, d) features, n outcomes; got {X.shape}, {y.shape}")
    if not (in_decimal_range(X) and in_decimal_range(y)):
        raise DomainError(f"features and outcomes must be decimals in {DECIMAL_RANGE}")
    return (*_distinct_rows(X), y)


def _cells(n, codes):
    """Number ``n`` rows by their codes in features of two or more codes, as
    (codes, code count) pairs: each cell's first row and every row's cell,
    cells in ascending lexicographic order of their codes, renumbered after
    each feature so that keys stay below n times one feature's code count."""
    first = np.arange(min(n, 1))
    cell = np.zeros(n, dtype=np.intp)
    for code, count in codes:
        _, first, cell = np.unique(cell * count + code, return_index=True, return_inverse=True)
    return first, cell


def _distinct_rows(X):
    """A mask of the features of ``X`` that take two or more values; their
    values over the distinct rows, in ascending key order; every row's
    distinct-row index; and each kept feature's stable order of the distinct
    rows.  A row's key is its kept features' ``np.unique`` codes, so order 0
    is key order, and with no kept feature it still orders the one row."""
    kept = X.min(axis=0) < X.max(axis=0)  # -0.0 and 0.0 are one value
    columns = X.T[kept]
    coded = (np.unique(x, return_inverse=True) for x in columns)
    first, key = _cells(X.shape[0], ((code, values.size) for values, code in coded))
    values = columns.take(first, axis=1)
    order = [np.argsort(x, kind="stable") for x in values] or [np.arange(first.size)]
    return kept, values, key, np.array(order)


def _gain(n_left, left, n_right, right):  # between-child sum of squares
    return left * left / n_left + right * right / n_right


def _gain_error(m, spread):
    """Bounds how far a gain from float sums of m centred y sums (absolute sum
    ``spread``), added in any order, lies from the exact gain of those terms: any
    order errs by at most (m - 1)u / (1 - (m - 1)u) times the absolute sum (Higham,
    "Accuracy and Stability of Numerical Algorithms", 4.2), so a gain by about
    (6m + 3)u spread²; this is twice that or more (u = eps / 2), and covers underflow."""
    return 8 * m * np.finfo(float).eps * spread * spread + np.finfo(float).tiny


def _tally(key, y, draws, trees, size):
    """Each tree's drawn count, y sum (added in draw order), y min and y max
    per distinct row, for the training rows its draw lists, repeats included;
    tree t's distinct row r is column t * size + r.  ``draws`` may be a
    generator: one draw is held at a time."""
    stats = np.empty((4, trees, size))
    stats[2], stats[3] = np.inf, -np.inf
    for t, draw in enumerate(draws):
        k = key.take(draw)
        yk = y.take(draw)
        stats[0, t] = np.bincount(k, minlength=size)
        stats[1, t] = np.bincount(k, yk, size)
        np.minimum.at(stats[2, t], k, yk)
        np.maximum.at(stats[3, t], k, yk)
    return stats.reshape(4, -1)


def _best_cuts(sx, count, run, n, cuttable, seg, start):
    """Each segment's first highest-gain cut, as (segments, cut positions,
    thresholds, gains); a cut at position p puts elements up to p on the left.
    ``sx`` holds the segments' values in order, ``count`` their drawn counts
    and ``run`` each segment's own running sum of its centred y sums, ``n``
    each segment's count; ``cuttable`` marks where a split may fall, ``seg``
    is each element's segment and ``start`` bounds the segments."""
    cut = np.flatnonzero(cuttable[:-1] & (sx[:-1] < sx[1:]))  # the last row of a value block
    if not cut.size:
        return cut, cut, sx[:0], sx[:0]
    cs = seg.take(cut)
    left = run.take(cut)
    right = run.take(start[1:] - 1).take(cs)  # each segment's total, less the left sum
    right -= left
    # counts are whole, so a flat running sum is exact
    n_left = np.cumsum(count)
    base = n_left.take(start[:-1]) - count.take(start[:-1])
    n_left = n_left.take(cut)
    n_left -= base.take(cs)
    n_right = n.take(cs) - n_left
    gain = left * left  # _gain, in place
    gain /= n_left
    right *= right
    right /= n_right
    gain += right
    head = np.ones(cut.size, dtype=bool)
    np.not_equal(cs[1:], cs[:-1], out=head[1:])
    segs = cs.compress(head)
    best = np.full(n.size, -np.inf)
    best[segs] = np.maximum.reduceat(gain, np.flatnonzero(head))
    top = np.flatnonzero(gain == best.take(cs))
    at = cut.take(top.take(np.searchsorted(cs.take(top), segs)))  # first maximum: lowest threshold
    lo, hi = sx.take(at), sx.take(at + 1)
    mid = (lo + hi) / 2.0  # adjacent floats: mid rounds onto lo
    return segs, at, np.where(lo < mid, mid, hi), best.take(segs)


def _grow(kept, values, order, stats, max_depth) -> list:
    """Grow one tree per ``order.shape[1]`` columns of the ``_tally`` ``stats``
    on the ``kept`` features, a depth level at a time across all of them.  A
    level's nodes are contiguous segments, bounded by ``start``.  With one
    feature, key order is value order: a node is an interval of its tree's
    drawn rows in that order, gathered once, and a split cuts it in place.
    Otherwise ``rows[j]`` lists each node's drawn rows, as columns of
    ``stats``, node after node, in stable order of ``values[j]`` (``rows[0]``
    is key order), and a split stably partitions them.  Every sum that decides
    a node runs over its own segment in the order one tree fitted alone would
    use, so each tree is bitwise that tree."""
    count, total, lo, hi = stats
    size = order.shape[1]
    drawn = count.reshape(-1, size) > 0
    trees = drawn.shape[0]
    per_tree = np.count_nonzero(drawn, axis=1)
    start = np.concatenate([[0], np.cumsum(per_tree)])
    values = np.broadcast_to(values[:, np.newaxis], (len(values), *drawn.shape))
    values = values.reshape(len(values), count.size)  # a view for one tree
    interval = len(order) == 1
    if interval:  # each tree's drawn rows' count, y sum, y bounds and value, compressed in place
        held = np.empty((len(stats) + len(values), start[-1]))
        np.compress(drawn.ravel(), stats, axis=1, out=held[:len(stats)])
        np.compress(drawn.ravel(), values, axis=1, out=held[len(stats):])
    else:  # tree t's drawn rows in each feature's order, as columns t * size + r
        rows = np.broadcast_to(order[:, np.newaxis], (order.shape[0], *drawn.shape))
        rows = rows[drawn[:, order].swapaxes(0, 1)].reshape(order.shape[0], -1)
        rows += np.repeat(np.arange(trees) * size, per_tree)
    roots, parents, kids = None, [], (slice(0), slice(0))
    for depth in range(max_depth + 1):
        lengths = start[1:] - start[:-1]
        seg = np.repeat(np.arange(lengths.size), lengths)
        if interval:
            c, y_sum, bounds, x = held[:1], held[1:2], held[2:4], held[4:]
        else:  # each feature's values are taken as its search needs them
            c, y_sum = count.take(rows), total.take(rows)
            bounds = lo.take(rows[0]), hi.take(rows[0])
            x = (v.take(r) for v, r in zip(values, rows))
        key_count, key_total = c[0], y_sum[0]
        n = np.add.reduceat(key_count, start[:-1])
        # a node mean is the pairwise .sum() of its key-ordered y sums, as
        # one tree's node takes it; counts are whole, so any order is exact
        spans = list(zip(start[:-1].tolist(), start[1:].tolist()))
        mean = np.array([key_total[a:b].sum() for a, b in spans]) / n
        nodes = [TreeNode(int(k), m) for k, m in zip(n.tolist(), mean.tolist())]
        for parent, left, right in zip(parents, nodes[kids[0]], nodes[kids[1]]):
            parent.left, parent.right = left, right
        roots = roots or nodes
        if depth == max_depth or not len(values):
            break
        # a split falls inside an impure node of two or more rows, never after its last row
        can_split = (np.minimum.reduceat(bounds[0], start[:-1])
                     < np.maximum.reduceat(bounds[1], start[:-1])) & (lengths > 1)
        del bounds  # before the search's peak
        cuttable = can_split.take(seg)
        cuttable[start[1:] - 1] = False
        # every feature's centred y sums, then each such node's running sums as one
        # tree's node takes them: a cumsum (np.add.accumulate) in place on its rows
        run = y_sum - c * mean.take(seg)
        for s in np.flatnonzero(can_split).tolist():
            a, b = spans[s]
            sums = run[:, a:b]
            np.add.accumulate(sums, axis=1, out=sums)
        threshold = np.full((len(values), lengths.size), np.nan)
        gain = np.full_like(threshold, -np.inf)
        cut = np.zeros(threshold.shape, dtype=np.intp)
        for j, sx in enumerate(x):
            segs, cut[j, segs], threshold[j, segs], gain[j, segs] = _best_cuts(
                sx, c[j], run[j], n, cuttable, seg, start)
        offered = ~np.isnan(threshold)
        feature = gain.argmax(axis=0)  # the highest gain; of equal ones, the lowest feature
        many = np.flatnonzero(offered.sum(axis=0) > 1)
        if many.size:
            # each gain, by running sums or rescored, is within _gain_error of its partition's
            # exact gain, so only top two gains closer than four such errors can swap
            spread = np.add.reduceat(np.abs(key_total - key_count * mean.take(seg)), start[:-1])
            top2 = np.sort(gain[:, many], axis=0)[-2:]
            many = many[~(top2[-1] - top2[0] > 4 * _gain_error(lengths[many], spread[many]))]
        for s in many.tolist():
            # each gain from the partition alone, summed in key order, so
            # candidates that split the rows alike score bitwise equal
            a, b = spans[s]
            count_s, centred = key_count[a:b], key_total[a:b] - key_count[a:b] * mean[s]
            scores = []
            for j in np.flatnonzero(offered[:, s]).tolist():
                side = values[j].take(rows[0][a:b]) < threshold[j, s]
                scores.append(_gain(count_s[side].sum(), centred[side].sum(),
                                    count_s[~side].sum(), centred[~side].sum()))
            # the first of equal scores: lowest feature
            feature[s] = np.flatnonzero(offered[:, s])[scores.index(max(scores))]
        threshold = threshold[feature, np.arange(feature.size)]
        splits = offered.any(axis=0)
        split = np.flatnonzero(splits)
        if not split.size:
            break
        parents = [nodes[s] for s in split.tolist()]
        for node, j, t in zip(parents, np.flatnonzero(kept).take(feature.take(split)).tolist(),
                              threshold.take(split).tolist()):
            node.split = (j, t)
        # a cut at p sends the rows of node [a, b) up to p left, in its feature's order
        n_left = cut[feature.take(split), split] + 1 - start.take(split)
        sizes = (n_left, lengths.take(split) - n_left)
        keep = splits.take(seg)
        if interval:
            # each child is an interval where it lies; the rows of nodes that stop go
            if split.size < lengths.size:
                held = held.compress(keep, axis=1)
            sizes, kids = np.column_stack(sizes), (slice(0, None, 2), slice(1, None, 2))
        else:
            # every split node's rows go, in order, to its left child among the
            # left children, then to its right child among the right children
            goes_left = np.zeros(count.size, dtype=bool)
            goes_left[rows[0]] = keep & (values.take(feature.take(seg) * count.size + rows[0])
                                         < threshold.take(seg))
            left = goes_left.take(rows)
            right = keep > left
            d = len(rows)
            rows = np.concatenate([rows[left].reshape(d, -1), rows[right].reshape(d, -1)], axis=1)
            kids = (slice(split.size), slice(split.size, None))
        start = np.concatenate([[0], np.cumsum(np.ravel(sizes))])
    return roots


def fit_tree(X, y, max_depth: int = 2) -> TreeNode:
    """Fit one CART regression tree on an (n, d) feature matrix and n outcomes."""
    kept, values, key, order, y = _training_set(X, y, max_depth)
    stats = _tally(key, y, [np.arange(y.size)], 1, order.shape[1])
    return _grow(kept, values, order, stats, max_depth)[0]


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
        # The forest is constant on each cell of the grid cut by the thresholds it
        # splits on, so it is evaluated once per occupied cell, at the cell's first
        # row.  A row's cell along feature j is the number of thresholds <= x_j; since
        # a value at a threshold routes right, every row of a cell takes the same path
        # through every tree.  NaN and +inf land in the last cell, whose rows all go
        # right at every split.  A chunk of trees (fit_forest's rule) routes as one
        # (tree, cell) node array, a level a step.  Leaf means are summed in tree order
        # from -0.0 (-0.0 + m is m) and divided: a per-row mean's arithmetic, bitwise.
        feature, threshold, left, right, mean, depth, cuts = self._table
        codes = ((np.searchsorted(thr, X[:, j], side="right"), thr.size + 1)
                 for j, thr in enumerate(cuts) if thr.size)
        first, inverse = _cells(X.shape[0], codes)
        cells = X.take(first, axis=0).ravel()
        base = np.arange(first.size) * self.feature_count
        trees, step, acc = len(self.trees), max(1, _CHUNK_ELEMENTS // max(1, first.size)), -0.0
        for roots in np.split(np.arange(trees), range(step, trees, step)):
            node = roots.repeat(first.size).reshape(roots.size, first.size)
            for _ in range(depth):  # a leaf is its own child: every tree routes to depth
                goes_left = cells.take(base + feature.take(node)) < threshold.take(node)
                node = np.where(goes_left, left.take(node), right.take(node))
            acc = sum(mean.take(node), acc)  # tree after tree, not np.sum's pairwise order
        return (acc / trees)[inverse]

    @cached_property
    def _table(self):  # columns feature, threshold, left, right, mean; depth; thresholds
        queue = [(node, 0) for node in self.trees]
        rows, depth = [], 0
        for i, (node, level) in enumerate(queue):  # breadth first, as the queue grows
            kids = (i, i)
            if node.split is not None:  # levels never fall, so the last split sets the depth
                kids, depth = (len(queue), len(queue) + 1), level + 1
                queue += [(node.left, level + 1), (node.right, level + 1)]
            rows.append((*(node.split or (0, np.nan)), *kids, node.mean))
        feature, threshold, left, right, mean = map(np.array, zip(*rows))
        split = left != np.arange(left.size)
        cuts = [np.unique(threshold[split & (feature == j)]) for j in range(self.feature_count)]
        return feature, threshold, left, right, mean.astype(float), depth, cuts

    def thresholds(self) -> list:
        """Copies of the sorted distinct thresholds of the split rows, one array per feature."""
        return [cuts.copy() for cuts in self._table[6]]


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
    rows by iterating them.  Trees grow level by level in chunks of as many
    as ``_CHUNK_ELEMENTS`` (tree, distinct row) elements hold, in the calling
    thread; tree i is the same in any chunk.
    """
    rows = list(rows)
    kept, values, key, order, y = _training_set([r[0] for r in rows], [r[1] for r in rows],
                                                max_depth, n_trees)
    size = order.shape[1]
    per_chunk = max(1, _CHUNK_ELEMENTS // size)
    trees = []
    for first in range(0, n_trees, per_chunk):
        chunk = range(first, min(first + per_chunk, n_trees))
        draws = (_tree_rng(seed, i).integers(0, y.size, size=y.size) for i in chunk)
        trees += _grow(kept, values, order, _tally(key, y, draws, len(chunk), size), max_depth)
    return RegressionForest(tuple(trees), kept.size)


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
