"""Depth-limited CART regression trees, deterministically seeded bagging, and
one forest predictor: a forest is one node table, which growth writes.

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
A node's ``n`` counts drawn rows.  A node holds only drawn distinct rows and
a threshold separates two values, so a split leaves drawn rows on each side.
Summing per distinct row only reassociates a per-row fit's sums: node means
move by a few ulps, and a split only between partitions that tie in exact
arithmetic.

Trees grow a depth level at a time, a chunk of trees together: each level is a
few numpy passes over the (tree, node, distinct row) segments of the whole
chunk, and no node sorts.  The chunk gathers its drawn rows once, in each coded
feature's order, and drops its tally.  A split at cut position p of node [a, b)
in its feature's order leaves children [a, p + 1) and [p + 1, b) where they
lie in that order, and stably partitions the node's rows, left child then
right, in every other feature's order; a fit of one coded feature only drops
the rows of nodes that stop.  A chunk holds ``_CHUNK_ELEMENTS`` (tree, distinct
row) elements per coded feature, as a routing chunk holds (tree, cell)
elements.  Each sum that decides a node is taken over that node's rows in the
order one tree grown alone would use (a node's y sum pairwise, its running
sums one ``cumsum`` over its own slice of the level), so a tree is bitwise the
same whichever chunk grows it.  ``_forest`` lays the chunks' levels out level
by level as the node table, and hand-made trees' levels too (``from_trees``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import DECIMAL_RANGE, in_decimal_range
from .errors import DimensionMismatch, DomainError, EmptyInput

_SEED_SPACE = 2**64
# Elements a chunk holds: growth, (tree, distinct row) elements per coded feature;
# routing, (tree, cell) elements.  A forest grows and routes in chunks of as many
# trees as this many allow, and at least one.  At the peak (tracemalloc, rows all
# distinct) a growth chunk holds about 69 bytes an element with one coded feature,
# 103 with two and 144 with three, so 1.3-1.4 MB; a routing chunk about 35 bytes.
_CHUNK_ELEMENTS = 20_000


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    # keyed on (seed, tree index): tree i's stream is independent of fit order
    return np.random.default_rng([seed % _SEED_SPACE, index])


@dataclass(frozen=True)
class TreeNode:
    """A read-only view of a forest's node, or a hand-made node for
    ``RegressionForest.from_trees``.  ``split`` is (feature index, threshold);
    internal nodes have both children, leaves neither."""

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
    is key order.  With no kept feature, a column of zeros stands in: the one
    distinct row still has a value and an order, and nothing splits."""
    kept = X.min(axis=0) < X.max(axis=0)  # -0.0 and 0.0 are one value
    columns = X.T[kept] if kept.any() else np.zeros((1, X.shape[0]))
    coded = (np.unique(x, return_inverse=True) for x in columns)
    first, key = _cells(X.shape[0], ((code, values.size) for values, code in coded))
    values = columns.take(first, axis=1)
    return kept, values, key, np.argsort(values, axis=1, kind="stable")


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
    ``sx`` holds the segments' values in order, ``count`` their drawn counts,
    ``run`` each segment's own running sum of its centred y sums and ``n`` its
    count; ``cuttable`` marks where a split may fall (never a segment's last
    element), ``seg`` is each element's segment and ``start`` bounds them.
    Every position is scored in place, and those that may not cut score -inf."""
    ok = cuttable.copy()
    ok[:-1] &= sx[:-1] < sx[1:]  # the last row of a value block
    # counts are whole, so a flat running sum is exact
    n_left = np.cumsum(count)
    n_left -= (n_left.take(start[:-1]) - count.take(start[:-1])).take(seg)
    right = run.take(start[1:] - 1).take(seg)  # each segment's total, less the left sum
    right -= run
    right *= right  # _gain, in place; a segment's last row has none on its right
    np.divide(right, n.take(seg) - n_left, out=right, where=ok)
    gain = run * run
    gain /= n_left
    gain += right
    gain[~ok] = -np.inf
    best = np.maximum.reduceat(gain, start[:-1])
    segs = np.flatnonzero(best > -np.inf)
    top = np.flatnonzero(gain == best.take(seg))
    at = top.take(np.searchsorted(seg.take(top), segs))  # first maximum: lowest threshold
    lo, hi = sx.take(at), sx.take(at + 1)
    mid = (lo + hi) / 2.0  # adjacent floats: mid rounds onto lo
    return segs, at, np.where(lo < mid, mid, hi), best.take(segs)


def _partition(held, values, seg, splits, feature, threshold):
    """``held`` (see ``_grow``) with only the rows of the nodes ``splits``
    marks, moved in place a row at a time: in each feature's order, each
    node's rows go stably to its left child, then its right.  A row goes right
    where its value of the node's ``feature`` is at or above the node's
    ``threshold``; in the order of that feature, a node's rows already lie so."""
    stay = np.arange(seg.size) if splits.all() else np.flatnonzero(splits.take(seg))
    narrow = np.min_scalar_type(2 * splits.size)  # (node, side) keys: radix sorts at 16 bits
    for j in range(len(values)):
        moved = stay
        if (feature[splits] != j).any():
            s = seg.take(stay)
            r = held[j, 4].take(stay).astype(np.intp) % values.shape[1]
            goes_right = values.take(feature.take(s) * values.shape[1] + r) >= threshold.take(s)
            moved = stay.take(np.argsort((2 * s + goes_right).astype(narrow), kind="stable"))
        elif splits.all():
            continue
        for row in held[j]:  # a row at a time, in place
            row[:moved.size] = row.take(moved)
    return held[..., :stay.size]


def _grow(kept, values, key, order, y, draws, trees, max_depth) -> list:
    """Grow one tree per draw of ``draws`` (``trees`` of them) on the ``kept``
    features, a depth level at a time across all of them, from the ``_tally``
    of the draws; returns each level's node columns n, mean, feature and
    threshold (0 and NaN at a leaf).  ``held[j]`` holds each tree's drawn rows,
    node after node, in stable order of ``values[j]`` (``held[0]`` is key
    order): as rows, their drawn count, y sum, y (NaN where their draws' y
    differ), value of feature j and tally column.  A level's nodes are
    contiguous segments of every ``held[j]``, bounded by ``start``;
    ``_partition`` moves them to the next level's, a split's children left then
    right.  Every sum that decides a node runs over its own segment in the
    order one tree fitted alone would use, so each tree is bitwise that tree."""
    size = order.shape[1]
    stats = _tally(key, y, draws, trees, size)
    drawn = stats[0].reshape(trees, size) > 0
    per_tree = np.count_nonzero(drawn, axis=1)
    start = np.concatenate([[0], np.cumsum(per_tree)])
    held = np.empty((len(order), 5, start[-1]))
    for j, o in enumerate(order):  # tree t's drawn rows in feature j's order, o[i] at t * size + i
        column = np.flatnonzero(drawn.take(o, axis=1))
        column += (o - np.arange(size)).take(column, mode="wrap")  # the tally's t * size + o[i]
        held[j, 4] = column
        # 'wrap' takes value o[i] at t * size + o[i]; 'clip' and 'wrap' do not buffer out
        values[j].take(column, out=held[j, 3], mode="wrap")
        stats[:3].take(column, axis=1, out=held[j, :3], mode="clip")
        np.copyto(held[j, 2], np.nan, where=stats[3].take(column) != held[j, 2])  # y differs
    del stats, column  # the tally goes before the search's peak
    levels = []
    for depth in range(max_depth + 1):
        lengths = start[1:] - start[:-1]
        seg = np.repeat(np.arange(lengths.size), lengths)
        count, total = held[:, 0], held[:, 1]
        key_count, key_total = count[0], total[0]
        n = np.add.reduceat(key_count, start[:-1])
        # a node mean is the pairwise .sum() of its key-ordered y sums, as
        # one tree's node takes it; counts are whole, so any order is exact
        spans = list(zip(start[:-1].tolist(), start[1:].tolist()))
        mean = np.array([key_total[a:b].sum() for a, b in spans]) / n
        levels.append([n.astype(np.intp), mean, np.zeros(n.size, np.intp), np.full(n.size, np.nan)])
        if depth == max_depth:
            break
        # a split falls inside a node of two or more rows whose y differ (a NaN y
        # equals nothing), never after its last row
        can_split = ~(np.minimum.reduceat(held[0, 2], start[:-1])
                      == np.maximum.reduceat(held[0, 2], start[:-1])) & (lengths > 1)
        cuttable = can_split.take(seg)
        cuttable[start[1:] - 1] = False
        # every feature's centred y sums, then each such node's running sums as one
        # tree's node takes them: a cumsum (np.add.accumulate) in place on its rows
        run = total - count * mean.take(seg)
        for s in np.flatnonzero(can_split).tolist():
            a, b = spans[s]
            sums = run[:, a:b]
            np.add.accumulate(sums, axis=1, out=sums)
        threshold = np.full((len(values), lengths.size), np.nan)
        gain = np.full_like(threshold, -np.inf)
        cut = np.zeros(threshold.shape, dtype=np.intp)
        for j in range(len(values)):
            segs, cut[j, segs], threshold[j, segs], gain[j, segs] = _best_cuts(
                held[j, 3], held[j, 0], run[j], n, cuttable, seg, start)
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
            column = held[0, 4, a:b].astype(np.intp)
            scores = []
            for j in np.flatnonzero(offered[:, s]).tolist():
                side = values[j].take(column, mode="wrap") < threshold[j, s]
                scores.append(_gain(count_s[side].sum(), centred[side].sum(),
                                    count_s[~side].sum(), centred[~side].sum()))
            # the first of equal scores: lowest feature
            feature[s] = np.flatnonzero(offered[:, s])[scores.index(max(scores))]
        threshold = threshold[feature, np.arange(feature.size)]
        splits = offered.any(axis=0)
        split = np.flatnonzero(splits)
        if not split.size:
            break
        on = feature.take(split)
        levels[-1][2:] = np.where(splits, np.flatnonzero(kept).take(feature), 0), threshold
        # a cut at p sends the rows of node [a, b) up to p left, in its feature's order
        n_left = cut[on, split] + 1 - start.take(split)
        sizes = np.column_stack((n_left, lengths.take(split) - n_left))
        held = _partition(held, values, seg, splits, feature, threshold)
        start = np.concatenate([[0], np.cumsum(sizes.ravel())])
    return levels


def fit_tree(X, y, max_depth: int = 2) -> TreeNode:
    """Fit one CART regression tree on an (n, d) feature matrix and n outcomes."""
    kept, values, key, order, y = _training_set(X, y, max_depth)
    return _forest([_grow(kept, values, key, order, y, [np.arange(y.size)], 1, max_depth)],
                   1, kept.size).trees[0]


@dataclass(frozen=True, eq=False)
class RegressionForest:
    """Bagged CART trees, predicting the mean of their predictions, as one read-only node
    table in scikit-learn's ``Tree`` layout: a row a node, level by level, tree t's root row t."""

    n: np.ndarray  # drawn rows
    mean: np.ndarray
    feature: np.ndarray  # a split row's feature, 0 at a leaf
    threshold: np.ndarray  # NaN at a leaf
    left: np.ndarray  # child rows: a leaf is its own child
    right: np.ndarray
    depth: int  # the deepest split's level plus one: every tree routes this deep
    n_trees: int
    feature_count: int

    def __post_init__(self):  # read-only columns, and each feature's sorted split thresholds
        for column in (self.n, self.mean, self.feature, self.threshold, self.left, self.right):
            column.flags.writeable = False
        split = self.left != np.arange(self.left.size)
        object.__setattr__(self, "_cuts", [np.unique(self.threshold[split & (self.feature == j)])
                                           for j in range(self.feature_count)])

    @staticmethod
    def from_trees(trees, feature_count: int) -> RegressionForest:
        """The forest of ``trees``, root ``TreeNode``s: ``_forest`` lays out their levels."""
        levels, nodes = [], list(trees)
        while nodes:  # a level, then its splits' children, left then right, as _grow yields them
            rows = zip(*((node.n, node.mean, *(node.split or (0, np.nan))) for node in nodes))
            levels.append([np.array(c, t) for c, t in zip(rows, (np.intp, float, np.intp, float))])
            nodes = [kid for node in nodes if not node.is_leaf for kid in (node.left, node.right)]
        return _forest([levels], len(trees), feature_count)

    @cached_property
    def trees(self) -> tuple:
        """Each tree's root ``TreeNode``: a read-only view of the table, built on first use."""
        nodes = [None] * self.n.size
        rows = zip(self.n.tolist(), self.mean.tolist(), self.feature.tolist(),
                   self.threshold.tolist(), self.left.tolist(), self.right.tolist())
        for i, (k, m, j, t, a, b) in reversed(list(enumerate(rows))):  # children follow parents
            nodes[i] = TreeNode(k, m) if a == i else TreeNode(k, m, (j, t), nodes[a], nodes[b])
        return tuple(nodes[:self.n_trees])

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
        # right at every split.  A chunk of trees (_CHUNK_ELEMENTS) routes as one
        # (tree, cell) node array, a level a step.  Leaf means are summed in tree order
        # from -0.0 (-0.0 + m is m) and divided: a per-row mean's arithmetic, bitwise.
        codes = ((np.searchsorted(thr, X[:, j], side="right"), thr.size + 1)
                 for j, thr in enumerate(self._cuts) if thr.size)
        first, inverse = _cells(X.shape[0], codes)
        cells = X.take(first, axis=0).ravel()
        base = np.arange(first.size) * self.feature_count
        trees, step, acc = self.n_trees, max(1, _CHUNK_ELEMENTS // max(1, first.size)), -0.0
        for roots in np.split(np.arange(trees), range(step, trees, step)):
            node = roots.repeat(first.size).reshape(roots.size, first.size)
            for _ in range(self.depth):  # a leaf is its own child: every tree routes to depth
                goes_left = cells.take(base + self.feature.take(node)) < self.threshold.take(node)
                node = np.where(goes_left, self.left.take(node), self.right.take(node))
            acc = sum(self.mean.take(node), acc)  # tree after tree, not np.sum's pairwise order
        return (acc / trees)[inverse]

    def thresholds(self) -> list:
        """Copies of the sorted distinct thresholds of the split rows, one array per feature."""
        return [cuts.copy() for cuts in self._cuts]


def _forest(chunks, n_trees, feature_count) -> RegressionForest:
    """The forest of consecutive chunks' levels (``_grow``'s, or ``from_trees``'), the one
    table layout: level by level, chunk after chunk, so tree t's root is row t and split
    row k's children are rows n_trees + 2k and + 1; a leaf is its own child."""
    depth = max(map(len, chunks))
    levels = [chunk[d] for d in range(depth) for chunk in chunks if d < len(chunk)]
    n, mean, feature, threshold = columns = list(map(np.concatenate, zip(*levels)))
    split, left = ~np.isnan(threshold), np.arange(n.size)
    left[split] = n_trees + 2 * np.arange(np.count_nonzero(split))
    return RegressionForest(*columns, left, left + split, depth - 1, n_trees, feature_count)


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
    rows by iterating them.  Trees grow in the calling thread, in chunks of as
    many as ``_CHUNK_ELEMENTS`` (tree, distinct row) elements per coded
    feature hold, whose levels ``_forest`` lays out; tree i is the same in any chunk.
    """
    rows = list(rows)
    kept, values, key, order, y = _training_set([r[0] for r in rows], [r[1] for r in rows],
                                                max_depth, n_trees)
    size = order.shape[1]
    per_chunk = max(1, _CHUNK_ELEMENTS // (size * len(order)))
    chunks = []
    for first in range(0, n_trees, per_chunk):
        chunk = range(first, min(first + per_chunk, n_trees))
        draws = (_tree_rng(seed, i).integers(0, y.size, size=y.size) for i in chunk)
        chunks.append(_grow(kept, values, key, order, y, draws, len(chunk), max_depth))
    return _forest(chunks, n_trees, kept.size)


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
