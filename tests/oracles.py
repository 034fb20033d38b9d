"""Independent brute-force oracles the tests check the library against.

Everything here is written the slow, obvious way on purpose: plain loops,
two-pass statistics, exhaustive enumeration.  None of it shares code with
the library.
"""

import math
from fractions import Fraction

import numpy as np


def two_pass_deviation(scores):
    """Mean/sd computed in two explicit passes, then the standardization."""
    n = len(scores)
    mean = sum(scores) / n
    sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / n)
    return [10.0 * (s - mean) / sd + 50.0 for s in scores]


def sse_two_pass(values):
    if len(values) == 0:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def brute_force_best_split(X, y, min_leaf=1):
    """Enumerate every (feature, midpoint) candidate; first strict minimum wins.

    Iterates features ascending, thresholds ascending, so the tie-break is
    lowest feature index then lowest threshold.
    """
    n, d = X.shape
    best = None
    for j in range(d):
        values = sorted(set(float(v) for v in X[:, j]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, j] < threshold]
            right = [i for i in range(n) if not (X[i, j] < threshold)]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            sse = sse_two_pass([float(y[i]) for i in left]) + sse_two_pass(
                [float(y[i]) for i in right]
            )
            if best is None or sse < best[0]:
                best = (sse, j, threshold)
    if best is None:
        return None
    return best[1], best[2]


def brute_force_tree(X, y, max_depth, min_split=2, min_leaf=1, depth=0):
    """Reference CART as nested dicts {'n', 'mean', 'split', 'left', 'right'}."""
    node = {"n": len(y), "mean": sum(float(v) for v in y) / len(y), "split": None}
    if depth >= max_depth or len(y) < min_split or min(y) == max(y):
        return node
    found = brute_force_best_split(X, y, min_leaf)
    if found is None:
        return node
    j, threshold = found
    mask = X[:, j] < threshold
    node["split"] = (j, threshold)
    node["left"] = brute_force_tree(X[mask], y[mask], max_depth, min_split, min_leaf, depth + 1)
    node["right"] = brute_force_tree(X[~mask], y[~mask], max_depth, min_split, min_leaf, depth + 1)
    return node


def per_node_sort_tree(X, y, max_depth, min_split=2, min_leaf=1, depth=0):
    """Reference CART that stable-argsorts every feature again at every node.

    Same nested dicts as brute_force_tree, with the library's arithmetic: per
    feature, the first minimum of the cumulative-sum child SSE over sorted
    values picks the threshold; across features, the canonical partition SSE
    (child deviations from their means, squared and summed) picks the feature,
    first strict minimum winning.  Node means are numpy means in row order.
    """
    node = {"n": int(y.size), "mean": float(y.mean()), "split": None}
    if depth >= max_depth or y.size < min_split or y.min() == y.max():
        return node
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        sx, sy = X[order, j], y[order]
        cut = np.nonzero(sx[:-1] < sx[1:])[0]
        n_left = cut + 1
        n_right = y.size - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        csum, csq = np.cumsum(sy), np.cumsum(sy * sy)
        sse = (csq[cut] - csum[cut] ** 2 / n_left) + (
            csq[-1] - csq[cut] - (csum[-1] - csum[cut]) ** 2 / n_right
        )
        sse[~ok] = np.inf
        k = int(np.argmin(sse))
        if not np.isfinite(sse[k]):
            continue
        threshold = float((sx[cut[k]] + sx[cut[k] + 1]) / 2.0)
        mask = X[:, j] < threshold
        dl = y[mask] - y[mask].mean()
        dr = y[~mask] - y[~mask].mean()
        canonical = float(dl @ dl + dr @ dr)
        if best is None or canonical < best[0]:
            best = (canonical, j, threshold)
    if best is None:
        return node
    _, j, threshold = best
    mask = X[:, j] < threshold
    node["split"] = (j, threshold)
    node["left"] = per_node_sort_tree(X[mask], y[mask], max_depth, min_split, min_leaf, depth + 1)
    node["right"] = per_node_sort_tree(X[~mask], y[~mask], max_depth, min_split, min_leaf, depth + 1)
    return node


def per_node_sort_forest(X, y, n_trees, seed, max_depth, min_split=2, min_leaf=1):
    """Bagged per_node_sort_tree: tree i fits the rows drawn by
    ``default_rng([seed mod 2**64, i]).integers(0, n, size=n)``."""
    n = y.size
    trees = []
    for i in range(n_trees):
        idx = np.random.default_rng([seed % 2**64, i]).integers(0, n, size=n)
        trees.append(per_node_sort_tree(X[idx], y[idx], max_depth, min_split, min_leaf))
    return trees


def assert_same_tree(node, ref, mean_tol=1e-9):
    """Compare a fitted TreeNode against the reference dict, split for split;
    with ``mean_tol=0`` node means must be equal."""
    assert node.n == ref["n"], f"node size {node.n} != {ref['n']}"
    assert math.isclose(node.mean, ref["mean"], rel_tol=0.0, abs_tol=mean_tol), (
        f"mean {node.mean!r} != {ref['mean']!r}"
    )
    if ref["split"] is None:
        assert node.split is None, f"unexpected split {node.split}"
        return
    assert node.split is not None, f"missing split, expected {ref['split']}"
    assert node.split[0] == ref["split"][0], f"feature {node.split} != {ref['split']}"
    assert node.split[1] == ref["split"][1], f"threshold {node.split} != {ref['split']}"
    assert_same_tree(node.left, ref["left"], mean_tol)
    assert_same_tree(node.right, ref["right"], mean_tol)


def exact_bin_key(x, w):
    """Bin key in exact rational arithmetic: the nearest whole number of
    widths (ties to even) times the width's shortest decimal, rounded once."""
    return float(round(x / w) * Fraction(repr(w)))


def fsum_mean(values):
    """Exactly rounded mean via math.fsum."""
    values = list(values)
    return math.fsum(values) / len(values)


def per_row_forest_mean(trees, X):
    """Forest prediction the per-row way: walk every tree for every row,
    accumulate tree by tree (acc = t0, then acc += t_i), divide by the count."""
    out = []
    for row in X:
        acc = None
        for tree in trees:
            node = tree
            while node.split is not None:
                feature, threshold = node.split
                node = node.left if row[feature] < threshold else node.right
            acc = node.mean if acc is None else acc + node.mean
        out.append(acc / len(trees))
    return np.asarray(out, dtype=float)
