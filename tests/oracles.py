"""Independent brute-force oracles the tests check the library against.

Everything here is written the slow, obvious way on purpose: plain loops,
two-pass statistics, exhaustive enumeration.  None of it shares code with
the library.
"""

import math

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


def assert_same_tree(node, ref):
    """Compare a fitted TreeNode against the reference dict, split for split."""
    assert node.n == ref["n"], f"node size {node.n} != {ref['n']}"
    assert math.isclose(node.mean, ref["mean"], rel_tol=0.0, abs_tol=1e-9)
    if ref["split"] is None:
        assert node.split is None, f"unexpected split {node.split}"
        return
    assert node.split is not None, f"missing split, expected {ref['split']}"
    assert node.split[0] == ref["split"][0], f"feature {node.split} != {ref['split']}"
    assert node.split[1] == ref["split"][1], f"threshold {node.split} != {ref['split']}"
    assert_same_tree(node.left, ref["left"])
    assert_same_tree(node.right, ref["right"])


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
