"""Independent brute-force oracles the tests check the library against.

Everything here is written the slow, obvious way on purpose: plain loops,
two-pass statistics, exhaustive enumeration.  None of it shares arithmetic
with the library.  The ``per_call_`` oracles pin the library's former
arithmetic verbatim: they take from it only result types and input checks.
"""

import csv
import io
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from catebench.dataset import CANONICAL_COLUMNS, Cohort, LoadReport, SchemaConfig
from catebench.errors import EmptyArm, ParseError, SchemaError
from catebench.tlearner import EffectReport
from catebench.treatcount import CateSurface, _require_dose, default_dose_probes


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


def brute_force_best_split(X, y):
    """Enumerate every (feature, threshold) candidate; first strict minimum wins.

    A threshold is the midpoint of two consecutive distinct values, or the
    upper value where the midpoint rounds onto the lower.  Iterates features
    ascending, thresholds ascending, so the tie-break is lowest feature index
    then lowest threshold.
    """
    n, d = X.shape
    best = None
    for j in range(d):
        values = sorted(set(float(v) for v in X[:, j]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if not lo < threshold:  # adjacent floats: the midpoint rounds onto lo
                threshold = hi
            left = [i for i in range(n) if X[i, j] < threshold]
            right = [i for i in range(n) if not (X[i, j] < threshold)]
            sse = sse_two_pass([float(y[i]) for i in left]) + sse_two_pass(
                [float(y[i]) for i in right]
            )
            if best is None or sse < best[0]:
                best = (sse, j, threshold)
    if best is None:
        return None
    return best[1], best[2]


def brute_force_tree(X, y, max_depth, depth=0):
    """Reference CART as nested dicts {'n', 'mean', 'split', 'left', 'right'}."""
    node = {"n": len(y), "mean": sum(float(v) for v in y) / len(y), "split": None}
    if depth >= max_depth or min(y) == max(y):
        return node
    found = brute_force_best_split(X, y)
    if found is None:
        return node
    j, threshold = found
    mask = X[:, j] < threshold
    node["split"] = (j, threshold)
    node["left"] = brute_force_tree(X[mask], y[mask], max_depth, depth + 1)
    node["right"] = brute_force_tree(X[~mask], y[~mask], max_depth, depth + 1)
    return node


def per_node_sort_tree(X, y, max_depth, depth=0):
    """Reference CART that stable-argsorts every feature again at every node.

    Same nested dicts as brute_force_tree, with the library's arithmetic: the
    gain of a split is L*L/n_left + R*R/n_right, where L and R are the
    children's sums of y minus the node mean.  Per feature, the first maximum
    of the gain from cumulative sums over sorted values picks the threshold;
    across features, the gain recomputed from each partition picks the
    feature, first strict maximum winning.  Node means are numpy means in row
    order.
    """
    node = {"n": int(y.size), "mean": float(y.mean()), "split": None}
    if depth >= max_depth or y.min() == y.max():
        return node
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        sx, sy = X[order, j], y[order]
        cut = np.nonzero(sx[:-1] < sx[1:])[0]
        if not cut.size:
            continue
        n_left = cut + 1
        n_right = y.size - n_left
        csum = np.cumsum(sy - node["mean"])
        gain = csum[cut] ** 2 / n_left + (csum[-1] - csum[cut]) ** 2 / n_right
        k = int(np.argmax(gain))
        lo, hi = float(sx[cut[k]]), float(sx[cut[k] + 1])
        threshold = (lo + hi) / 2.0
        if not lo < threshold:  # adjacent floats: the midpoint rounds onto lo
            threshold = hi
        mask = X[:, j] < threshold
        dl = float(np.sum(y[mask] - node["mean"]))
        dr = float(np.sum(y[~mask] - node["mean"]))
        canonical = dl * dl / mask.sum() + dr * dr / (~mask).sum()
        if best is None or canonical > best[0]:
            best = (canonical, j, threshold)
    if best is None:
        return node
    _, j, threshold = best
    mask = X[:, j] < threshold
    node["split"] = (j, threshold)
    node["left"] = per_node_sort_tree(X[mask], y[mask], max_depth, depth + 1)
    node["right"] = per_node_sort_tree(X[~mask], y[~mask], max_depth, depth + 1)
    return node


def per_node_sort_forest(X, y, n_trees, seed, max_depth):
    """Bagged per_node_sort_tree: tree i fits the rows drawn by
    ``default_rng([seed mod 2**64, i]).integers(0, n, size=n)``."""
    n = y.size
    trees = []
    for i in range(n_trees):
        idx = np.random.default_rng([seed % 2**64, i]).integers(0, n, size=n)
        trees.append(per_node_sort_tree(X[idx], y[idx], max_depth))
    return trees


def distinct_row_tree(X, y, draw, max_depth):
    """Reference CART over distinct feature rows, in plain per-node loops.

    A distinct row is a tuple of feature values, so -0.0 and 0.0 merge; it
    keeps the values of the first training row that has it, and the rows are
    kept in ascending tuple order.  The rows ``draw`` lists, repeats included,
    are tallied per distinct row in draw order: count, y sum, y min and max.
    A node's size is its drawn count and its mean m the numpy sum of its rows'
    y sums over that count.  A row's centred sum is its y sum minus count * m,
    and a split's gain is L*L/n_left + R*R/n_right, L and R the children's
    centred sums.  Per feature, the node's rows are stable-sorted by value,
    running sums of count and centred sum give each threshold's gain, and the
    first maximum picks the threshold.  Across features, the first strict
    maximum of the gain recomputed from each partition, its centred sums
    numpy-summed in tuple order, picks the feature.
    """
    keys = {}
    for row in X:
        key = tuple(float(v) for v in row)
        keys.setdefault(key, key)
    keys = sorted(keys.values())
    index = {key: d for d, key in enumerate(keys)}
    tally = {}  # distinct row -> [count, y sum, y min, y max]
    for i in draw:
        v = float(y[i])
        t = tally.setdefault(index[tuple(float(x) for x in X[i])], [0, 0.0, v, v])
        t[0] += 1
        t[1] += v
        t[2] = min(t[2], v)
        t[3] = max(t[3], v)

    def gain(n_left, left, n_right, right):
        return left * left / n_left + right * right / n_right

    def side(rows, mean):
        count = sum(tally[d][0] for d in rows)
        return count, float(np.sum(np.array([tally[d][1] - tally[d][0] * mean for d in rows])))

    def grow(rows, depth):
        n = sum(tally[d][0] for d in rows)
        mean = float(np.sum(np.array([tally[d][1] for d in rows])) / n)
        node = {"n": n, "mean": mean, "split": None}
        if depth >= max_depth:
            return node
        if min(tally[d][2] for d in rows) == max(tally[d][3] for d in rows):
            return node
        found = []
        for j in range(len(keys[0])):
            ordered = sorted(rows, key=lambda d: keys[d][j])
            running, cw, cs = [], 0, 0.0
            for d in ordered:
                cw, cs = cw + tally[d][0], cs + (tally[d][1] - tally[d][0] * mean)
                running.append((cw, cs))
            best = None
            for i in range(len(ordered) - 1):
                lo, hi = keys[ordered[i]][j], keys[ordered[i + 1]][j]
                n_left, s_left = running[i]
                if not lo < hi:
                    continue
                g = gain(n_left, s_left, cw - n_left, cs - s_left)
                if best is None or g > best[0]:
                    threshold = (lo + hi) / 2.0
                    if not lo < threshold:  # adjacent floats: the midpoint rounds onto lo
                        threshold = hi
                    best = (g, threshold)
            if best is not None:
                found.append((j, best[1]))
        if not found:
            return node
        if len(found) > 1:
            scored = []
            for j, threshold in found:
                left = side([d for d in rows if keys[d][j] < threshold], mean)
                right = side([d for d in rows if not keys[d][j] < threshold], mean)
                scored.append((gain(*left, *right), j, threshold))
            found = [max(scored, key=lambda t: t[0])[1:]]  # max keeps the first of equals
        j, threshold = found[0]
        node["split"] = (j, threshold)
        node["left"] = grow([d for d in rows if keys[d][j] < threshold], depth + 1)
        node["right"] = grow([d for d in rows if not keys[d][j] < threshold], depth + 1)
        return node

    return grow(sorted(tally), 0)


def per_segment_best_cuts(sx, count, run, n, cuttable, start):
    """Reference ``forest._best_cuts``, one segment and one position at a time.

    Segment s is elements ``start[s]`` to ``start[s + 1]``.  A cut at p puts
    the elements up to p on the left; it is offered where ``cuttable[p]`` holds
    and p is the last element of a run of equal values.  Its gain is
    L*L/n_left + R*R/n_right, with L = run[p], R the segment's last running sum
    less L, n_left the counts up to p added one by one (whole, so exact), and
    n_right = n[s] - n_left.  The first strict maximum wins; the threshold is
    the midpoint of the values either side of the cut, or the upper value
    where the midpoint rounds onto the lower.  Returns (segment, cut position,
    threshold, gain) for each segment with a cut, as Python scalars.
    """
    found = []
    for s, (a, b) in enumerate(zip(start[:-1].tolist(), start[1:].tolist())):
        best, n_left = None, 0.0
        for p in range(a, b - 1):
            n_left += float(count[p])
            if not (cuttable[p] and sx[p] < sx[p + 1]):
                continue
            left, right = float(run[p]), float(run[b - 1]) - float(run[p])
            gain = left * left / n_left + right * right / (float(n[s]) - n_left)
            if best is None or gain > best[1]:
                best = (p, gain)
        if best is not None:
            p, gain = best
            lo, hi = float(sx[p]), float(sx[p + 1])
            mid = (lo + hi) / 2.0
            found.append((s, p, mid if lo < mid else hi, gain))
    return found


def distinct_row_forest(X, y, n_trees, seed, max_depth):
    """Bagged distinct_row_tree: tree i tallies the rows drawn by
    ``default_rng([seed mod 2**64, i]).integers(0, n, size=n)``."""
    n = y.size
    return [
        distinct_row_tree(
            X, y, np.random.default_rng([seed % 2**64, i]).integers(0, n, size=n),
            max_depth,
        )
        for i in range(n_trees)
    ]


def assert_same_tree(node, ref, mean_tol=1e-9, rel_tol=0.0):
    """Compare a fitted TreeNode against the reference dict, split for split;
    with both tolerances 0 node means must be equal."""
    assert node.n == ref["n"], f"node size {node.n} != {ref['n']}"
    assert math.isclose(node.mean, ref["mean"], rel_tol=rel_tol, abs_tol=mean_tol), (
        f"mean {node.mean!r} != {ref['mean']!r}"
    )
    if ref["split"] is None:
        assert node.split is None, f"unexpected split {node.split}"
        return
    assert node.split is not None, f"missing split, expected {ref['split']}"
    assert node.split[0] == ref["split"][0], f"feature {node.split} != {ref['split']}"
    assert node.split[1] == ref["split"][1], f"threshold {node.split} != {ref['split']}"
    assert_same_tree(node.left, ref["left"], mean_tol, rel_tol)
    assert_same_tree(node.right, ref["right"], mean_tol, rel_tol)


def exact_bin_key(x, w):
    """Bin key in exact rational arithmetic: the nearest whole number of
    widths (ties to even) times the width's shortest decimal, rounded once."""
    return float(round(x / w) * Fraction(repr(w)))


def exact_ols(X, y):
    """Least squares with a constant column in exact rational arithmetic:
    the normal equations solved by Gauss-Jordan elimination.  Returns
    (slopes, intercept) as Fractions."""
    rows = [[Fraction(1)] + [Fraction(float(v)) for v in row] for row in X]
    ys = [Fraction(float(v)) for v in y]
    p = len(rows[0])
    system = [
        [sum(r[i] * r[j] for r in rows) for j in range(p)] + [sum(r[i] * t for r, t in zip(rows, ys))]
        for i in range(p)
    ]
    for i in range(p):
        pivot = next(k for k in range(i, p) if system[k][i] != 0)
        system[i], system[pivot] = system[pivot], system[i]
        system[i] = [v / system[i][i] for v in system[i]]
        for k in range(p):
            if k != i:
                system[k] = [a - system[k][i] * b for a, b in zip(system[k], system[i])]
    beta = [system[i][p] for i in range(p)]
    return beta[1:], beta[0]


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


def breadth_first_table(trees):
    """The node table of root ``TreeNode``s by a breadth-first queue walk, as
    (columns n, mean, feature, threshold, left, right; depth; tree count): a
    row a node in queue order, a split's children appended to the queue, a
    leaf its own child, and the depth the deepest split's level plus one."""
    queue = [(node, 0) for node in trees]
    rows, depth = [], 0
    for i, (node, level) in enumerate(queue):  # breadth first, as the queue grows
        kids = (i, i)
        if node.split is not None:  # levels never fall, so the last split sets the depth
            kids, depth = (len(queue), len(queue) + 1), level + 1
            queue += [(node.left, level + 1), (node.right, level + 1)]
        rows.append((node.n, float(node.mean), *(node.split or (0, np.nan)), *kids))
    return list(map(np.array, zip(*rows))), depth, len(trees)


def assert_breadth_first_table(forest, trees):
    """``forest``'s node table is ``breadth_first_table(trees)``, column by
    column in dtype and bytes, with its depth and tree count."""
    columns, depth, n_trees = breadth_first_table(trees)
    names = ("n", "mean", "feature", "threshold", "left", "right")
    for name, want in zip(names, columns, strict=True):
        got = getattr(forest, name)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
    assert (forest.depth, forest.n_trees) == (depth, n_trees)


def phi_per_record(model, cohort, b, dose):
    """phi the per-record way: each member of bin ``b`` predicted alone with
    ``RegressionForest.predict``, the differences averaged with ``np.mean``."""
    rows = cohort.bin_members[b]
    diffs = [
        model.mu1.predict((x1, float(dose))) - model.mu0.predict((x1, float(x2)))
        for x1, x2 in zip(cohort.x1[rows], cohort.x2[rows])
    ]
    return float(np.mean(diffs))


def per_call_phi_surface(model, cohort, x1_bins=None, x2_values=None):
    """phi_surface the per-call way, as the library computed it before it
    predicted once per block of session counts: mu0 once at the members'
    observed counts, mu1 once per session count at every member, and one
    ``np.mean`` per cell."""
    if x2_values is None:
        x2_values = default_dose_probes(model, include_zero=False)
    x2_values = tuple(sorted(set(map(_require_dose, x2_values))))
    members = cohort.bin_members
    x1_bins = tuple(members) if x1_bins is None else tuple(sorted(set(x1_bins)))

    present = [(r, members[b]) for r, b in enumerate(x1_bins) if b in members]
    rows = np.concatenate([np.empty(0, np.intp)] + [part for _, part in present])
    bounds = np.cumsum([0] + [part.size for _, part in present]).tolist()
    X = np.column_stack([cohort.x1[rows], cohort.x2[rows]])
    mu0_obs = model.mu0.predict_many(X)

    grid = np.full((len(x1_bins), len(x2_values)), np.nan)
    for c, dose in enumerate(x2_values):
        X[:, 1] = dose
        diff = model.mu1.predict_many(X) - mu0_obs
        for (r, _), start, end in zip(present, bounds, bounds[1:]):
            grid[r, c] = np.mean(diff[start:end])
    n_missing = (len(x1_bins) - len(present)) * len(x2_values)
    flags = tuple(bool(v < model.dose_min or v > model.dose_max) for v in x2_values)
    return CateSurface(x1_bins, x2_values, grid, model.dose_min, model.dose_max, flags, n_missing)


def per_call_effect_report(model, cohort):
    """effect_report the per-call way, as the library computed it before each
    forest predicted once: ATE over every record (two calls), ATT over the
    treated, ATU over the controls, and both forests again at the bins."""
    def ate(model, cohort):
        X = cohort.x1[:, np.newaxis]
        return float(np.mean(model.mu1.predict_many(X) - model.mu0.predict_many(X)))

    def att(model, cohort):
        treated = cohort.treated
        if not treated.any():
            raise EmptyArm("R1")
        X = np.column_stack([cohort.x1[treated], cohort.x2[treated]][: model.mu0.feature_count])
        return float(np.mean(cohort.y[treated] - model.mu0.predict_many(X)))

    def atu(model, cohort):
        control = ~cohort.treated
        if not control.any():
            raise EmptyArm("R0")
        mu1 = model.mu1.predict_many(cohort.x1[control, np.newaxis])
        return float(np.mean(mu1 - cohort.y[control]))

    bins = np.fromiter(cohort.bin_members, dtype=float)
    mu0 = model.mu0.predict_many(bins[:, np.newaxis])
    mu1 = model.mu1.predict_many(bins[:, np.newaxis])
    return EffectReport(
        ate(model, cohort), att(model, cohort), atu(model, cohort), bins, mu0, mu1, mu1 - mu0
    )


def load_cohort_rows(path, config=None, precision=1.0):
    """Cohort loading the per-cell way: one CSV record at a time, each cell
    parsed as it is met, the first bad cell raising.  Only the result types
    (``Cohort``, ``LoadReport``, ``SchemaConfig``) come from the library."""
    def parse_float(cell, rownum, column):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: row {rownum}, column {column!r}: not a number: {cell!r}"
            ) from None
        if not abs(value) <= 1e100:
            raise ParseError(
                f"{path}: row {rownum}, column {column!r}: {cell!r} is not in [-1e+100, 1e+100]"
            )
        return value

    def parse_count(cell, rownum, column):
        if cell == "":
            return 0
        try:
            value = int(cell)
        except ValueError:
            raise ParseError(
                f"{path}: row {rownum}, column {column!r}: not an integer count: {cell!r}"
            ) from None
        if value < 0:
            raise ParseError(f"{path}: row {rownum}, column {column!r}: negative count")
        if value > 2**63 - 1:
            raise ParseError(f"{path}: row {rownum}, column {column!r}: count above {2**63 - 1}")
        return value

    cfg = config or SchemaConfig.default()
    path = Path(path)
    names = [cfg.columns[c] for c in CANONICAL_COLUMNS]
    for k, name in enumerate(names):
        if name in names[:k]:
            keys = CANONICAL_COLUMNS[names.index(name)], CANONICAL_COLUMNS[k]
            raise SchemaError(f"{path}: {keys[0]!r} and {keys[1]!r} both map to {name!r}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        missing = [name for name in names if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")
        repeated = [name for name in names if header.count(name) > 1]
        if repeated:
            raise SchemaError(f"{path}: column {repeated[0]!r} appears twice in the header")
        positions = [header.index(name) for name in names]

        ids, x1, y, counts = [], [], [], []
        n_rows = 0
        n_dropped = 0
        for rownum, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            n_rows += 1
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}"
                )
            cells = [row[pos].strip() for pos in positions]
            if cells[1] == "" or cells[8] == "":
                n_dropped += 1
                continue
            if "\r" in cells[0] or "\0" in cells[0]:
                raise ParseError(
                    f"{path}: row {rownum}, column {names[0]!r}:"
                    f" an id may not hold '\\r' or NUL: {cells[0]!r}"
                )
            x1.append(parse_float(cells[1], rownum, names[1]))
            y.append(parse_float(cells[8], rownum, names[8]))
            counts.append([parse_count(cells[k], rownum, names[k]) for k in range(2, 8)])
            ids.append(cells[0])
    counts = np.array(counts, dtype=np.int64).reshape(-1, 6)
    cohort = Cohort(tuple(ids), x1, counts[:, 0], y, counts[:, 1:], precision)
    return cohort, LoadReport(n_rows, n_dropped, dict(cfg.columns))


def csv_bytes(header, columns):
    """A table's CSV bytes the csv.writer way, one cell at a time: ``repr`` of
    each float (NaN an empty cell), each int and text cell left to the csv
    module (which writes ``str`` of an int and quotes text as it must), "\\n"
    line ends, UTF-8."""
    def cell(value):
        if isinstance(value, float):
            return "" if math.isnan(value) else repr(value)
        return value

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    values = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    for row in zip(*values):
        writer.writerow([cell(value) for value in row])
    return buffer.getvalue().encode("utf-8")
