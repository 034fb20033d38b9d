"""Forest module: split optimality against brute force, routing, bagging."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catebench import forest as forest_module
from catebench.dataset import Cohort
from catebench.errors import DimensionMismatch, DomainError, EmptyInput
from catebench.forest import (
    RegressionForest,
    TreeNode,
    export_tree,
    fit_forest,
    fit_tree,
)
from catebench.tlearner import fit_t_learner
from catebench.treatcount import fit_t_learner2

import helpers
import oracles

STUMP_ROWS = [((0.0,), 0.0), ((0.0,), 0.0), ((10.0,), 10.0), ((10.0,), 10.0)]
STUMP_X, STUMP_Y = [[0.0], [0.0], [10.0], [10.0]], [0.0, 0.0, 10.0, 10.0]


# --- fit_tree ---------------------------------------------------------------


def test_constant_outcome_is_single_leaf():
    tree = fit_tree([[float(i)] for i in range(6)], [7.0] * 6)
    assert tree.is_leaf
    assert tree.mean == 7.0
    assert tree.n == 6


def test_stump_splits_at_midpoint():
    tree = fit_tree(STUMP_X, STUMP_Y, 1)
    assert tree.split == (0, 5.0)
    assert tree.left.mean == 0.0 and tree.left.n == 2
    assert tree.right.mean == 10.0 and tree.right.n == 2
    assert tree.n == tree.left.n + tree.right.n


def test_random_instances_match_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 3))
        X = rng.uniform(0, 10, size=(n, d))
        y = rng.normal(50, 10, size=n)
        tree = fit_tree(X, y, 2)
        ref = oracles.brute_force_tree(X, y, max_depth=2)
        oracles.assert_same_tree(tree, ref)


def test_tie_breaks_to_lowest_feature_then_threshold():
    # duplicated feature columns: identical SSE, feature 0 must win
    X = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(X, y, 1)
    assert tree.split == (0, 5.0)
    # two thresholds with identical SSE within one feature: lower threshold wins
    X2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y2 = np.array([0.0, 1.0, 1.0, 0.0])
    tree2 = fit_tree(X2, y2, 1)
    ref2 = oracles.brute_force_tree(X2, y2, max_depth=1)
    oracles.assert_same_tree(tree2, ref2)


def test_an_exact_cross_feature_tie_is_rescored_and_goes_to_feature_0():
    # x2 = -x1 orders the rows the other way round, so every cut of one feature
    # is a cut of the other with its sides swapped: the best partitions tie in
    # exact arithmetic, but the running sums, taken in opposite orders, make
    # feature 1's gain the higher float
    x1 = np.arange(1.0, 9.0)
    X, y = np.column_stack([x1, -x1]), np.array([2.0, -2.6, 0.4, -0.6, 2.8, 3.1, 1.3, 3.1])
    best_cuts, gain = forest_module._best_cuts, forest_module._gain
    offered, rescored = [], []

    def recording_cuts(*args):
        found = best_cuts(*args)
        offered.append(found[-1].tolist())  # the gains
        return found

    def recording_gain(*args):
        if np.ndim(args[1]) == 0:  # a rescored candidate; _best_cuts passes arrays
            rescored.append(gain(*args))
        return gain(*args)

    with mock.patch.object(forest_module, "_best_cuts", recording_cuts), \
            mock.patch.object(forest_module, "_gain", recording_gain):
        tree = fit_tree(X, y, 1)
    assert offered[1][0] > offered[0][0]
    assert len(rescored) == 2 and rescored[0] == rescored[1]
    assert tree.split == (0, 4.5)


@st.composite
def centred_nodes(draw):
    """A node's drawn counts and centred y sums (as ``_grow`` centres them),
    some spread over magnitudes and offsets, some cancelling in pairs."""
    m = draw(st.integers(min_value=2, max_value=40))
    count = np.array(draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)), dtype=float)
    scale = draw(st.sampled_from([1e-300, 1e-8, 1.0, 1e6, 1e90]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e8, 1e12]))
    noise = np.array(draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m)))
    if draw(st.booleans()):  # pairs of equal and opposite terms
        noise[1::2] = -noise[: m // 2 * 2: 2]
    y_sum = count * (offset + noise) * scale
    mean = y_sum.sum() / count.sum()
    return count, y_sum - count * mean


def _exact_gain(count, centred, side):
    left, right = (sum(map(Fraction, centred[rows].tolist()), Fraction(0)) for rows in (side, ~side))
    return left * left / int(count[side].sum()) + right * right / int(count[~side].sum())


@settings(max_examples=200, deadline=None)
@given(centred_nodes(), st.data())
def test_the_rounding_bound_covers_running_and_rescored_gains(node, data):
    # a random order of the node's rows (a feature's order) for the running sums,
    # and key order for the rescoring; both gains of the partition _best_cuts
    # picks lie within _gain_error of its exact gain over the same float terms
    count, centred = node
    m = count.size
    spread = np.add.reduceat(np.abs(centred), [0])[0]
    bound = Fraction(forest_module._gain_error(m, spread))
    order = np.array(data.draw(st.permutations(range(m))))
    sx = np.sort(np.array(data.draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)), float))
    cuttable = np.ones(m, dtype=bool)
    cuttable[-1] = False
    segs, _, threshold, gain = forest_module._best_cuts(
        sx, count[order], np.cumsum(centred[order]), np.array([count.sum()]), cuttable,
        np.zeros(m, dtype=np.intp), np.array([0, m]))
    assume(segs.size)  # two or more values to cut between
    side = np.zeros(m, dtype=bool)
    side[order] = sx < threshold[0]  # in key order
    exact = _exact_gain(count, centred, side)
    rescored = forest_module._gain(count[side].sum(), centred[side].sum(),
                                   count[~side].sum(), centred[~side].sum())
    for computed in (gain[0], rescored):
        assert abs(Fraction(computed) - exact) <= bound


@st.composite
def cut_levels(draw):
    """A level of 1-6 segments of 1-8 elements, as ``_grow`` passes one to
    ``_best_cuts``: each segment's values sorted, from a pool with -0.0 beside
    0.0 and adjacent floats (their midpoint rounds onto the lower); whole
    counts; running sums of centred sums on a coarse grid, so gains often
    tie; and no cut after a segment's last element, some segments none at all."""
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    start = np.concatenate([[0], np.cumsum(lengths)])
    adjacent = [1.0, float(np.nextafter(1.0, 2.0)), 2.0**53, 2.0**53 + 2]
    value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0] + adjacent)
    sx = np.concatenate([np.sort(draw(st.lists(value, min_size=k, max_size=k))) for k in lengths])
    m = int(start[-1])
    count = np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), dtype=float)
    centred = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
    run = np.array(draw(st.lists(centred, min_size=m, max_size=m)))
    for a, b in zip(start[:-1], start[1:]):
        np.add.accumulate(run[a:b], out=run[a:b])
    cuttable = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    cuttable[start[1:] - 1] = False
    for s in draw(st.lists(st.integers(0, len(lengths) - 1), max_size=2)):
        cuttable[start[s]:start[s + 1]] = False
    return sx, count, run, cuttable, start


@settings(max_examples=300, deadline=None)
@given(cut_levels())
@example((np.arange(4.0), np.ones(4), np.array([1.0, 0.0, 1.0, 0.0]),
          np.array([True, True, True, False]), np.array([0, 4])))  # p = 0 and 2 tie
def test_best_cuts_equal_a_per_segment_scorer_bitwise(level):
    # every position is scored, so a segment's last one divides by n_right == 0:
    # pyproject's error::RuntimeWarning makes any warning from that fail here
    sx, count, run, cuttable, start = level
    n = np.add.reduceat(count, start[:-1])
    seg = np.repeat(np.arange(start.size - 1), np.diff(start))
    got = forest_module._best_cuts(sx, count, run, n, cuttable, seg, start)
    want = oracles.per_segment_best_cuts(sx, count, run, n, cuttable, start)
    for column, expected in zip(got, zip(*want) if want else [[]] * 4):
        assert column.tobytes() == np.array(expected, dtype=column.dtype).tobytes()


def test_zero_variance_feature_never_selected():
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.uniform(0, 10, 40), np.zeros(40)])
    y = rng.normal(0, 1, 40)
    tree = fit_tree(X, y, 3)

    def walk(node):
        if node.split is None:
            return
        assert node.split[0] == 0
        walk(node.left)
        walk(node.right)

    walk(tree)


@st.composite
def tied_training_sets(draw):
    """1-3 features over few distinct values (-0.0 beside 0.0, and adjacent
    floats, whose midpoint rounds onto the lower), often a constant column
    and duplicated rows, and outcomes with many ties."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=40))
    adjacent = [50.0, float(np.nextafter(50.0, np.inf)), 2.0**53, 2.0**53 + 2]
    value = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0, 7.0] + adjacent)
    X = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)))
    if draw(st.booleans()):
        X[:, draw(st.integers(min_value=0, max_value=d - 1))] = 3.0
    outcome = st.sampled_from([0.0, 1.0, 2.0, 0.1, -3.3]) | st.floats(-100, 100)
    y = np.array(draw(st.lists(outcome, min_size=n, max_size=n)))
    repeat = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return np.concatenate([X, X[repeat]]), np.concatenate([y, y[repeat]])


@settings(max_examples=150, deadline=None)
@given(
    tied_training_sets(),
    st.integers(min_value=1, max_value=6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**64)),
)
def test_split_search_equals_distinct_row_oracle_bitwise(data, depth, seed):
    X, y = data
    if seed is None:
        fitted = [fit_tree(X, y, depth)]
        refs = [oracles.distinct_row_tree(X, y, range(y.size), depth)]
    else:
        rows = [(X[i], y[i]) for i in range(y.size)]
        fitted = fit_forest(rows, depth, n_trees=3, seed=seed).trees
        refs = oracles.distinct_row_forest(X, y, 3, seed, depth)
    for tree, ref in zip(fitted, refs, strict=True):
        oracles.assert_same_tree(tree, ref, mean_tol=0.0)


def _assert_same_nodes(got, want, feature_of):
    """Node for node: ``want``'s split feature j is ``feature_of[j]`` in
    ``got``, and thresholds, counts and means are bitwise equal."""
    assert (got.n, got.mean.hex()) == (want.n, want.mean.hex())
    if want.split is None:
        assert got.split is None
        return
    assert got.split[0] == feature_of[want.split[0]]
    assert got.split[1].hex() == want.split[1].hex()
    _assert_same_nodes(got.left, want.left, feature_of)
    _assert_same_nodes(got.right, want.right, feature_of)


@settings(max_examples=80, deadline=None)
@given(tied_training_sets(), st.data())
def test_all_equal_columns_change_no_tree_and_no_prediction(training, data):
    # a column of one value is never split on: columns of one value each,
    # inserted anywhere (column 0 too) or as every column, leave each tree
    # the same node for node, with its split features shifted past them
    X, y = training
    if data.draw(st.booleans()):
        X = X[:, :0]
    value = st.sampled_from([-0.0, 0.0, 3.0, 1e100, -1e100]) | st.floats(-1e100, 1e100)
    columns = [(j, X[:, j]) for j in range(X.shape[1])]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        at = data.draw(st.integers(min_value=0, max_value=len(columns)))
        columns.insert(at, (None, np.full(y.size, data.draw(value))))
    wide = np.column_stack([column for _, column in columns])
    feature_of = {j: k for k, (j, _) in enumerate(columns) if j is not None}
    depth = data.draw(st.integers(min_value=1, max_value=4))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    narrow = fit_forest(list(zip(X, y)), depth, n_trees=3, seed=seed)
    broad = fit_forest(list(zip(wide, y)), depth, n_trees=3, seed=seed)
    assert broad.feature_count == wide.shape[1]
    pairs = [*zip(broad.trees, narrow.trees), (fit_tree(wide, y, depth), fit_tree(X, y, depth))]
    for tree, ref in pairs:
        _assert_same_nodes(tree, ref, feature_of)
    # the forest never reads an inserted column, so any value there predicts alike
    rng = np.random.default_rng(seed)
    probe = np.concatenate([X, rng.uniform(-5, 60, (8, X.shape[1]))])
    probe_wide = np.column_stack([
        probe[:, j] if j is not None else rng.uniform(-1e3, 1e3, len(probe)) for j, _ in columns
    ])
    assert broad.predict_many(probe_wide).tobytes() == narrow.predict_many(probe).tobytes()


def test_mu0_ignores_the_session_column_tree_for_tree():
    # a control's session count is 0, one value, so the two-variable mu0 is
    # the one-variable mu0 node for node
    for seed in range(3):
        cohort, _ = helpers.random_cohort(seed)
        for depth in (2, 4):
            one = fit_t_learner(cohort, depth, seed, n_trees=10).mu0
            two = fit_t_learner2(cohort, depth, seed, n_trees=10).mu0
            assert (one.feature_count, two.feature_count) == (1, 2)
            for tree, ref in zip(two.trees, one.trees, strict=True):
                _assert_same_nodes(tree, ref, [0])


@pytest.mark.parametrize("depth, features", [
    pytest.param(3, 2, id="3"),
    pytest.param(6, 2, id="6"),
    pytest.param(3, 1, id="3-one-feature"),
    pytest.param(6, 1, id="6-one-feature"),
    pytest.param(6, 3, id="6-three-features"),
])
def test_forests_across_chunk_boundaries_grow_each_tree_alone(depth, features):
    # as many distinct rows as put three trees in a chunk, and trees for three
    # chunks; outcomes are constant below x0 = 40, so a child of the root
    # stops pure while its sibling and the other trees of its chunk go on (its
    # rows leave the chunk); at depth 6 a level also holds one-row nodes beside
    # nodes thousands of rows long.  With three features, a node that splits on
    # x1 moves x2's rows, in neither key order nor its own feature's
    elements = forest_module._INTERVAL_ELEMENTS // features
    size = elements // 3
    per_chunk = elements // size
    n_trees = 2 * per_chunk + 2
    i = np.arange(size)
    X = (i / 7)[:, None] if features == 1 else np.column_stack([i // 7, i % 7, i % 3][:features])
    X = X.astype(float)
    rng = np.random.default_rng(3)
    y = np.round(rng.normal(50, 10, size), 1)
    X, y = np.concatenate([X, X[::3]]), np.concatenate([y, y[::3] + 1.0])
    y[X[:, 0] < 40] = 5.0
    assert np.unique(X, axis=0).shape[0] == size
    rows = [(X[k], y[k]) for k in range(y.size)]
    grow, chunks = forest_module._grow, []

    def recording_grow(*args):
        chunks.append(args[-2])  # the chunk's trees
        return grow(*args)

    with mock.patch.object(forest_module, "_grow", recording_grow):
        full = fit_forest(rows, depth, n_trees, seed=4).trees
    assert len(chunks) >= 3 and chunks[-1] < chunks[0] == per_chunk, chunks
    refs = oracles.distinct_row_forest(X, y, n_trees, 4, depth)
    pure_stops = 0
    for t, ref in enumerate(refs):
        oracles.assert_same_tree(full[t], ref, mean_tol=0.0)
        oracles.assert_same_tree(fit_forest(rows, depth, t + 1, seed=4).trees[t], ref,
                                 mean_tol=0.0)
        # the cut between the tree's drawn x0 values either side of 40: 39.5 with two features
        x0 = X[np.random.default_rng([4, t]).integers(0, y.size, y.size), 0]
        pure_cut = (x0[x0 < 40].max() + x0[x0 >= 40].min()) / 2.0
        pure_stops += ref["split"] == (0, pure_cut) and ref["left"]["split"] is None
    assert pure_stops == n_trees


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_tree(X, y),
    lambda X, y: fit_forest(list(zip(X, y)), n_trees=2),
], ids=["fit_tree", "fit_forest"])
@pytest.mark.parametrize("X, y, error, named", [
    ([["a"], ["b"]], [1.0, 2.0], DomainError, "features"),
    ([[{}], [2.0]], [1.0, 2.0], DomainError, "features"),
    ([[1.0], [2.0]], ["x", "y"], DomainError, "outcomes"),
    ([[1.0], [1.0, 2.0]], [1.0, 2.0], DimensionMismatch, "features"),
], ids=["text_feature", "dict_feature", "text_outcome", "ragged_features"])
def test_inputs_that_are_not_numbers_name_features_or_outcomes(fit, X, y, error, named):
    with pytest.raises(error, match=named):
        fit(X, y)


def _assert_same_structure(fitted, refs):
    # summing per distinct row reassociates the per-row sums: every split
    # and count must match, and means to 1e-12 relative
    for tree, ref in zip(fitted, refs, strict=True):
        oracles.assert_same_tree(tree, ref, mean_tol=0.0, rel_tol=1e-12)


def test_forest_splits_equal_per_node_sort_over_a_seed_sweep():
    # continuous outcomes: exact SSE ties between partitions do not occur
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 300))
        X = np.round(rng.uniform(0, 6, size=(n, int(rng.integers(1, 4)))), int(rng.integers(0, 3)))
        if seed % 3 == 0:
            X[:, -1] = 0.0  # a constant column, as mu0's session count
        y = rng.normal(50, 10, size=n)
        depth = int(rng.integers(1, 5))
        rows = [(X[i], y[i]) for i in range(n)]
        _assert_same_structure(
            fit_forest(rows, depth, n_trees=4, seed=seed).trees,
            oracles.per_node_sort_forest(X, y, 4, seed, depth),
        )
        _assert_same_structure([fit_tree(X, y, depth)], [oracles.per_node_sort_tree(X, y, depth)])


def test_forest_on_70000_distinct_values_splits_as_per_node_sort():
    rng = np.random.default_rng(11)
    n = 70_000
    X = np.column_stack([rng.permutation(n) / 7.0, rng.integers(0, 4, n)])
    y = np.round(rng.normal(0, 1, n), 2)
    # two columns, then the first alone: one tree a chunk, as an arm of
    # continuous_deep's cohort at ten times its size
    for columns in (X, X[:, :1]):
        fitted = fit_forest([(columns[i], y[i]) for i in range(n)], 2, n_trees=2, seed=5).trees
        _assert_same_structure(fitted, oracles.per_node_sort_forest(columns, y, 2, 5, 2))


@pytest.mark.parametrize("offset", [0.0, 1e6, -1e6, 1e9, -1e9, 1e12, -1e12])
def test_an_offset_in_y_moves_no_split(offset):
    # a step of 1 at x0 = 3.3 under noise sd 0.5, plus a rounded second
    # feature: far from 0, a one-pass score Σy² - (Σy)²/n cancels to noise,
    # so splits must come from sums that do not grow with the offset
    n = 60
    for seed in range(25):
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.uniform(0, 6, n), np.round(rng.uniform(0, 6, n))])
        y = (X[:, 0] >= 3.3) + rng.normal(0, 0.5, n) + offset
        rows = [(X[i], y[i]) for i in range(n)]
        oracles.assert_same_tree(fit_tree(X, y, 2), oracles.brute_force_tree(X, y, 2),
                                 rel_tol=1e-12)
        for i, tree in enumerate(fit_forest(rows, 2, n_trees=3, seed=seed).trees):
            draw = np.random.default_rng([seed, i]).integers(0, n, size=n)
            oracles.assert_same_tree(tree, oracles.brute_force_tree(X[draw], y[draw], 2),
                                     rel_tol=1e-12)


def test_rows_without_features_fit_one_leaf():
    rows = [((), 1.0), ((), 2.0), ((), 6.0)]
    tree = fit_tree(np.empty((3, 0)), [1.0, 2.0, 6.0], 3)
    assert tree.is_leaf and tree.n == 3 and tree.mean == 3.0
    forest = fit_forest(rows, n_trees=4, seed=1)
    assert forest.predict(()) == sum(t.mean for t in forest.trees) / 4


@pytest.mark.parametrize("bad", [1e101, -1e101, np.inf, np.nan])
def test_values_outside_the_decimal_range_raise_domain_error(bad):
    # sums, squares and midpoints of values in [-1e100, 1e100] stay finite
    with pytest.raises(DomainError):
        fit_tree([[bad], [1.0]], [0.0, 1.0])
    with pytest.raises(DomainError):
        fit_forest([((0.0,), bad), ((1.0,), 1.0)], n_trees=1)
    assert fit_tree([[-1e100], [1e100]], [-1e100, 1e100]).split == (0, 0.0)


def test_empty_and_ragged_inputs():
    with pytest.raises(EmptyInput):
        fit_forest([])
    with pytest.raises(DimensionMismatch):
        fit_forest([((1.0,), 2.0), ((1.0, 2.0), 3.0)])
    with pytest.raises(EmptyInput):
        fit_tree(np.empty((0, 2)), np.empty(0))
    with pytest.raises(DimensionMismatch):
        fit_tree([1.0, 2.0], [2.0, 3.0])  # a 1-D X
    with pytest.raises(DimensionMismatch):
        fit_tree([[1.0], [2.0]], [2.0, 3.0, 4.0])


def test_a_forest_of_no_trees_is_refused():
    with pytest.raises(ValueError, match="n_trees must be >= 1"):
        fit_forest(STUMP_ROWS, 2, n_trees=0)


def test_conservation_and_refit_invariants():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 10, size=(60, 2))
    y = rng.normal(50, 8, size=60)
    tree = fit_tree(X, y, 3)

    def check(node):
        if node.split is None:
            return
        assert node.n == node.left.n + node.right.n
        weighted = (node.left.n * node.left.mean + node.right.n * node.right.mean) / node.n
        assert abs(weighted - node.mean) <= 1e-9
        check(node.left)
        check(node.right)

    check(tree)
    preds = RegressionForest((tree,), 2).predict_many(X)
    root_sse = float(np.sum((y - y.mean()) ** 2))
    assert float(np.sum((y - preds) ** 2)) <= root_sse + 1e-9


# --- predict ----------------------------------------------------------------


def test_single_leaf_predicts_mean_everywhere():
    forest = fit_forest([((1.0,), 4.0), ((2.0,), 4.0)], n_trees=3, seed=0)
    for x in [-100.0, 0.0, 42.0]:
        assert forest.predict((x,)) == 4.0


def test_boundary_value_routes_right():
    tree = RegressionForest((fit_tree(STUMP_X, STUMP_Y, 1),), 1)
    assert tree.predict([5.0]) == 10.0
    assert tree.predict([4.999]) == 0.0
    assert tree.predict([5.1]) == 10.0


def test_dimension_mismatch_on_predict():
    forest = fit_forest(STUMP_ROWS, n_trees=2, seed=0)
    with pytest.raises(DimensionMismatch):
        forest.predict((1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        forest.predict_many(np.zeros((3, 2)))


def test_predict_many_agrees_with_scalar_predict():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 10, size=(50, 2))
    y = rng.normal(0, 1, size=50)
    forest = fit_forest([(X[i], y[i]) for i in range(50)], 3, n_trees=10, seed=5)
    probe = rng.uniform(-1, 11, size=(20, 2))
    batch = forest.predict_many(probe)
    for i in range(20):
        assert forest.predict(probe[i]) == batch[i]


def _split_thresholds(forest, feature=None):
    found = set()
    stack = list(forest.trees)
    while stack:
        node = stack.pop()
        if node.split is not None:
            if feature in (None, node.split[0]):
                found.add(node.split[1])
            stack += [node.left, node.right]
    return sorted(found)


def _assert_thresholds_match_node_walk(forest):
    got = forest.thresholds()
    assert len(got) == forest.feature_count
    for j, thr in enumerate(got):
        assert thr.tolist() == _split_thresholds(forest, j)


def _cell_count(forest, probe):
    # distinct rows of the probe once coded by the thresholds each feature splits on
    codes = [np.searchsorted(thr, probe[:, j], side="right")
             for j, thr in enumerate(forest.thresholds())]
    return len(np.unique(np.column_stack(codes), axis=0))


def _assert_matches_per_row_mean(forest, data):
    """Probe rows drawn from the split thresholds, their neighbours below,
    NaN, +-inf and free floats must predict bitwise as the per-row mean,
    routed one tree a pass, half the forest a pass, or all of it at once."""
    cuts = _split_thresholds(forest)
    edges = cuts + [float(np.nextafter(t, -np.inf)) for t in cuts]
    value = st.sampled_from(edges + [np.nan, np.inf, -np.inf]) | st.floats(-20, 20)
    d = forest.feature_count
    rows = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), max_size=40))
    trees = len(forest.trees)
    routing = data.draw(st.sampled_from(["one tree", "mid-way", "whole forest"]))
    for probe in (np.array(rows, dtype=float).reshape(len(rows), d), np.empty((0, d))):
        cells = _cell_count(forest, probe)
        chunk = {"one tree": 1, "mid-way": cells * -(-trees // 2),
                 "whole forest": 1000 * trees * max(cells, 1)}[routing]
        with mock.patch.object(forest_module, "_CHUNK_ELEMENTS", chunk):
            got = forest.predict_many(probe)
        want = oracles.per_row_forest_mean(forest.trees, probe)
        assert got.shape == want.shape == (len(probe),)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_predict_many_bitwise_equals_per_row_mean(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    d = data.draw(st.integers(min_value=1, max_value=2))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    X = rng.uniform(0, 10, size=(n, d))
    if data.draw(st.booleans()):
        X = np.round(X)  # repeated values: shared thresholds, many rows per cell
    y = rng.normal(0, 1, size=n)
    forest = fit_forest(
        [(X[i], y[i]) for i in range(n)],
        data.draw(st.integers(min_value=1, max_value=4)),
        n_trees=data.draw(st.integers(min_value=1, max_value=25)),
        seed=seed,
    )
    _assert_matches_per_row_mean(forest, data)


def leaf(v):
    return TreeNode(n=1, mean=v)


def node(feature, threshold, left, right):
    return TreeNode(n=2, mean=0.0, split=(feature, threshold), left=left, right=right)


def _with_leaf_means(tree, value):
    if tree.is_leaf:
        return leaf(value)
    return node(*tree.split, _with_leaf_means(tree.left, value), _with_leaf_means(tree.right, value))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hand_built_forest_splitting_on_second_feature(data):
    trees = (
        node(1, 2.5, leaf(0.1), node(0, -1.0, leaf(0.2), leaf(0.7))),
        node(1, 7.5, node(1, 2.5, leaf(-0.0), leaf(1e16)), leaf(0.3)),
        leaf(-3.0),
        node(0, 2.5, leaf(1.0), node(1, -1.0, leaf(2.0), leaf(1.0 / 3.0))),
        # a depth-4 chain that alternates features, beside the lone leaf and the stumps
        node(0, 5.0, leaf(0.5),
             node(1, 0.5,
                  node(0, 7.5, leaf(-2.0), node(1, 4.0, leaf(1e-3), leaf(9.0))),
                  leaf(-1e16))),
    )
    forest = RegressionForest(trees, 2)
    _assert_thresholds_match_node_walk(forest)
    _assert_matches_per_row_mean(forest, data)
    # every leaf -0.0: the per-row mean is -0.0, sign bit set, so the running
    # sum over trees must not start at +0.0 (+0.0 + -0.0 is +0.0)
    signed = RegressionForest(tuple(_with_leaf_means(t, -0.0) for t in trees), 2)
    _assert_matches_per_row_mean(signed, data)
    probe = np.array([[-5.0, -5.0], [2.5, 7.5], [6.0, 0.5], [np.nan, np.inf]])
    assert np.signbit(signed.predict_many(probe)).all()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.booleans())
def test_a_leaf_beside_a_depth_3_tree_predicts_as_the_per_row_mean(data, leaf_first):
    # every tree routes to the forest's depth: the leaf stays on itself
    deep = node(0, 1.0, leaf(-1.0), node(1, 0.5, node(0, 3.0, leaf(0.25), leaf(4.0)), leaf(1e16)))
    trees = (leaf(2.5), deep) if leaf_first else (deep, leaf(2.5))
    _assert_matches_per_row_mean(RegressionForest(trees, 2), data)


def _traced_peak(forest, probe, chunk):
    with mock.patch.object(forest_module, "_CHUNK_ELEMENTS", chunk):
        tracemalloc.start()
        try:
            got = forest.predict_many(probe)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_routing_memory_is_bounded_by_the_chunk_rule():
    # 100 trees cut x at t and t + 0.5, and the probe holds one row in each
    # of 200 cells: 20,000 (tree, cell) elements, 50 times a chunk of 400, so
    # a pass routes 2 trees.  At about 34 bytes an element that is some 14 KB
    # against 680 KB for the whole forest in one pass.  Bound: the chunked
    # peak stays below a tenth of the unchunked one.
    trees = tuple(node(0, float(t), leaf(float(t)), node(0, t + 0.5, leaf(-float(t)), leaf(1.0)))
                  for t in range(100))
    forest = RegressionForest(trees, 1)
    probe = np.arange(-0.25, 99.5, 0.5)[:, np.newaxis]
    assert _cell_count(forest, probe) * len(trees) >= 50 * 400
    forest.predict_many(probe[:1])  # compile the node table outside the trace
    chunked, small = _traced_peak(forest, probe, 400)
    whole, large = _traced_peak(forest, probe, 10**9)
    assert chunked.tobytes() == whole.tobytes()
    assert chunked.tobytes() == oracles.per_row_forest_mean(trees, probe).tobytes()
    assert small * 10 < large, (small, large)


def _traced_growth(X, depth, trees):
    """The traced peak of ``_grow`` over a chunk of ``trees`` trees, in bytes,
    and the chunk's (tree, distinct row) elements."""
    y = np.random.default_rng(5).normal(50, 10, len(X))
    kept, values, key, order, y = forest_module._training_set(X, y, depth, trees)
    draws = (forest_module._tree_rng(5, i).integers(0, y.size, size=y.size) for i in range(trees))
    tracemalloc.start()
    try:
        forest_module._grow(kept, values, key, order, y, draws, trees, depth)
        return tracemalloc.get_traced_memory()[1], trees * order.shape[1]
    finally:
        tracemalloc.stop()


def _first_chunk(X, depth):
    """The trees ``fit_forest`` grows in its first chunk on ``X``."""
    chunks = []

    def recording_grow(*args):
        chunks.append(args[-2])  # the chunk's trees
        return [TreeNode(1, 0.0)] * args[-2]

    with mock.patch.object(forest_module, "_grow", recording_grow):
        fit_forest(list(zip(X, np.zeros(len(X)))), depth, 100)
    return chunks[0]


@pytest.mark.parametrize("features", [1, 2, 3])
def test_growth_memory_is_bounded_by_the_chunk_rule(features):
    # rows all distinct: 2,100 x1 values with one feature, 1,050 (x1, x2) rows
    # with two and 700 (x1, x2, x3) rows with three; fit_forest's chunk rule
    # gives each a chunk of 9 trees (18,900, 9,450 and 6,300 elements, at about
    # 69, 103 and 144 bytes each).  Bound: 1.46 MB, the peak of a two-feature
    # chunk of 10,000 elements at 146 bytes each when the one-feature rule was
    # set; and a 60-tree forest grown as one chunk peaks at over four times a chunk.
    i = np.arange(2100 // features)
    X = np.column_stack([i / 7, i % 5, i % 3][:features])
    elements = forest_module._INTERVAL_ELEMENTS // features
    peak, grown = _traced_growth(X, 4, _first_chunk(X, 4))
    whole, _ = _traced_growth(X, 4, 60)
    assert grown > 0.9 * elements  # the chunk is the rule's, not a smaller one
    assert peak <= 1_460_000, peak
    assert peak * 4 < whole, (peak, whole)


def test_mutating_returned_thresholds_changes_no_prediction():
    rng = np.random.default_rng(9)
    X = np.round(rng.uniform(0, 10, size=(60, 2)), 1)
    y = rng.normal(0, 1, size=60)
    forest = fit_forest(list(zip(X, y)), 3, n_trees=5, seed=2)
    probe = np.concatenate([X, rng.uniform(-1, 11, size=(20, 2))])
    want = oracles.per_row_forest_mean(forest.trees, probe).tobytes()
    kept = [thr.tolist() for thr in forest.thresholds()]
    for _ in range(2):  # before the first prediction, and after one
        for thr in forest.thresholds():
            thr[:] = 0.0
        assert forest.predict_many(probe).tobytes() == want
    assert [thr.tolist() for thr in forest.thresholds()] == kept
    assert sum(map(len, kept)) > 0


def test_thresholds_equal_a_node_walk():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        X = np.round(rng.uniform(0, 10, size=(80, d)), 1)
        y = rng.normal(0, 1, size=80)
        rows = [(X[i], y[i]) for i in range(80)]
        for depth in (1, 3):
            forest = fit_forest(rows, depth, n_trees=6, seed=d)
            _assert_thresholds_match_node_walk(forest)
            assert sum(thr.size for thr in forest.thresholds()) > 0


# --- fit_forest -------------------------------------------------------------


def test_constant_rows_predict_constant_for_any_seed():
    rows = [((float(i % 5),), 3.25) for i in range(20)]
    for seed in [0, 1, 99]:
        forest = fit_forest(rows, n_trees=7, seed=seed)
        assert forest.predict((2.0,)) == 3.25


def test_same_seed_same_forest():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 10, size=(40, 1))
    y = rng.normal(0, 1, size=40)
    rows = [(X[i], y[i]) for i in range(40)]
    probe = rng.uniform(0, 10, size=(15, 1))
    a = fit_forest(rows, n_trees=11, seed=42).predict_many(probe)
    b = fit_forest(rows, n_trees=11, seed=42).predict_many(probe)
    assert np.array_equal(a, b)
    c = fit_forest(rows, n_trees=11, seed=43).predict_many(probe)
    assert not np.array_equal(a, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=12))
def test_forest_prediction_within_outcome_hull(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 1))
    y = rng.normal(0, 1, size=n)
    forest = fit_forest([(X[i], y[i]) for i in range(n)], n_trees=5, seed=seed)
    pred = forest.predict((rng.uniform(-5, 15),))
    assert y.min() - 1e-12 <= pred <= y.max() + 1e-12


# --- export_tree ------------------------------------------------------------


def test_report_threshold_reads_back_as_the_split():
    # 1e8 + 0.55 reads "1e+08" in six digits; the report writes it whole
    tree = fit_tree([[1e8 + 0.1 * i] for i in range(12)], [float(i > 5) for i in range(12)], 1)
    report = export_tree(tree, ["x"])
    assert report.text.splitlines()[0] == "x < 100000000.55"
    assert float(report.text.splitlines()[0][4:]) == tree.split[1]
    assert report.data["split"]["threshold"] == tree.split[1]


def test_single_leaf_report_has_no_criterion():
    leaf = TreeNode(n=10, mean=50.0)
    report = export_tree(leaf, ["x"])
    assert report.text == "n = 10\nmean = 50\n"
    assert report.data == {"split": None, "n": 10, "mean": 50.0}


def test_stump_report_layout():
    tree = fit_tree(STUMP_X, STUMP_Y, 1)
    report = export_tree(tree, ["x"])
    assert report.text.splitlines() == [
        "x < 5",
        "n = 4",
        "mean = 5",
        "  n = 2",
        "  mean = 0",
        "  n = 2",
        "  mean = 10",
    ]
    assert report.data["split"] == {"feature": 0, "name": "x", "threshold": 5.0}


def test_report_counts_conserved():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 10, size=(50, 2))
    y = rng.normal(0, 1, size=50)
    report = export_tree(fit_tree(X, y, 3), ["a", "b"])

    def walk(node):
        if node["split"] is None:
            return
        assert node["n"] == node["left"]["n"] + node["right"]["n"]
        walk(node["left"])
        walk(node["right"])

    walk(report.data)


def test_short_name_list_rejected():
    tree = fit_tree(STUMP_X, STUMP_Y, 1)
    with pytest.raises(DimensionMismatch):
        export_tree(tree, [])


def test_params_validation():
    cohort = Cohort(("a", "b"), [50.0, 40.0], [1, 0], [55.0, 45.0], np.zeros((2, 5), int))
    for fit in (lambda: fit_tree(STUMP_X, STUMP_Y, 0), lambda: fit_forest(STUMP_ROWS, 0),
                lambda: fit_t_learner(cohort, 0), lambda: fit_t_learner2(cohort, 0)):
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            fit()
