"""Forest module: split optimality against brute force, routing, bagging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    fitted = fit_forest([(X[i], y[i]) for i in range(n)], 2, n_trees=2, seed=5).trees
    _assert_same_structure(fitted, oracles.per_node_sort_forest(X, y, 2, 5, 2))


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


def _assert_matches_per_row_mean(forest, data):
    """Probe rows drawn from the split thresholds, their neighbours below,
    NaN, +-inf and free floats must predict bitwise as the per-row mean."""
    cuts = _split_thresholds(forest)
    edges = cuts + [float(np.nextafter(t, -np.inf)) for t in cuts]
    value = st.sampled_from(edges + [np.nan, np.inf, -np.inf]) | st.floats(-20, 20)
    d = forest.feature_count
    rows = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), max_size=40))
    for probe in (np.array(rows, dtype=float).reshape(len(rows), d), np.empty((0, d))):
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
        n_trees=data.draw(st.integers(min_value=1, max_value=8)),
        seed=seed,
    )
    _assert_matches_per_row_mean(forest, data)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hand_built_forest_splitting_on_second_feature(data):
    def leaf(v):
        return TreeNode(n=1, mean=v)

    def node(feature, threshold, left, right):
        return TreeNode(n=2, mean=0.0, split=(feature, threshold), left=left, right=right)

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
