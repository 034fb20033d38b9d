"""OLS: exact recovery, orthogonality, rank handling, dose diagnostic."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catebench.errors import RankDeficient, Underdetermined
from catebench.linreg import ols_fit, tau_dose_regression
from catebench.synth import biased_dose_scenario, generate
from catebench.tlearner import fit_t_learner

import helpers
import oracles


def test_exact_linear_targets_recovered():
    rng = np.random.default_rng(0)
    X = rng.uniform(-5, 5, size=(40, 2))
    y = 2.0 * X[:, 0] + 3.0 * X[:, 1] + 1.0
    fit = ols_fit(X, y)
    assert fit.coefficients == pytest.approx((2.0, 3.0), abs=1e-8)
    assert fit.intercept == pytest.approx(1.0, abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-8)
    assert fit.n == 40


def test_constant_targets_are_fine():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(20, 2))
    fit = ols_fit(X, np.full(20, 7.5))
    assert fit.coefficients == pytest.approx((0.0, 0.0), abs=1e-8)
    assert fit.intercept == pytest.approx(7.5, abs=1e-8)
    assert fit.r_squared == 1.0  # SST = 0 convention


def test_matches_pseudo_inverse_oracle():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 2, size=(50, 2))
    y = rng.normal(0, 1, size=50)
    fit = ols_fit(X, y)
    A = np.column_stack([np.ones(50), X])
    beta = np.linalg.pinv(A) @ y  # independent solve path
    assert fit.intercept == pytest.approx(beta[0], abs=1e-8)
    assert fit.coefficients == pytest.approx(tuple(beta[1:]), abs=1e-8)


def test_an_offset_in_a_column_moves_no_slope():
    # x1 near 1e8 with a spread of 10: a design with a constant column is
    # conditioned far beyond the 1e12 refusal, the centred columns are not
    rng = np.random.default_rng(5)
    n = 80
    x1 = 1e8 + rng.uniform(0, 10, n)
    x2 = rng.integers(0, 6, n).astype(float)
    y = 0.3 * (x1 - 1e8) - 1.25 * x2 + rng.normal(0, 0.5, n)
    X = np.column_stack([x1, x2])
    fit = ols_fit(X, y)
    slopes, intercept = oracles.exact_ols(X, y)
    for got, want in zip(fit.coefficients, slopes, strict=True):
        assert abs(got - float(want)) <= 1e-12 * abs(float(want))
    assert abs(fit.intercept - float(intercept)) <= 1e-12 * abs(float(intercept))


def test_a_column_scale_alone_is_not_refused():
    # one column spans 1e13, the other six counts: the centred design is
    # conditioned near 1.7e12, but scaled to unit length near 1
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0, 1e13, 100), rng.integers(0, 6, 100)])
    y = rng.normal(0, 1, 100)
    fit = ols_fit(X, y)
    slopes, intercept = oracles.exact_ols(X, y)
    for got, want in zip(fit.coefficients, slopes, strict=True):
        assert abs(got - float(want)) <= 1e-12 * abs(float(want))
    assert abs(fit.intercept - float(intercept)) <= 1e-12 * abs(float(intercept))
    for x in (X[:, 0], X[:, 1]):
        with pytest.raises(RankDeficient):
            ols_fit(np.column_stack([x, 2.0 * x]), y)
        with pytest.raises(RankDeficient):
            ols_fit(np.column_stack([x, np.full(100, 0.1)]), y)


def test_rank_deficient_inputs():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 30)
    with pytest.raises(RankDeficient):
        ols_fit(np.column_stack([x, x]), rng.normal(0, 1, 30))
    with pytest.raises(RankDeficient):  # constant column collides with intercept
        ols_fit(np.column_stack([x, np.full(30, 4.0)]), rng.normal(0, 1, 30))


def test_a_1d_design_is_one_column():
    rng = np.random.default_rng(5)
    x, y = rng.normal(0, 1, 20), rng.normal(0, 1, 20)
    assert ols_fit(x, y) == ols_fit(x[:, np.newaxis], y)
    with pytest.raises(ValueError, match="one value per design row"):
        ols_fit(x, y[:-1])


def test_underdetermined():
    with pytest.raises(Underdetermined):
        ols_fit(np.ones((3, 2)) * np.arange(3)[:, None], np.arange(3.0))


def test_residual_orthogonality():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(10, 80))
        p = int(rng.integers(1, 4))
        X = rng.normal(0, 3, size=(n, p))
        y = X @ rng.normal(0, 2, p) + rng.normal(0, 1.5, n)
        fit = ols_fit(X, y)
        A = np.column_stack([np.ones(n), X])
        resid = y - A @ np.concatenate([[fit.intercept], fit.coefficients])
        for col in A.T:
            scale = np.linalg.norm(col) * np.linalg.norm(y) + 1e-12
            assert abs(col @ resid) / scale <= 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_row_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = 25
    X = rng.normal(0, 1, size=(n, 2))
    y = rng.normal(0, 1, size=n)
    fit = ols_fit(X, y)
    perm = rng.permutation(n)
    fit_perm = ols_fit(X[perm], y[perm])
    assert fit_perm.coefficients == pytest.approx(fit.coefficients, abs=1e-9)
    assert fit_perm.intercept == pytest.approx(fit.intercept, abs=1e-9)


# --- dose diagnostic ---------------------------------------------------------


def test_no_sessions_anywhere_is_rank_deficient():
    cohort = helpers.cohort_from_arrays(
        [40, 45, 50, 55, 60, 65], [0, 0, 0, 0, 0, 0], [44, 46, 50, 54, 58, 60]
    )
    # a learner cannot even fit here (no treated); build one from a cohort
    # that has a treated record, then apply the diagnostic to the all-zero one
    donor = helpers.cohort_from_arrays([40, 50, 60], [1, 0, 0], [45, 50, 55])
    model = fit_t_learner(donor, n_trees=3)
    with pytest.raises(RankDeficient):
        tau_dose_regression(cohort, model)


def test_positive_dose_scenario_positive_coefficient():
    cohort, _ = generate(biased_dose_scenario(4000), seed=3)
    model = fit_t_learner(cohort, max_depth=4, seed=3, n_trees=50)
    fit, scatter = tau_dose_regression(cohort, model)
    assert fit.coefficients[1] > 0


def test_scatter_export_contract(tmp_path):
    cohort, _ = helpers.random_cohort(33)
    model = fit_t_learner(cohort, seed=2, n_trees=6)
    fit, scatter = tau_dose_regression(cohort, model)
    assert len(scatter.tau) == cohort.n
    path = tmp_path / "tau_scatter.csv"
    scatter.to_csv(path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x2", "tau", "x1_bin"]
    assert len(rows) == cohort.n + 1
    # x2 column holds the observed counts in record order
    assert [int(r[0]) for r in rows[1:]] == cohort.x2.tolist()


def test_ols_json_export(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, size=(30, 2))
    fit = ols_fit(X, X @ [1.0, -2.0] + 0.5)
    path = tmp_path / "ols.json"
    fit.to_json(path)
    import json

    payload = json.loads(path.read_text())
    assert set(payload) == {"coefficients", "intercept", "r_squared", "n"}
    assert payload["n"] == 30
