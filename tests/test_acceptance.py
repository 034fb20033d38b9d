"""End-to-end acceptance checks, one test per numbered criterion.

Every tolerance is pinned here.  Each test prints a single line
``[criterion NN] <name>: PASS|FAIL`` (run with ``pytest -s`` or ``-rA`` to
see them) and fails the suite if its check does not hold.
"""

import math
import time

import numpy as np

from catebench.cli import main
from catebench.dataset import summarize, to_deviation
from catebench.forest import fit_tree
from catebench.linreg import ols_fit, tau_dose_regression
from catebench.synth import (
    biased_dose_scenario,
    dose_recovery_scenario,
    generate,
    standard_biased_scenario,
)
from catebench.tlearner import ate, att, atu, fit_t_learner
from catebench.treatcount import att2, check_base_independence, fit_t_learner2, phi, phi_summand, phi_surface

import helpers
import oracles


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_01_bias_inversion():
    started = time.perf_counter()
    cohort, _ = generate(standard_biased_scenario(10_000), seed=20260810)
    summary = summarize(cohort)
    naive_gap = summary.mean_y_control - summary.mean_y_treated
    model = fit_t_learner(cohort, max_depth=4, seed=7, n_trees=100)
    estimated = ate(model, cohort)
    elapsed = time.perf_counter() - started
    ok = naive_gap >= 1.0 and 2.0 <= estimated <= 4.0 and elapsed < 10.0
    _verdict(
        1,
        "bias inversion",
        ok,
        f"naive gap {naive_gap:.2f} >= 1.0, ate {estimated:.3f} in [2, 4], {elapsed:.1f}s < 10s",
    )


def test_criterion_02_att2_equals_att():
    worst = 0.0
    for seed in range(25):
        cohort, _ = helpers.random_cohort(seed, n=130 + 7 * seed)
        one = fit_t_learner(cohort, seed=seed, n_trees=12)
        two = fit_t_learner2(cohort, seed=seed, n_trees=12)
        worst = max(worst, abs(att2(two, cohort) - att(one, cohort)))
    _verdict(2, "att2 equals att", worst <= 1e-9, f"max |att2 - att| = {worst:.3g} over 25 seeds")


def test_criterion_03_base_independence():
    total_violations = 0
    for seed in range(25):
        cohort, _ = helpers.random_cohort(seed + 200, n=140)
        model = fit_t_learner2(cohort, seed=seed, n_trees=10)
        report = check_base_independence(model, cohort, probe_x2=range(0, 15))
        total_violations += len(report.violations)
    _verdict(
        3,
        "base-response independence",
        total_violations == 0,
        f"{total_violations} violations over 25 cohorts, probes 0..14",
    )


def test_criterion_04_summand_identity():
    worst = 0.0
    for seed in range(10):
        cohort, _ = helpers.random_cohort(seed + 400, n=180)
        model = fit_t_learner2(cohort, seed=seed, n_trees=10)
        for bin_value in cohort.bin_members:
            for dose in range(1, model.dose_max + 1):
                gap = abs(
                    phi(model, cohort, bin_value, dose) - phi_summand(model, bin_value, dose)
                )
                worst = max(worst, gap)
    _verdict(4, "summand identity", worst <= 1e-12, f"max gap {worst:.3g} over 10 cohorts")


def test_criterion_05_split_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 3))
        depth = int(rng.integers(1, 3))
        if rng.random() < 0.3:
            X = rng.integers(0, 7, size=(n, d)).astype(float)
        else:
            X = rng.uniform(0, 10, size=(n, d))
        y = rng.normal(50, 10, size=n)
        tree = fit_tree(X, y, depth)
        reference = oracles.brute_force_tree(X, y, max_depth=depth)
        try:
            oracles.assert_same_tree(tree, reference)
        except AssertionError:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(
        5,
        "tree-split optimality",
        ok,
        f"{mismatches} mismatches in 200 instances, {elapsed:.1f}s < 30s",
    )


def test_criterion_06_dose_recovery():
    started = time.perf_counter()
    cohort, _ = generate(dose_recovery_scenario(20_000), seed=11)
    model = fit_t_learner2(cohort, max_depth=3, seed=3, n_trees=200)
    bins = [b for b in sorted(cohort.bin_members) if 35 <= b <= 65]
    surface = phi_surface(model, cohort, x1_bins=bins, x2_values=range(1, 11))
    target = 1.0 + 0.5 * np.arange(1, 11)
    max_error = float(np.max(np.abs(surface.phi - target[np.newaxis, :])))
    strictly_increasing = bool(np.all(np.diff(surface.phi, axis=1) > 0))
    elapsed = time.perf_counter() - started
    ok = max_error <= 1.0 and strictly_increasing and elapsed < 60.0
    _verdict(
        6,
        "dose recovery",
        ok,
        f"max |phi - (1 + 0.5 x2)| = {max_error:.3f} <= 1.0,"
        f" strictly increasing {strictly_increasing}, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_ols_exactness_and_dose_sign():
    rng = np.random.default_rng(77)
    worst_recovery = 0.0
    worst_orth = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 120))
        p = int(rng.integers(1, 4))
        X = rng.normal(0, 3, size=(n, p))
        beta = rng.normal(0, 2, p)
        intercept = float(rng.normal(0, 1))
        exact = ols_fit(X, X @ beta + intercept)
        worst_recovery = max(
            worst_recovery,
            abs(exact.intercept - intercept),
            max(abs(c - b) for c, b in zip(exact.coefficients, beta)),
        )
        noisy_y = X @ beta + intercept + rng.normal(0, 1.5, n)
        fit = ols_fit(X, noisy_y)
        A = np.column_stack([np.ones(n), X])
        resid = noisy_y - A @ np.concatenate([[fit.intercept], fit.coefficients])
        for col in A.T:
            scale = np.linalg.norm(col) * np.linalg.norm(noisy_y) + 1e-12
            worst_orth = max(worst_orth, abs(float(col @ resid)) / scale)

    positive_signs = 0
    for seed in range(25):
        cohort, _ = generate(biased_dose_scenario(6_000), seed=seed)
        model = fit_t_learner(cohort, max_depth=4, seed=seed, n_trees=60)
        fit, _ = tau_dose_regression(cohort, model)
        if fit.coefficients[1] > 0:
            positive_signs += 1

    ok = worst_recovery <= 1e-8 and worst_orth <= 1e-8 and positive_signs == 25
    _verdict(
        7,
        "ols exactness and dose sign",
        ok,
        f"recovery {worst_recovery:.2g} <= 1e-8, orthogonality {worst_orth:.2g} <= 1e-8,"
        f" positive x2 coefficient {positive_signs}/25",
    )


def test_criterion_08_cli_determinism(tmp_path):
    scenario_cfg = tmp_path / "scenario.cfg"
    scenario_cfg.write_text("preset = standard_biased\nn = 300\n", encoding="utf-8")

    def run(command, out, extra=()):
        code = main(list(command) + ["--out", str(out), "--quiet"] + list(extra))
        assert code == 0, f"{command} exited {code}"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    synth_cmd = ["synth", "--config", str(scenario_cfg), "--seed", "4"]
    first = run(synth_cmd, tmp_path / "s1")
    second = run(synth_cmd, tmp_path / "s2")
    csv_path = tmp_path / "s1" / "cohort.csv"

    identical = first == second
    for command, name in [
        (["cate", "--input", str(csv_path), "--seed", "4", "--trees", "16"], "cate"),
        (["phi", "--input", str(csv_path), "--seed", "4", "--trees", "16"], "phi"),
        (["tree", "--input", str(csv_path), "--depth", "3"], "tree"),
    ]:
        repeat_a = run(command, tmp_path / f"{name}_a")
        repeat_b = run(command, tmp_path / f"{name}_b")
        threaded = run(command, tmp_path / f"{name}_t", extra=["--jobs", "4"])
        identical = identical and repeat_a == repeat_b == threaded
    _verdict(8, "cli determinism", identical, "synth/cate/phi/tree byte-identical, 1 vs 4 threads")


def test_criterion_09_oracle_equivalence():
    worst = 0.0
    for seed in range(10):
        cohort, _ = helpers.random_cohort(seed + 600, n=150)
        model = fit_t_learner(cohort, seed=seed, n_trees=10)
        model2 = fit_t_learner2(cohort, seed=seed, n_trees=10)

        x1, x2, y = (column.tolist() for column in (cohort.x1, cohort.x2, cohort.y))
        r1, r0 = np.flatnonzero(cohort.treated).tolist(), np.flatnonzero(~cohort.treated).tolist()
        ate_terms = [model.mu1.predict((a,)) - model.mu0.predict((a,)) for a in x1]
        att_terms = [y[i] - model.mu0.predict((x1[i],)) for i in r1]
        atu_terms = [model.mu1.predict((x1[j],)) - y[j] for j in r0]
        att2_terms = [y[i] - model2.mu0.predict((x1[i], float(x2[i]))) for i in r1]
        worst = max(
            worst,
            abs(ate(model, cohort) - oracles.fsum_mean(ate_terms)),
            abs(att(model, cohort) - oracles.fsum_mean(att_terms)),
            abs(atu(model, cohort) - oracles.fsum_mean(atu_terms)),
            abs(att2(model2, cohort) - oracles.fsum_mean(att2_terms)),
        )
    _verdict(9, "effect-scalar oracle equivalence", worst <= 1e-12, f"max gap {worst:.3g}")


def test_criterion_10_deviation_transform():
    ok = to_deviation([50.0, 50.0, 80.0, 20.0])[0] == 50.0
    ok = ok and to_deviation([40.0, 60.0]) == [40.0, 60.0]
    rng = np.random.default_rng(10)
    worst_mean = 0.0
    worst_sd = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 400))
        scores = rng.normal(rng.uniform(-100, 100), rng.uniform(0.5, 50), n)
        if float(np.ptp(scores)) == 0.0:
            continue
        out = np.asarray(to_deviation(scores))
        worst_mean = max(worst_mean, abs(float(out.mean()) - 50.0))
        worst_sd = max(worst_sd, abs(float(out.std()) - 10.0))
    ok = ok and worst_mean <= 1e-9 and worst_sd <= 1e-9
    _verdict(
        10,
        "deviation transform",
        ok,
        f"fixed points exact, mean off by {worst_mean:.2g}, sd off by {worst_sd:.2g}",
    )
