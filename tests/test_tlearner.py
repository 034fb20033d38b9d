"""One-variable T-learner: arm isolation, effect scalars, per-bin reports."""

import csv

import numpy as np
import pytest

from catebench.errors import EmptyArm
from catebench.synth import (
    LogisticSelection,
    ResponseFn,
    Scenario,
    generate,
    standard_biased_scenario,
)
from catebench.tlearner import (
    ate,
    att,
    atu,
    cate_tau,
    effect_report,
    fit_t_learner,
)

import helpers
import oracles


def test_identical_arms_give_zero_tau_everywhere():
    points = [(35.0, 40.0), (45.0, 50.0), (55.0, 60.0), (65.0, 55.0)]
    cohort = helpers.mirrored_cohort(points)
    model = fit_t_learner(cohort, max_depth=3, n_trees=1)
    for b in cohort.bin_members:
        assert cate_tau(model, b) == 0.0
    assert ate(model, cohort) == 0.0


def test_empty_arms_are_named():
    all_control = helpers.cohort_from_arrays([40, 50], [0, 0], [45, 50])
    with pytest.raises(EmptyArm) as err:
        fit_t_learner(all_control)
    assert err.value.arm == "R1"
    all_treated = helpers.cohort_from_arrays([40, 50], [1, 1], [45, 50])
    with pytest.raises(EmptyArm) as err:
        fit_t_learner(all_treated)
    assert err.value.arm == "R0"


def test_arm_sizes_recorded():
    x1 = [40.0] * 91 + [55.0] * 1298
    x2 = [1] * 91 + [0] * 1298
    y = [48.0] * 91 + [52.0] * 1298
    cohort = helpers.cohort_from_arrays(x1, x2, y)
    model = fit_t_learner(cohort, n_trees=2)
    assert model.n_treated == 91
    assert model.n_control == 1298


def test_att_single_treated_record():
    # controls share one outcome so mu0 is exactly constant 50
    x1 = [30.0, 40.0, 60.0, 45.0]
    x2 = [0, 0, 0, 1]
    y = [50.0, 50.0, 50.0, 55.0]
    cohort = helpers.cohort_from_arrays(x1, x2, y)
    model = fit_t_learner(cohort, max_depth=4, n_trees=1)
    assert att(model, cohort) == 5.0


def test_atu_single_control_record():
    x1 = [30.0, 50.0, 40.0]
    x2 = [1, 2, 0]
    y = [52.0, 52.0, 50.0]
    cohort = helpers.cohort_from_arrays(x1, x2, y)
    model = fit_t_learner(cohort, max_depth=4, n_trees=1)
    assert atu(model, cohort) == 2.0


def test_effect_scalars_over_a_missing_arm_are_named():
    model = fit_t_learner(helpers.mirrored_cohort([(40.0, 45.0), (50.0, 50.0)]), n_trees=1)
    with pytest.raises(EmptyArm) as err:
        att(model, helpers.cohort_from_arrays([40, 50], [0, 0], [45, 50]))
    assert err.value.arm == "R1"
    with pytest.raises(EmptyArm) as err:
        atu(model, helpers.cohort_from_arrays([40, 50], [1, 2], [45, 50]))
    assert err.value.arm == "R0"


def test_att_zero_when_outcomes_match_predictions():
    x1 = [30.0, 40.0, 60.0, 45.0, 55.0]
    x2 = [0, 0, 0, 1, 2]
    y = [50.0, 50.0, 50.0, 50.0, 50.0]
    cohort = helpers.cohort_from_arrays(x1, x2, y)
    model = fit_t_learner(cohort, n_trees=5)
    assert att(model, cohort) == 0.0


def test_effect_scalars_match_fsum_oracle():
    cohort, _ = helpers.random_cohort(21)
    model = fit_t_learner(cohort, max_depth=2, seed=4, n_trees=15)
    x1, y = cohort.x1.tolist(), cohort.y.tolist()
    terms_ate = [model.mu1.predict((a,)) - model.mu0.predict((a,)) for a in x1]
    assert abs(ate(model, cohort) - oracles.fsum_mean(terms_ate)) <= 1e-12
    terms_att = [y[i] - model.mu0.predict((x1[i],)) for i in np.flatnonzero(cohort.treated)]
    assert abs(att(model, cohort) - oracles.fsum_mean(terms_att)) <= 1e-12
    terms_atu = [model.mu1.predict((x1[j],)) - y[j] for j in np.flatnonzero(~cohort.treated)]
    assert abs(atu(model, cohort) - oracles.fsum_mean(terms_atu)) <= 1e-12


def test_ate_equals_binweighted_tau():
    cohort, _ = helpers.random_cohort(8)
    model = fit_t_learner(cohort, seed=1, n_trees=10)
    weighted = sum(len(members) * cate_tau(model, b) for b, members in cohort.bin_members.items())
    assert abs(ate(model, cohort) - weighted / cohort.n) <= 1e-9


def test_tau_constant_within_bins():
    cohort, _ = helpers.random_cohort(5)  # integer covariate values
    model = fit_t_learner(cohort, seed=2, n_trees=8)
    for b, members in cohort.bin_members.items():
        expected = cate_tau(model, b)
        for k in members:
            x1 = cohort.x1[k].item()
            got = model.mu1.predict((x1,)) - model.mu0.predict((x1,))
            assert got == expected


def test_arm_isolation_under_fixed_seed():
    cohort, _ = helpers.random_cohort(9)
    model = fit_t_learner(cohort, seed=6, n_trees=10)
    # perturb one control outcome and refit: mu1 must be bitwise unchanged
    j = np.flatnonzero(~cohort.treated)[0]
    y = cohort.y.copy()
    y[j] += 10.0
    perturbed = helpers.cohort_from_arrays(cohort.x1, cohort.x2, y)
    model2 = fit_t_learner(perturbed, seed=6, n_trees=10)
    probe = np.linspace(20, 80, 61)[:, None]
    assert np.array_equal(model.mu1.predict_many(probe), model2.mu1.predict_many(probe))
    assert not np.array_equal(model.mu0.predict_many(probe), model2.mu0.predict_many(probe))


def test_oracle_recovery_constant_effect_flat_outcomes():
    scenario = Scenario(
        n=400,
        selection=LogisticSelection(intercept=0.0, slope=0.0),
        mu0_true=ResponseFn("constant", 50.0),
        effect_true=ResponseFn("constant", 2.5),
        noise_sd=0.0,
    )
    cohort, _ = generate(scenario, seed=3)
    model = fit_t_learner(cohort, seed=0, n_trees=20)
    assert abs(ate(model, cohort) - 2.5) <= 1e-6
    assert abs(att(model, cohort) - 2.5) <= 1e-6
    assert abs(atu(model, cohort) - 2.5) <= 1e-6


def test_linear_shift_recovered_at_interior_bins():
    scenario = Scenario(
        n=4000,
        selection=LogisticSelection(intercept=0.0, slope=0.0),
        mu0_true=ResponseFn("linear_x1", 0.0, 1.0),
        effect_true=ResponseFn("constant", 5.0),
        noise_sd=0.0,
    )
    cohort, _ = generate(scenario, seed=12)
    model = fit_t_learner(cohort, max_depth=8, seed=1, n_trees=30)
    for b in sorted(cohort.bin_members):
        if 38 <= b <= 62:
            assert abs(cate_tau(model, b) - 5.0) <= 0.5


def test_biased_scenario_sign_reversal():
    cohort, truth = generate(standard_biased_scenario(6000), seed=2)
    y = cohort.y.tolist()
    naive = np.mean([y[i] for i in np.flatnonzero(cohort.treated)]) - np.mean(
        [y[j] for j in np.flatnonzero(~cohort.treated)]
    )
    model = fit_t_learner(cohort, max_depth=4, seed=0, n_trees=60)
    assert naive < 0
    assert ate(model, cohort) > 0
    assert truth.true_ate > 0


def test_effect_report_contract(tmp_path):
    cohort, _ = helpers.random_cohort(14)
    model = fit_t_learner(cohort, seed=3, n_trees=8)
    report = effect_report(model, cohort)
    bins = sorted(cohort.bin_members)
    assert report.x1.tolist() == [float(b) for b in bins]
    assert len(report.x1) == len(bins)
    columns = (report.x1, report.mu0, report.mu1, report.tau)
    for x1, mu0, mu1, tau in zip(*(column.tolist() for column in columns)):
        assert tau == mu1 - mu0
        assert tau == cate_tau(model, x1)
    assert model.summary({})["n"] == cohort.n

    csv_path = tmp_path / "effect_report.csv"
    report.to_csv(csv_path)
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "mu0", "mu1", "tau"]
    assert len(rows) == len(bins) + 1


def test_identical_arms_report_zero_column():
    cohort = helpers.mirrored_cohort([(40.0, 45.0), (50.0, 52.0), (60.0, 58.0)])
    model = fit_t_learner(cohort, n_trees=1)
    report = effect_report(model, cohort)
    assert all(tau == 0.0 for tau in report.tau.tolist())
