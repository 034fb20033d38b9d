"""Two-variable learner: base independence, the summand identity, surfaces."""

import csv
import json
import math

import numpy as np
import pytest

from catebench.errors import DomainError, EmptyArm, EmptyBin
from catebench.forest import RegressionForest, TreeNode, TreeParams
from catebench.synth import dose_recovery_scenario, generate
from catebench.tlearner import att, fit_t_learner
from catebench.treatcount import (
    REFERENCE_DOSES,
    att2,
    check_base_independence,
    default_dose_probes,
    fit_t_learner2,
    phi,
    phi_summand,
    phi_surface,
)

import helpers
import oracles


def test_mu0_never_splits_the_dose_feature():
    cohort, _ = helpers.random_cohort(3)
    model = fit_t_learner2(cohort, seed=1, n_trees=10)

    def walk(node):
        if node.split is None:
            return
        assert node.split[0] == 0  # covariate only
        walk(node.left)
        walk(node.right)

    for tree in model.mu0.trees:
        walk(tree)
    assert model.n_treated == len(cohort.r1)
    assert model.n_control == len(cohort.r0)


def test_fit_succeeds_with_single_treated_record():
    cohort = helpers.cohort_from_arrays([40, 50, 60, 45], [0, 0, 0, 3], [45, 50, 55, 52])
    model = fit_t_learner2(cohort, n_trees=3)
    assert model.n_treated == 1
    assert model.dose_min == model.dose_max == 3
    assert all(tree.is_leaf for tree in model.mu1.trees)


def test_empty_arm_raises():
    cohort = helpers.cohort_from_arrays([40, 50], [0, 0], [45, 50])
    with pytest.raises(EmptyArm):
        fit_t_learner2(cohort)


def test_independence_zero_violations():
    cohort, _ = helpers.random_cohort(17)
    model = fit_t_learner2(cohort, seed=5, n_trees=12)
    report = check_base_independence(model, cohort, probe_x2=range(0, 15))
    assert report.ok
    assert report.n_records == cohort.n
    assert report.probes == tuple(range(0, 15))


def test_independence_detector_flags_adversarial_model():
    cohort = helpers.cohort_from_arrays([40, 50, 60, 45], [0, 0, 0, 2], [45, 50, 55, 52])
    model = fit_t_learner2(cohort, n_trees=1, bootstrap=False)
    # hand-built mu0 tree split on the session-count feature
    bad_tree = TreeNode(
        n=3,
        mean=50.0,
        split=(1, 1.0),
        left=TreeNode(n=2, mean=48.0),
        right=TreeNode(n=1, mean=53.0),
    )
    bad_mu0 = RegressionForest(
        trees=(bad_tree,),
        n_trees=1,
        seed=0,
        feature_count=2,
        params=model.params,
        bootstrap=False,
    )
    tampered = fit_t_learner2(cohort, n_trees=1, bootstrap=False)
    object.__setattr__(tampered, "mu0", bad_mu0)
    report = check_base_independence(tampered, cohort, probe_x2=[0, 1, 2])
    assert not report.ok
    ks = {k for (k, v, got, base) in report.violations}
    vs = {v for (k, v, got, base) in report.violations}
    assert ks == set(range(cohort.n))
    assert vs == {1, 2}  # probes at or above the bad threshold


def test_default_probes_cover_reference_series():
    cohort = helpers.cohort_from_arrays([40, 50, 60, 45], [0, 0, 0, 2], [45, 50, 55, 52])
    model = fit_t_learner2(cohort, n_trees=2)
    probes = default_dose_probes(model)
    assert 0 in probes
    assert set(REFERENCE_DOSES) <= set(probes)


def test_phi_zero_when_arms_identical():
    points = [(40.0, 45.0), (50.0, 52.0), (60.0, 58.0)]
    cohort = helpers.mirrored_cohort(points, dose=1)
    model = fit_t_learner2(cohort, n_trees=1, bootstrap=False)
    for b in cohort.groups:
        for dose in (1, 2, 5):
            assert phi(model, cohort, b, dose) == 0.0


def test_phi_domain_and_empty_bin_errors():
    cohort, _ = helpers.random_cohort(2)
    model = fit_t_learner2(cohort, n_trees=4)
    some_bin = next(iter(cohort.groups))
    with pytest.raises(DomainError):
        phi(model, cohort, some_bin, 0)
    with pytest.raises(DomainError):
        phi_summand(model, some_bin, 0)
    with pytest.raises(EmptyBin):
        phi(model, cohort, 9999.0, 1)


def test_phi_finds_a_tenth_width_bin_by_its_decimal():
    # 257 * 0.1 is 25.700000000000003; the bin key is 25.7 itself
    x1 = [25.68, 25.71, 25.74, 25.69, 25.72, 30.0]
    cohort = helpers.cohort_from_arrays(x1, [0, 0, 0, 2, 3, 1], [50, 51, 52, 55, 57, 60], 0.1)
    model = fit_t_learner2(cohort, n_trees=3)
    assert math.isfinite(phi(model, cohort, 25.7, 2))


def test_summand_identity_everywhere():
    for seed in (23, 31):
        cohort, _ = helpers.random_cohort(seed, n=200)
        model = fit_t_learner2(cohort, seed=seed, n_trees=10)
        for b in cohort.groups:
            for dose in range(1, model.dose_max + 1):
                agg = phi(model, cohort, b, dose)
                summand = phi_summand(model, b, dose)
                assert abs(agg - summand) <= 1e-12


def test_phi_increases_with_dose_on_dose_scenario():
    cohort, _ = generate(dose_recovery_scenario(4000), seed=1)
    model = fit_t_learner2(cohort, TreeParams(max_depth=3), seed=2, n_trees=60)
    bins = [b for b in sorted(cohort.groups) if 40 <= b <= 60]
    for b in bins[:5]:
        values = [phi(model, cohort, b, dose) for dose in range(1, 11)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))
        assert values[-1] > values[0]


def test_att2_trivial_zero():
    x1 = [30.0, 40.0, 60.0, 45.0, 55.0]
    x2 = [0, 0, 0, 1, 4]
    y = [50.0, 50.0, 50.0, 50.0, 50.0]
    cohort = helpers.cohort_from_arrays(x1, x2, y)
    model = fit_t_learner2(cohort, n_trees=5)
    assert att2(model, cohort) == 0.0


def test_att2_matches_fsum_oracle():
    cohort, _ = helpers.random_cohort(41)
    model = fit_t_learner2(cohort, seed=9, n_trees=12)
    terms = [
        cohort.records[i].y
        - model.mu0.predict((cohort.records[i].x1, float(cohort.records[i].x2)))
        for i in cohort.r1
    ]
    assert abs(att2(model, cohort) - oracles.fsum_mean(terms)) <= 1e-12


def test_att2_equals_att_for_aligned_fits():
    assert att2 is att
    for seed in range(6):
        cohort, _ = helpers.random_cohort(seed + 50)
        one = fit_t_learner(cohort, seed=seed, n_trees=14)
        two = fit_t_learner2(cohort, seed=seed, n_trees=14)
        assert abs(att2(two, cohort) - att(one, cohort)) <= 1e-9


# --- surfaces ---------------------------------------------------------------


def test_surface_single_cell():
    cohort, _ = helpers.random_cohort(7)
    model = fit_t_learner2(cohort, seed=1, n_trees=6)
    some_bin = sorted(cohort.groups)[1]
    surface = phi_surface(model, cohort, x1_bins=[some_bin], x2_values=[5])
    assert surface.phi.shape == (1, 1)
    assert surface.phi[0, 0] == phi(model, cohort, some_bin, 5)


def test_surface_cells_match_phi_calls_exactly():
    cohort, _ = helpers.random_cohort(28, n=220)
    model = fit_t_learner2(cohort, seed=4, n_trees=10)
    doses = (1, 2, 3, 5, 10, 14)
    surface = phi_surface(model, cohort, x2_values=doses)
    assert surface.x2_values == doses
    for r, b in enumerate(surface.x1_values):
        for c, dose in enumerate(doses):
            assert surface.phi[r, c] == phi(model, cohort, b, dose)


def test_surface_ordering_flags_and_missing(tmp_path):
    cohort = helpers.cohort_from_arrays(
        [40, 40, 50, 60, 45], [0, 2, 0, 0, 3], [45, 47, 50, 55, 52]
    )
    model = fit_t_learner2(cohort, n_trees=4)
    surface = phi_surface(model, cohort, x1_bins=[60.0, 40.0, 77.0], x2_values=[9, 1])
    assert surface.x1_values == (40.0, 60.0, 77.0)
    assert surface.x2_values == (1, 9)
    assert surface.observed_dose_min == 2 and surface.observed_dose_max == 3
    assert surface.extrapolation_flags == (True, True)  # 1 below, 9 above
    assert surface.n_missing == 2  # bin 77 empty for both doses
    assert math.isnan(surface.phi[2, 0]) and math.isnan(surface.phi[2, 1])

    with pytest.raises(DomainError):
        phi_surface(model, cohort, x2_values=[0, 1])

    csv_path = tmp_path / "surface.csv"
    surface.to_csv(csv_path)
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "phi"]
    assert len(rows) == 1 + 3 * 2
    assert rows[5][2] == "" and rows[6][2] == ""  # missing cells are empty

    json_path = tmp_path / "surface.json"
    surface.to_json(json_path)
    payload = json.loads(json_path.read_text())
    assert payload["x1_values"] == [40.0, 60.0, 77.0]
    assert payload["phi"][2] == [None, None]
    assert payload["observed_dose_min"] == 2
    assert payload["n_missing"] == 2
