"""Two-variable learner: base independence, the summand identity, surfaces."""

import csv
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catebench.errors import DomainError, EmptyArm, EmptyBin
from catebench.forest import RegressionForest, TreeNode
from catebench.synth import MAX_DOSE, dose_recovery_scenario, generate
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
    assert model.n_treated == np.count_nonzero(cohort.treated)
    assert model.n_control == np.count_nonzero(~cohort.treated)


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


def test_independence_proved_from_structure_predicts_no_probe(monkeypatch):
    cohort, _ = helpers.random_cohort(17)
    model = fit_t_learner2(cohort, seed=5, n_trees=12)
    assert not model.mu0.thresholds()[1].size
    calls = []
    predict_many = RegressionForest.predict_many
    monkeypatch.setattr(
        RegressionForest, "predict_many", lambda self, X: calls.append(X) or predict_many(self, X)
    )
    report = check_base_independence(model, cohort, probe_x2=[1, 2])
    assert calls == []
    assert report.ok and report.probes == (1, 2) and report.n_records == cohort.n
    # what the proof stands for: every record, bitwise, at every probe
    base = predict_many(model.mu0, np.column_stack([cohort.x1, np.zeros(cohort.n)]))
    for v in (1, 2, 1000):
        at_probe = predict_many(model.mu0, np.column_stack([cohort.x1, np.full(cohort.n, v)]))
        assert at_probe.tobytes() == base.tobytes()


def test_independence_detector_flags_adversarial_model():
    cohort = helpers.cohort_from_arrays([40, 50, 60, 45], [0, 0, 0, 2], [45, 50, 55, 52])
    # hand-built mu0 tree split on the session-count feature
    bad_tree = TreeNode(
        n=3,
        mean=50.0,
        split=(1, 1.0),
        left=TreeNode(n=2, mean=48.0),
        right=TreeNode(n=1, mean=53.0),
    )
    bad_mu0 = RegressionForest(trees=(bad_tree,), feature_count=2)
    tampered = fit_t_learner2(cohort, n_trees=1)
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
    model = fit_t_learner2(cohort, n_trees=1)
    for b in cohort.bin_members:
        for dose in (1, 2, 5):
            assert phi(model, cohort, b, dose) == 0.0


def test_phi_domain_and_empty_bin_errors():
    cohort, _ = helpers.random_cohort(2)
    model = fit_t_learner2(cohort, n_trees=4)
    some_bin = next(iter(cohort.bin_members))
    with pytest.raises(DomainError):
        phi(model, cohort, some_bin, 0)
    with pytest.raises(DomainError):
        phi_summand(model, some_bin, 0)
    with pytest.raises(EmptyBin):
        phi(model, cohort, 9999.0, 1)


def test_fractional_session_count_raises_everywhere():
    # 2.5 sessions is no count: truncated to 2 or evaluated as 2.5, one cell
    # would have two values
    cohort, _ = helpers.random_cohort(2)
    model = fit_t_learner2(cohort, n_trees=4)
    some_bin = next(iter(cohort.bin_members))
    message = r"session count must be in 1\.\.1000 and a whole number, got 2\.5"
    with pytest.raises(DomainError, match=message):
        phi(model, cohort, some_bin, 2.5)
    with pytest.raises(DomainError, match=message):
        phi_surface(model, cohort, x2_values=[1, 2.5])
    with pytest.raises(DomainError, match=message):
        phi_summand(model, some_bin, 2.5)
    for probe in (1.5, float("nan"), -1, MAX_DOSE + 1):
        with pytest.raises(DomainError, match="whole number"):
            check_base_independence(model, cohort, probe_x2=[0, probe])
    assert phi(model, cohort, some_bin, 2.0) == phi(model, cohort, some_bin, 2)
    assert phi_surface(model, cohort, x2_values=[2.0, np.int64(3)]).x2_values == (2, 3)
    assert check_base_independence(model, cohort, probe_x2=[0.0, 2.0]).probes == (0, 2)


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
        for b in cohort.bin_members:
            for dose in range(1, model.dose_max + 1):
                agg = phi(model, cohort, b, dose)
                summand = phi_summand(model, b, dose)
                assert abs(agg - summand) <= 1e-12


def test_phi_increases_with_dose_on_dose_scenario():
    cohort, _ = generate(dose_recovery_scenario(4000), seed=1)
    model = fit_t_learner2(cohort, max_depth=3, seed=2, n_trees=60)
    bins = [b for b in sorted(cohort.bin_members) if 40 <= b <= 60]
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
    x1, x2, y = (column.tolist() for column in (cohort.x1, cohort.x2, cohort.y))
    terms = [
        y[i] - model.mu0.predict((x1[i], float(x2[i]))) for i in np.flatnonzero(cohort.treated)
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
    some_bin = sorted(cohort.bin_members)[1]
    surface = phi_surface(model, cohort, x1_bins=[some_bin], x2_values=[5])
    assert surface.phi.shape == (1, 1)
    assert surface.phi[0, 0] == oracles.phi_per_record(model, cohort, some_bin, 5)


def test_surface_cells_match_phi_calls_exactly():
    # the default surface, and phi as its one-cell view, against each member
    # predicted alone
    cohort, _ = helpers.random_cohort(28, n=220)
    model = fit_t_learner2(cohort, seed=4, n_trees=10)
    doses = (1, 2, 3, 5, 10, 14)
    surface = phi_surface(model, cohort, x2_values=doses)
    assert surface.x2_values == doses
    for r, b in enumerate(surface.x1_values):
        for c, dose in enumerate(doses):
            expected = oracles.phi_per_record(model, cohort, b, dose)
            assert surface.phi[r, c] == expected
            assert phi(model, cohort, b, dose) == expected


@functools.lru_cache(maxsize=None)
def _surface_case():
    cohort, _ = helpers.random_cohort(12, n=240)
    model = fit_t_learner2(cohort, seed=3, n_trees=8)
    return cohort, model, phi_surface(model, cohort, x2_values=range(1, 21))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subset_surface_cells_equal_full_surface_cells(data):
    cohort, model, full = _surface_case()
    keys = sorted(cohort.bin_members)
    bins = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    absent = data.draw(st.floats(allow_nan=False).filter(lambda b: b not in cohort.bin_members))
    doses = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=6, unique=True))
    surface = phi_surface(model, cohort, x1_bins=bins + [absent], x2_values=doses)
    assert surface.x1_values == tuple(sorted(bins + [absent]))
    assert surface.x2_values == tuple(sorted(doses))
    assert surface.n_missing == len(doses)
    for r, b in enumerate(surface.x1_values):
        for c, dose in enumerate(surface.x2_values):
            cell = surface.phi[r, c]
            if b == absent:
                assert math.isnan(cell)
            else:
                assert cell == full.phi[keys.index(b), dose - 1]


def test_one_cell_phi_predicts_only_its_bins_rows(monkeypatch):
    cohort, _ = helpers.random_cohort(7)
    model = fit_t_learner2(cohort, seed=1, n_trees=6)
    some_bin = sorted(cohort.bin_members)[2]
    rows = cohort.bin_members[some_bin]
    calls = []
    predict_many = RegressionForest.predict_many

    def recording(self, X):
        calls.append(X.tolist())  # a copy: the surface reuses X for each session count
        return predict_many(self, X)

    monkeypatch.setattr(RegressionForest, "predict_many", recording)
    value = phi(model, cohort, some_bin, 4)
    assert len(calls) == 2  # mu0 at the observed counts, then mu1 at 4 sessions
    assert calls[0] == np.column_stack([cohort.x1[rows], cohort.x2[rows]]).tolist()
    assert calls[1] == np.column_stack([cohort.x1[rows], np.full(rows.size, 4)]).tolist()
    assert value == oracles.phi_per_record(model, cohort, some_bin, 4)


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
