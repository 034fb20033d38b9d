"""Synthetic generator: determinism, consistency, bias dial, truth queries."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from catebench.dataset import load_cohort, summarize
from catebench.errors import InvalidScenario, OutOfSupport
from catebench.synth import (
    MAX_DOSE,
    MAX_N,
    PRESETS,
    DoseModel,
    LogisticSelection,
    ResponseFn,
    Scenario,
    generate,
    load_scenario,
    save_synthetic,
    scenario_from_dict,
    standard_biased_scenario,
    true_effects,
)

import helpers
import oracles


def test_same_seed_is_bitwise_identical():
    scenario = standard_biased_scenario(800)
    a_cohort, a_truth = generate(scenario, seed=7)
    b_cohort, b_truth = generate(scenario, seed=7)
    assert helpers.cohort_columns(a_cohort) == helpers.cohort_columns(b_cohort)
    assert np.array_equal(a_truth.y0, b_truth.y0)
    assert np.array_equal(a_truth.noise, b_truth.noise)
    assert np.array_equal(a_truth.latent_dose, b_truth.latent_dose)
    c_cohort, _ = generate(scenario, seed=8)
    assert helpers.cohort_columns(c_cohort) != helpers.cohort_columns(a_cohort)


@pytest.mark.parametrize("n", [1, 100_001])
def test_ids_are_s_and_the_row_number_in_five_digits_or_more(n):
    cohort, _ = generate(standard_biased_scenario(n), seed=1)
    assert cohort.ids == tuple(f"s{i:05d}" for i in range(n))
    assert cohort.ids[-1] == ("s00000" if n == 1 else "s100000")


def test_observed_outcome_is_potential_plus_noise_exactly():
    cohort, truth = generate(standard_biased_scenario(500), seed=1)
    y = cohort.y
    assigned = np.where(truth.treated, truth.y1, truth.y0)
    assert np.array_equal(y, assigned + truth.noise)
    x2 = cohort.x2
    assert np.array_equal(x2 > 0, truth.treated)
    assert np.array_equal(x2[truth.treated], truth.latent_dose[truth.treated])


def test_zero_effect_means_zero_true_ate():
    scenario = Scenario(n=300, effect_true=ResponseFn("constant", 0.0), noise_sd=0.0)
    cohort, truth = generate(scenario, seed=0)
    assert truth.true_ate == 0.0
    assert true_effects(truth, "ate") == 0.0


def test_bias_dial():
    flat = Scenario(n=10_000, selection=LogisticSelection(intercept=0.0, slope=0.0))
    cohort, _ = generate(flat, seed=4)
    s = summarize(cohort)
    assert abs(s.mean_x1_treated - s.mean_x1_control) < 0.8  # sampling error only

    tilted = Scenario(n=10_000, selection=LogisticSelection(intercept=0.0, slope=-0.1))
    cohort, _ = generate(tilted, seed=4)
    s = summarize(cohort)
    assert s.mean_x1_treated < s.mean_x1_control


def test_inversion_scenario_summary():
    cohort, truth = generate(standard_biased_scenario(8000), seed=9)
    s = summarize(cohort)
    assert truth.true_ate > 0
    assert s.mean_y_treated < s.mean_y_control


def test_cohort_shape_91_of_1389_in_expectation():
    rate = 91.0 / 1389.0
    intercept = math.log(rate / (1.0 - rate))
    scenario = Scenario(n=1389, selection=LogisticSelection(intercept=intercept, slope=0.0))
    counts = [np.count_nonzero(generate(scenario, seed=s)[0].treated) for s in range(5)]
    sd = math.sqrt(1389 * rate * (1 - rate))
    for count in counts:
        assert abs(count - 91) <= 5 * sd


def test_true_effect_queries():
    scenario = Scenario(
        n=50,
        dose=DoseModel(p=0.4, max_dose=10),
        effect_true=ResponseFn("linear_dose", 1.0, 0.5),
        noise_sd=0.0,
    )
    cohort, truth = generate(scenario, seed=2)
    assert true_effects(truth, "tau", x1=45.0, x2=4) == 3.0  # 1 + 0.5 * 4
    tau_x1 = true_effects(truth, "tau_x1", x1=45.0)
    assert tau_x1 == pytest.approx(1.0 + 0.5 * scenario.dose.expected_dose(45.0), abs=1e-12)
    with pytest.raises(OutOfSupport):
        true_effects(truth, "tau", x1=45.0, x2=11)
    with pytest.raises(OutOfSupport):
        true_effects(truth, "tau", x1=45.0, x2=0)
    with pytest.raises(ValueError):
        true_effects(truth, "nonsense")

    const = Scenario(n=20, effect_true=ResponseFn("constant", 2.0))
    _, truth_c = generate(const, seed=0)
    for x1 in (30.0, 50.0, 70.0):
        assert true_effects(truth_c, "tau_x1", x1=x1) == 2.0


def test_true_effect_queries_of_each_arm():
    _, truth = generate(Scenario(n=200, selection=LogisticSelection(intercept=0.0)), seed=1)
    assert None not in (truth.true_att, truth.true_atu)
    assert true_effects(truth, "att") == truth.true_att
    assert true_effects(truth, "atu") == truth.true_atu
    with pytest.raises(ValueError, match="need x1 and x2"):
        true_effects(truth, "tau", x1=45.0)
    with pytest.raises(ValueError, match="need x1"):
        true_effects(truth, "tau_x1")
    for intercept, empty in ((-60.0, "att"), (60.0, "atu")):  # one arm has no records
        _, one_arm = generate(Scenario(n=50, selection=LogisticSelection(intercept=intercept)), 1)
        with pytest.raises(OutOfSupport):
            true_effects(one_arm, empty)


def test_unknown_response_kind_is_an_invalid_scenario():
    with pytest.raises(InvalidScenario) as err:
        Scenario(n=10, effect_true=ResponseFn("bogus")).validate()
    assert err.value.field == "effect_true"
    with pytest.raises(InvalidScenario) as err:
        ResponseFn("bogus")(50.0)
    assert err.value.field == "kind"


def test_true_ate_matches_per_record_fsum():
    cohort, truth = generate(standard_biased_scenario(2000), seed=5)
    effects = truth.y1 - truth.y0
    assert abs(truth.true_ate - oracles.fsum_mean(effects)) <= 1e-12
    assert abs(truth.true_att - oracles.fsum_mean(effects[truth.treated])) <= 1e-12
    assert abs(truth.true_atu - oracles.fsum_mean(effects[~truth.treated])) <= 1e-12


def test_invalid_scenarios_name_the_field():
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=0), seed=0)
    assert err.value.field == "n"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, noise_sd=-1.0), seed=0)
    assert err.value.field == "noise_sd"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, mu0_true=ResponseFn("linear_dose", 1.0, 1.0)), seed=0)
    assert err.value.field == "mu0_true"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, dose=DoseModel(p=0.0)), seed=0)
    assert err.value.field == "dose.p"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, x1_sd=math.nan), seed=0)
    assert err.value.field == "x1_sd"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, selection=LogisticSelection(slope=-math.inf)), seed=0)
    assert err.value.field == "selection.slope"
    # every field is finite, but 1e307 * x1 overflows the drawn base response
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, mu0_true=ResponseFn("linear_x1", 0.0, 1e307)), seed=0)
    assert err.value.field == "mu0_true"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=100, noise_sd=1e308), seed=0)
    assert err.value.field == "noise_sd"
    # each y1 = y0 + 1e307 is finite, but outside the cohort's [-1e100, 1e100]
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=100, effect_true=ResponseFn("constant", 1e307)), seed=0)
    assert err.value.field == "effect_true"
    # every draw is finite, but the loader would refuse the saved cohort
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=100, mu0_true=ResponseFn("linear_x1", 0.0, 1e99)), seed=0)
    assert err.value.field == "mu0_true"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=100, effect_true=ResponseFn("constant", 1e101)), seed=0)
    assert err.value.field == "effect_true"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=100, noise_sd=1e101), seed=0)
    assert err.value.field == "noise_sd"
    # size caps: validation comes first, so nothing of that size is allocated
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=MAX_N + 1), seed=0)
    assert err.value.field == "n"
    with pytest.raises(InvalidScenario) as err:
        generate(Scenario(n=5, dose=DoseModel(max_dose=MAX_DOSE + 1)), seed=0)
    assert err.value.field == "dose.max_dose"


def test_dose_model_support_and_uniform_kind():
    rng = np.random.default_rng(0)
    model = DoseModel(p=0.3, max_dose=6)
    draws = model.sample(np.full(5000, 50.0), rng)
    assert draws.min() >= 1 and draws.max() <= 6
    assert abs(float(np.sum(model.base_probabilities() * np.arange(1, 7)))
               - draws.mean()) < 0.1
    uniform = DoseModel(max_dose=4, kind="uniform")
    assert uniform.base_probabilities() == pytest.approx([0.25] * 4)
    shifted = DoseModel(p=0.5, max_dose=10, x1_slope=0.5, x1_ref=50.0)
    assert shifted.shift(np.array([40.0]))[0] == 5
    assert shifted.shift(np.array([60.0]))[0] == 0
    assert shifted.expected_dose(40.0) > shifted.expected_dose(60.0)
    # a finite shift too large for an integer still caps at max_dose
    steep = DoseModel(p=0.5, max_dose=10, x1_slope=1e30, x1_ref=1e30)
    assert (steep.sample(np.array([40.0, 60.0]), rng) == 10).all()


def test_scenario_round_trip_through_dict():
    scenario = standard_biased_scenario(123)
    again = scenario_from_dict(scenario.to_dict())
    assert again == scenario


def test_load_scenario_json_and_key_value(tmp_path):
    scenario = standard_biased_scenario(321)
    json_path = tmp_path / "scenario.json"
    json_path.write_text(json.dumps(scenario.to_dict()), encoding="utf-8")
    assert load_scenario(json_path) == scenario

    flat_path = tmp_path / "scenario.cfg"
    flat_path.write_text(
        "preset = standard_biased\n"
        "n = 321\n"
        "# comment line\n"
        "noise_sd = 5.0\n",
        encoding="utf-8",
    )
    assert load_scenario(flat_path) == scenario

    bare = tmp_path / "bare.cfg"
    bare.write_text("n = 40\neffect_kind = constant\neffect_a = 2.0\n", encoding="utf-8")
    loaded = load_scenario(bare)
    assert loaded.n == 40
    assert loaded.effect_true == ResponseFn("constant", 2.0)

    bad = tmp_path / "bad.cfg"
    bad.write_text("nn = 40\n", encoding="utf-8")
    with pytest.raises(InvalidScenario) as err:
        load_scenario(bad)
    assert err.value.field == "nn"


def test_flat_scenario_lines_end_only_at_newlines(tmp_path):
    # str.splitlines would also break at the form feed and call "seed" line 3
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"n = 100\x0cpreset = bogus\nseed\n")
    with pytest.raises(InvalidScenario) as err:
        load_scenario(path)
    assert str(err.value) == f"invalid scenario field 'line': {path}: line 2: expected key=value"
    path.write_bytes("n = 40\r\nnoise_sd = 2.5\r\n".encode("utf-8"))
    assert (load_scenario(path).n, load_scenario(path).noise_sd) == (40, 2.5)


def test_save_synthetic_round_trips_through_loader(tmp_path):
    cohort, truth = generate(standard_biased_scenario(200), seed=3)
    truth_path = save_synthetic(cohort, truth, tmp_path / "cohort.csv")
    reloaded, report = load_cohort(tmp_path / "cohort.csv")
    assert helpers.cohort_columns(reloaded) == helpers.cohort_columns(cohort)
    assert report.n_dropped == 0
    payload = json.loads(truth_path.read_text())
    assert payload["true_ate"] == truth.true_ate
    assert payload["scenario"]["n"] == 200
    assert len(payload["y0"]) == 200


def test_partial_json_section_keeps_the_preset_fields(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"preset": "standard_biased", "n": 10, "selection": {"slope": -0.2}}', encoding="utf-8"
    )
    scenario = load_scenario(path)
    assert scenario.selection == LogisticSelection(intercept=-0.6, slope=-0.2, center=50.0)


def test_values_are_stored_as_their_field_type():
    scenario = scenario_from_dict({"n": "12", "x1_mean": 50, "round_x1": "no"})
    payload = scenario.to_dict()
    assert payload["n"] == 12
    assert payload["x1_mean"] == 50.0 and isinstance(payload["x1_mean"], float)
    assert payload["round_x1"] is False


_FLOATS = st.floats()
# each flat key of the README: (JSON section or None, JSON field, value strategy)
_FLAT_KEYS = {
    "n": (None, "n", st.integers(-2, 200)),
    "x1_mean": (None, "x1_mean", _FLOATS),
    "x1_sd": (None, "x1_sd", _FLOATS),
    "round_x1": (None, "round_x1", st.booleans()),
    "noise_sd": (None, "noise_sd", _FLOATS),
    "selection_intercept": ("selection", "intercept", _FLOATS),
    "selection_slope": ("selection", "slope", _FLOATS),
    "selection_center": ("selection", "center", _FLOATS),
    "dose_kind": ("dose", "kind", st.sampled_from(DoseModel.KINDS + ("bogus",))),
    "dose_p": ("dose", "p", _FLOATS),
    "dose_max": ("dose", "max_dose", st.integers(-2, 30)),
    "dose_x1_slope": ("dose", "x1_slope", _FLOATS),
    "dose_x1_ref": ("dose", "x1_ref", _FLOATS),
    "mu0_kind": ("mu0_true", "kind", st.sampled_from(ResponseFn.KINDS)),
    "mu0_a": ("mu0_true", "a", _FLOATS),
    "mu0_b": ("mu0_true", "b", _FLOATS),
    "effect_kind": ("effect_true", "kind", st.sampled_from(ResponseFn.KINDS + ("bogus",))),
    "effect_a": ("effect_true", "a", _FLOATS),
    "effect_b": ("effect_true", "b", _FLOATS),
}


def _flat_text(value) -> str:
    if isinstance(value, str):
        return value
    return str(value).lower() if isinstance(value, bool) else repr(value)


def _load_or_field(path):
    try:
        return load_scenario(path)
    except InvalidScenario as exc:
        return exc.field


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    preset=st.none() | st.sampled_from(sorted(PRESETS)),
    overrides=st.fixed_dictionaries(
        {}, optional={key: strategy for key, (_, _, strategy) in _FLAT_KEYS.items()}
    ),
)
@example(preset="standard_biased", overrides={"n": 10, "selection_slope": -0.2})
def test_flat_file_and_json_twin_load_alike(tmp_path, preset, overrides):
    pairs = dict(overrides) if preset is None else dict(overrides, preset=preset)
    data = {} if preset is None else {"preset": preset}
    for key, value in overrides.items():
        section, field, _ = _FLAT_KEYS[key]
        (data if section is None else data.setdefault(section, {}))[field] = value
    flat, twin = tmp_path / "scenario.cfg", tmp_path / "scenario.json"
    flat.write_text("".join(f"{k} = {_flat_text(v)}\n" for k, v in pairs.items()), encoding="utf-8")
    twin.write_text(json.dumps(data), encoding="utf-8")
    assert _load_or_field(flat) == _load_or_field(twin)
