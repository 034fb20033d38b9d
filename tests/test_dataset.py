"""Dataset module: deviation scoring, CSV round trips, grouping, summaries."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catebench.dataset import (
    AUX_FIELDS,
    GroupSummary,
    SchemaConfig,
    StudentRecord,
    bin_value,
    build_cohort,
    group_by_covariate,
    load_cohort,
    save_cohort,
    summarize,
    to_deviation,
)
from catebench.errors import DomainError, EmptyOrSingleton, ParseError, SchemaError, ZeroVariance
from catebench.synth import standard_biased_scenario, generate

import helpers
import oracles


# --- to_deviation -----------------------------------------------------------


def test_score_at_mean_maps_to_50():
    out = to_deviation([50.0, 50.0, 80.0, 20.0])
    assert out[0] == 50.0
    assert out[1] == 50.0


def test_two_point_symmetry_is_fixed():
    assert to_deviation([40.0, 60.0]) == [40.0, 60.0]


def test_matches_two_pass_oracle():
    scores = [10.0, 20.0, 30.0, 40.0]
    expected = oracles.two_pass_deviation(scores)
    got = to_deviation(scores)
    assert got == pytest.approx(expected, abs=1e-12)
    # element 3 pinned: 10 * (40 - 25) / sqrt(125) + 50
    assert got[3] == pytest.approx(10.0 * 15.0 / math.sqrt(125.0) + 50.0, abs=1e-12)
    assert got[3] == pytest.approx(63.41640786499874, abs=1e-12)


def test_rejects_empty_and_singleton():
    with pytest.raises(EmptyOrSingleton):
        to_deviation([])
    with pytest.raises(EmptyOrSingleton):
        to_deviation([5.0])


def test_rejects_zero_variance():
    with pytest.raises(ZeroVariance):
        to_deviation([3.0, 3.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=200).filter(
        lambda xs: max(xs) - min(xs) > 1e-6
    )
)
def test_output_standardized(scores):
    out = np.asarray(to_deviation(scores))
    assert abs(out.mean() - 50.0) <= 1e-9
    assert abs(out.std() - 10.0) <= 1e-9


# --- grouping ---------------------------------------------------------------


def test_bin_rounding_rule():
    cohort = helpers.cohort_from_arrays([35.0, 35.4, 36.0], [0, 0, 0], [50.0, 51.0, 52.0])
    groups = group_by_covariate(cohort, precision=1.0)
    assert set(groups) == {35.0, 36.0}
    assert len(groups[35.0]) == 2
    assert len(groups[36.0]) == 1


def test_single_record_single_bin():
    cohort = helpers.cohort_from_arrays([42.0], [1], [50.0])
    assert group_by_covariate(cohort) == {42.0: (0,)}


def test_groups_partition_thousand_random_records():
    rng = np.random.default_rng(4)
    x1 = rng.uniform(20, 80, 1000)
    cohort = helpers.cohort_from_arrays(x1, rng.integers(0, 3, 1000), rng.normal(50, 10, 1000))
    groups = group_by_covariate(cohort, precision=1.0)
    seen = [i for members in groups.values() for i in members]
    assert len(seen) == 1000
    assert sorted(seen) == list(range(1000))
    for b, members in groups.items():
        for i in members:
            assert bin_value(cohort.records[i].x1, 1.0) == b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=200), min_size=1, max_size=60),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_partition_property(x1s, precision):
    cohort = helpers.cohort_from_arrays(x1s, [0] * len(x1s), [50.0] * len(x1s))
    groups = group_by_covariate(cohort, precision=precision)
    seen = sorted(i for members in groups.values() for i in members)
    assert seen == list(range(len(x1s)))


def test_treated_control_partition():
    cohort = helpers.cohort_from_arrays([40, 50, 60], [0, 2, 1], [45, 50, 55])
    assert cohort.r1 == (1, 2)
    assert cohort.r0 == (0,)
    assert set(cohort.r1) | set(cohort.r0) == {0, 1, 2}
    assert not set(cohort.r1) & set(cohort.r0)


def test_record_validation():
    with pytest.raises(ValueError):
        StudentRecord(id="a", x1=float("nan"), x2=0, y=50.0)
    with pytest.raises(ValueError):
        StudentRecord(id="a", x1=50.0, x2=-1, y=50.0)
    with pytest.raises(ValueError):
        build_cohort([], precision=0.0)


# --- summarize --------------------------------------------------------------


def test_all_treated_means_absent_for_control():
    cohort = helpers.cohort_from_arrays([40, 50], [1, 2], [45, 55])
    summary = summarize(cohort)
    assert summary.n_control == 0
    assert summary.mean_y_control is None
    assert summary.mean_x1_control is None
    assert summary.mean_y_treated == pytest.approx(50.0)


def test_two_record_means():
    cohort = helpers.cohort_from_arrays([45, 55], [1, 0], [40.0, 60.0])
    summary = summarize(cohort)
    assert summary == GroupSummary(1, 1, 40.0, 60.0, 45.0, 55.0)


def test_biased_scenario_inverts_naive_comparison():
    cohort, truth = generate(standard_biased_scenario(4000), seed=5)
    summary = summarize(cohort)
    assert truth.true_ate > 0
    assert summary.mean_y_treated < summary.mean_y_control


# --- CSV loading / saving ---------------------------------------------------

HEADER = "id,proficiency,f2f,remote,basic_class,exercises,videos,references,diff_deviation"


def _write(tmp_path, body, name="cohort.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_drops_rows_missing_outcome(tmp_path):
    body = HEADER + "\n"
    body += "a,50.0,0,0,0,0,0,0,55.0\n"
    body += "b,45.0,1,0,0,0,0,0,\n"  # missing outcome: dropped
    body += "c,52.0,0,0,0,0,0,0,48.0\n"
    body += "d,,0,0,0,0,0,0,48.0\n"  # missing covariate: dropped
    body += "e,60.0,2,0,0,0,0,0,61.0\n"
    cohort, report = load_cohort(_write(tmp_path, body))
    assert cohort.n == 3
    assert report.n_rows == 5
    assert report.n_dropped == 2


def test_treated_iff_count_positive(tmp_path):
    body = HEADER + "\na,50.0,2,0,0,0,0,0,55.0\nb,50.0,0,0,0,0,0,0,50.0\n"
    cohort, _ = load_cohort(_write(tmp_path, body))
    assert cohort.records[0].treated and cohort.records[0].x2 == 2
    assert cohort.r1 == (0,)


def test_missing_count_reads_as_zero(tmp_path):
    body = HEADER + "\na,50.0,,,,,,,55.0\nb,50.0,1,0,0,0,0,0,50.0\n"
    cohort, _ = load_cohort(_write(tmp_path, body))
    assert cohort.records[0].x2 == 0
    assert cohort.records[0].aux == {k: 0 for k in cohort.records[0].aux}


def test_missing_column_is_schema_error(tmp_path):
    body = "id,proficiency,f2f,remote,basic_class,exercises,videos,references\n"
    with pytest.raises(SchemaError, match="diff_deviation"):
        load_cohort(_write(tmp_path, body))


def test_bad_cell_is_parse_error_with_location(tmp_path):
    body = HEADER + "\na,50.0,x,0,0,0,0,0,55.0\n"
    with pytest.raises(ParseError, match="row 2.*f2f"):
        load_cohort(_write(tmp_path, body))
    body = HEADER + "\na,50.0,1,0,0,0,0,0,55.0\nb,oops,0,0,0,0,0,0,50.0\n"
    with pytest.raises(ParseError, match="row 3.*proficiency"):
        load_cohort(_write(tmp_path, body))


def test_decimal_magnitude_limit(tmp_path):
    # squares of 1e154 already overflow the split search's running sums
    body = HEADER + "\na,1e100,1,0,0,0,0,0,-1e100\n"
    assert load_cohort(_write(tmp_path, body))[0].y.tolist() == [-1e100]
    for cell in ("1e154", "-1e101", "nan", "inf"):
        body = HEADER + f"\na,50.0,1,0,0,0,0,0,55.0\nb,50.0,0,0,0,0,0,0,{cell}\n"
        with pytest.raises(ParseError, match="row 3.*diff_deviation"):
            load_cohort(_write(tmp_path, body))


def test_negative_count_rejected(tmp_path):
    body = HEADER + "\na,50.0,-1,0,0,0,0,0,55.0\n"
    with pytest.raises(ParseError, match="negative"):
        load_cohort(_write(tmp_path, body))


def test_column_renames_via_sidecar_config(tmp_path):
    cfg = _write(tmp_path, "proficiency = prof\ndiff_deviation = exam  # renamed\n", "schema.cfg")
    config = SchemaConfig.from_file(cfg)
    body = "id,prof,f2f,remote,basic_class,exercises,videos,references,exam\n"
    body += "a,41.0,1,0,0,0,0,0,44.0\n"
    cohort, report = load_cohort(_write(tmp_path, body), config=config)
    assert cohort.records[0].x1 == 41.0
    assert report.columns["proficiency"] == "prof"


def test_two_keys_mapped_to_one_column_rejected(tmp_path):
    cfg = _write(tmp_path, "proficiency = diff_deviation\n", "schema.cfg")
    body = HEADER + "\na,41.0,1,0,0,0,0,0,44.0\n"
    with pytest.raises(SchemaError, match="'proficiency' and 'diff_deviation' both map to"):
        load_cohort(_write(tmp_path, body), config=SchemaConfig.from_file(cfg))


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write(tmp_path, "profi = p\n", "schema.cfg")
    with pytest.raises(SchemaError, match="profi"):
        SchemaConfig.from_file(cfg)


def test_round_trip_is_identity(tmp_path):
    cohort, _ = generate(standard_biased_scenario(1389), seed=3)
    path = tmp_path / "round.csv"
    save_cohort(cohort, path)
    reloaded, report = load_cohort(path)
    assert report.n_dropped == 0
    assert reloaded.n == cohort.n == 1389
    for a, b in zip(cohort.records, reloaded.records):
        assert a == b
    # second pass: save the reloaded cohort and compare bytes
    path2 = tmp_path / "round2.csv"
    save_cohort(reloaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# --- columnar bin keys and count limits -------------------------------------

_WIDTHS = st.one_of(
    st.sampled_from([1.0, 0.5, 0.1, 2.5, 3.0, 1e-10, 1e-300]),
    st.floats(min_value=1e-300, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_COVARIATES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, -0.3, -0.5, 0.5, -1.5, 2.5, -1e-300, 1.7976931348623157e308]
    ),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(_COVARIATES, min_size=1, max_size=30), _WIDTHS)
@example([2.5, 1.7976931348623157e308], 3.0)  # finite quotient, overflowing key
def test_columnar_bin_keys_equal_bin_value_bitwise(x1s, width):
    try:
        expected = [bin_value(v, width) for v in x1s]
    except DomainError as exc:  # a quotient that is not finite has no bin
        with pytest.raises(DomainError) as got:
            helpers.cohort_from_arrays(x1s, [0] * len(x1s), [50.0] * len(x1s), precision=width)
        assert str(got.value) == str(exc)
        return
    assert all(map(math.isfinite, expected))  # a key that overflows is an error too
    cohort = helpers.cohort_from_arrays(x1s, [0] * len(x1s), [50.0] * len(x1s), precision=width)
    assert _bits(cohort.bins) == _bits(expected)  # sign of zero included
    assert _bits(group_by_covariate(cohort)) == _bits(sorted(set(expected)))


# widths whose shortest decimal has few digits, as a user types them
_DECIMAL_WIDTHS = st.builds(
    lambda digits, exponent: float(f"{digits}e{exponent}"),
    st.integers(1, 10**6),
    st.integers(-8, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 2.5, 0.05, 1e-3]) | _DECIMAL_WIDTHS,
)
@example([11.6, 25.7, -0.04, 0.05], 0.1)  # 116 * 0.1 is 11.600000000000001
def test_bin_keys_are_exact_decimals(x1s, width):
    p, q = Fraction(repr(width)).as_integer_ratio()
    cohort = helpers.cohort_from_arrays(x1s, [0] * len(x1s), [50.0] * len(x1s), precision=width)
    exact = [
        (key, oracles.exact_bin_key(x, width))
        for x, key in zip(x1s, cohort.bins.tolist())
        if abs(round(x / width) * p) < 2**53 and q < 2**53
    ]
    assert _bits(k for k, _ in exact) == _bits(e for _, e in exact)


def test_bin_key_whose_exact_product_overflows_keys_as_code_times_width():
    # the code 6.8e307 times p = 5 overflows; code * 2.5 is finite
    x = 1.7e308
    assert bin_value(x, 2.5) == round(x / 2.5) * 2.5
    assert math.isfinite(bin_value(x, 2.5))


def test_count_limit_is_int64(tmp_path):
    body = HEADER + "\na,50.0,1,0,0,9223372036854775807,0,0,55.0\n"
    cohort, _ = load_cohort(_write(tmp_path, body))
    assert cohort.aux[0, AUX_FIELDS.index("exercises")] == 2**63 - 1
    body = HEADER + "\na,50.0,1,0,0,0,0,0,55.0\nb,50.0,1,0,0,9223372036854775808,0,0,55.0\n"
    with pytest.raises(ParseError, match="row 3.*exercises"):
        load_cohort(_write(tmp_path, body))
