"""Dataset module: deviation scoring, CSV round trips, grouping, summaries."""

import csv
import json
import math
import re
import struct
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catebench import dataset
from catebench.dataset import (
    AUX_FIELDS,
    Cohort,
    GroupSummary,
    SchemaConfig,
    bin_value,
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
    # the squared deviations of these underflow unless they are scaled first
    for tiny in (1e-170, 3e-162, 5e-324):
        assert to_deviation([tiny, -tiny]) == [60.0, 40.0]
    # the mean of these is not representable unless they are scaled first
    assert to_deviation([0.0, 5e-324]) == [40.0, 60.0]


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
    # the mean of the last two rounds off their common value, so their sd is not 0
    for scores in ([3.0, 3.0, 3.0], [0.1, 0.1, 0.1], [0.7] * 7):
        with pytest.raises(ZeroVariance):
            to_deviation(scores)


@pytest.mark.parametrize(
    "scores",
    [[1.0, math.inf], [0.0, 1e300, -1e300], [1e200, -1e200], [0.0, math.nan], [1e100, 1.01e100]],
    ids=["inf", "sd_overflows", "beyond_range", "nan", "just_beyond"],
)
def test_rejects_scores_outside_the_value_rule(scores):
    # outside the range the mean or sd is not finite: the outputs would be NaN, or all 50.0
    with pytest.raises(DomainError, match=r"scores must be decimals in \[-1e\+100, 1e\+100\]"):
        to_deviation(scores)


_SCORE = st.floats(min_value=-1e100, max_value=1e100)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SCORE, min_size=2, max_size=50)
    | st.builds(lambda v, n: [v] * n, _SCORE, st.integers(2, 50))  # equal scores
)
@example([1e100, -1e100])
@example([1e100, 1e100, -1e100])
@example([0.0, 5e-324])
def test_deviation_is_finite_within_the_value_rule(scores):
    if min(scores) == max(scores):  # ZeroVariance exactly then
        with pytest.raises(ZeroVariance):
            to_deviation(scores)
        return
    assert all(map(math.isfinite, to_deviation(scores)))


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
    groups = cohort.bin_members
    assert set(groups) == {35.0, 36.0}
    assert len(groups[35.0]) == 2
    assert len(groups[36.0]) == 1


def test_single_record_single_bin():
    cohort = helpers.cohort_from_arrays([42.0], [1], [50.0])
    assert {b: rows.tolist() for b, rows in cohort.bin_members.items()} == {42.0: [0]}


def test_groups_partition_thousand_random_records():
    rng = np.random.default_rng(4)
    x1 = rng.uniform(20, 80, 1000)
    cohort = helpers.cohort_from_arrays(x1, rng.integers(0, 3, 1000), rng.normal(50, 10, 1000))
    groups = cohort.bin_members
    seen = [i for members in groups.values() for i in members]
    assert len(seen) == 1000
    assert sorted(seen) == list(range(1000))
    for b, members in groups.items():
        for i in members:
            assert bin_value(cohort.x1[i], 1.0) == b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=200), min_size=1, max_size=60),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_partition_property(x1s, precision):
    cohort = helpers.cohort_from_arrays(x1s, [0] * len(x1s), [50.0] * len(x1s), precision)
    groups = cohort.bin_members
    seen = sorted(i for members in groups.values() for i in members)
    assert seen == list(range(len(x1s)))


def test_treated_control_partition():
    cohort = helpers.cohort_from_arrays([40, 50, 60], [0, 2, 1], [45, 50, 55])
    r1, r0 = np.flatnonzero(cohort.treated).tolist(), np.flatnonzero(~cohort.treated).tolist()
    assert r1 == [1, 2]
    assert r0 == [0]
    assert set(r1) | set(r0) == {0, 1, 2}
    assert not set(r1) & set(r0)


def _one_student(x1=50.0, x2=0, y=50.0, aux=(0, 0, 0, 0, 0), precision=1.0):
    return Cohort(("a",), [x1], [x2], [y], [list(aux)], precision)


def test_record_validation():
    with pytest.raises(ValueError):
        _one_student(x1=float("nan"))
    with pytest.raises(ValueError):
        _one_student(x2=-1)
    # the loader's value rule: it rejects each of these cells
    with pytest.raises(ValueError, match="aux must hold nonnegative"):
        _one_student(aux=(0, 0, -1, 0, 0))
    for kwargs in ({"x1": 1.0000000000000002e100}, {"x1": -1e101}, {"y": 1e101}):
        with pytest.raises(ValueError, match=r"x1 and y must be decimals in \[-1e\+100, 1e\+100\]"):
            _one_student(**kwargs)
    cohort = Cohort(("a", "b"), [1e100, -1e100], [1, 0], [-1e100, 1e100], np.zeros((2, 5), int))
    assert (cohort.x1.tolist(), cohort.y.tolist()) == ([1e100, -1e100], [-1e100, 1e100])
    with pytest.raises(ValueError):
        Cohort((), [], [], [], np.zeros((0, len(AUX_FIELDS))), precision=0.0)


@pytest.mark.parametrize(
    "ids",
    [(" a",), ("a\t",), ("a\u2028",), (1,), ("a\rb",), ("a\x00",), ("a\ud800",), (b"a",)],
    ids=["lead_space", "trail_tab", "trail_u2028", "int", "cr", "nul", "surrogate", "bytes"],
)
def test_ids_outside_the_id_rule_rejected(ids):
    # each would be changed by a save and load, refused by the loader, or unwritable
    with pytest.raises(ValueError, match=re.escape(f"id {ids[0]!r} is not a UTF-8 str")):
        Cohort(("ok",) + ids, [50.0, 40.0], [1, 0], [55.0, 45.0], np.zeros((2, 5), int))


def test_ids_within_the_id_rule_accepted():
    ids = ("", "a b", "a\nb", "x\u2028y", "\u00e9", "s0")
    cohort = Cohort(ids, [50.0] * 6, [1, 0] * 3, [55.0] * 6, np.zeros((6, 5), int))
    assert cohort.ids == ids


@pytest.mark.parametrize(
    "x2, aux",
    [
        (1.5, (0, 0, 0, 0, 0)),
        (float("nan"), (0, 0, 0, 0, 0)),
        (float("inf"), (0, 0, 0, 0, 0)),
        (1e19, (0, 0, 0, 0, 0)),
        (1, (0, 0.7, 0, 0, 0)),
        (1, (0, 0, 0, 0, float("nan"))),
        (1, (float("-inf"), 0, 0, 0, 0)),
    ],
    ids=["x2_fraction", "x2_nan", "x2_inf", "x2_above_int64", "aux_fraction", "aux_nan", "aux_inf"],
)
def test_non_integer_counts_rejected(x2, aux):
    # a cast would truncate 1.5 to 1 and 0.7 to 0, and warn at NaN
    with pytest.raises(ValueError, match="whole numbers"):
        _one_student(x2=x2, aux=aux)


def test_whole_float_counts_accepted():
    cohort = Cohort(("a",), [50.0], [2.0], [1.0], np.zeros((1, len(AUX_FIELDS))))
    assert cohort.x2.dtype == cohort.aux.dtype == np.int64
    assert cohort.x2.tolist() == [2]


def test_unsigned_counts_kept_exactly(tmp_path):
    # through float64, 2**53 + 1 became 2**53 and 2**63 - 1 became 2**63, out of range
    x2 = np.array([2**53 + 1, 2**63 - 1], dtype=np.uint64)
    aux = np.array([[0, 2**53 + 1, 0, 0, 3], [1, 0, 0, 0, 0]], dtype=np.uint64)
    cohort = Cohort(("a", "b"), [50.0, 51.0], x2, [1.0, 2.0], aux)
    assert cohort.x2.dtype == cohort.aux.dtype == np.int64
    assert cohort.x2.tolist() == [2**53 + 1, 2**63 - 1]
    assert cohort.aux.tolist() == aux.tolist()
    save_cohort(cohort, tmp_path / "u.csv")
    loaded, _ = load_cohort(tmp_path / "u.csv")
    assert loaded.x2.tolist() == cohort.x2.tolist() and loaded.aux.tolist() == cohort.aux.tolist()
    with pytest.raises(ValueError, match="whole numbers, got 9223372036854775808"):
        _one_student(x2=np.array(2**63, dtype=np.uint64))


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
    assert cohort.treated[0] and cohort.x2[0] == 2
    assert np.flatnonzero(cohort.treated).tolist() == [0]


def test_missing_count_reads_as_zero(tmp_path):
    body = HEADER + "\na,50.0,,,,,,,55.0\nb,50.0,1,0,0,0,0,0,50.0\n"
    cohort, _ = load_cohort(_write(tmp_path, body))
    assert cohort.x2[0] == 0
    assert cohort.aux[0].tolist() == [0] * len(AUX_FIELDS)


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
    assert cohort.x1[0] == 41.0
    assert report.columns["proficiency"] == "prof"


def test_two_keys_mapped_to_one_column_rejected(tmp_path):
    cfg = _write(tmp_path, "proficiency = diff_deviation\n", "schema.cfg")
    body = HEADER + "\na,41.0,1,0,0,0,0,0,44.0\n"
    with pytest.raises(SchemaError, match="'proficiency' and 'diff_deviation' both map to"):
        load_cohort(_write(tmp_path, body), config=SchemaConfig.from_file(cfg))


def test_header_repeating_a_mapped_column_rejected(tmp_path):
    body = HEADER + ",proficiency\na,41.0,1,0,0,0,0,0,44.0,39.0\nb,45.0,0,0,0,0,0,0,48.0,40.0\n"
    path = _write(tmp_path, body)
    with pytest.raises(SchemaError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: column 'proficiency' appears twice in the header"
    # a repeated column that nothing maps is read past
    body = HEADER + ",note,note\na,41.0,1,0,0,0,0,0,44.0,x,y\n"
    assert load_cohort(_write(tmp_path, body))[0].n == 1


def test_config_lines_end_only_at_newlines(tmp_path):
    # str.splitlines would also break at U+2028, which the csv reader keeps in a name
    cfg = tmp_path / "schema.cfg"
    cfg.write_bytes("# renames\r\nproficiency = score\u2028x\n".encode("utf-8"))
    assert SchemaConfig.from_file(cfg).columns["proficiency"] == "score\u2028x"
    body = HEADER.replace("proficiency", "score\u2028x") + "\na,41.0,1,0,0,0,0,0,44.0\n"
    assert load_cohort(_write(tmp_path, body), config=SchemaConfig.from_file(cfg))[0].x1[0] == 41.0
    cfg.write_bytes(b"proficiency = p\x0cdiff = q\nx\n")
    with pytest.raises(SchemaError) as err:
        SchemaConfig.from_file(cfg)
    assert str(err.value) == f"{cfg}: line 2: expected 'canonical = actual'"


def test_empty_column_name_in_config_rejected(tmp_path):
    cfg = _write(tmp_path, "proficiency =\n", "schema.cfg")
    with pytest.raises(SchemaError) as err:
        SchemaConfig.from_file(cfg)
    assert str(err.value) == f"{cfg}: line 1: empty column name for 'proficiency'"


def test_empty_cohort_file_needs_a_header(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(SchemaError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: empty file, header row required"


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
    assert helpers.cohort_columns(reloaded) == helpers.cohort_columns(cohort)
    # second pass: save the reloaded cohort and compare bytes
    path2 = tmp_path / "round2.csv"
    save_cohort(reloaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# mostly within the value rule, and sometimes just past it
_ROUND_TRIP_DECIMALS = (
    st.floats(min_value=-1e100, max_value=1e100)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1e100, -1e100, 1.0000000000000002e100])
    | st.floats()
)
_ROUND_TRIP_COUNTS = st.integers(-1, 2**63 - 1) | st.sampled_from([0, 1, 2**63 - 1])
# any text, surrogates included, and ints: an id outside Cohort's id rule raises ValueError
_ROUND_TRIP_IDS = (
    st.text(max_size=6)
    | st.text(st.characters(exclude_categories=()), max_size=3)
    | st.sampled_from([" a", "a\r", "a\rb", "a\nb", "a\ud800", "a\x00", "a\u2028", "\x85a", ""])
    | st.integers()
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            _ROUND_TRIP_IDS,
            _ROUND_TRIP_DECIMALS,
            _ROUND_TRIP_COUNTS,
            _ROUND_TRIP_DECIMALS,
            st.lists(_ROUND_TRIP_COUNTS, min_size=len(AUX_FIELDS), max_size=len(AUX_FIELDS)),
        ),
        max_size=8,
    )
)
def test_every_cohort_that_constructs_loads_back_equal(rows):
    ids, x1, x2, y, aux = list(zip(*rows)) or [()] * 5
    try:
        cohort = Cohort(ids, x1, x2, y, np.array(aux, dtype=np.int64).reshape(len(ids), -1))
    except ValueError:
        return  # outside the value rule or the id rule
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        save_cohort(cohort, path)
        loaded, report = load_cohort(path)
    assert (report.n_rows, report.n_dropped) == (cohort.n, 0)
    assert loaded.ids == cohort.ids
    assert _bits(loaded.x1) == _bits(cohort.x1) and _bits(loaded.y) == _bits(cohort.y)
    assert loaded.x2.tolist() == cohort.x2.tolist()
    assert loaded.aux.tolist() == cohort.aux.tolist()


# --- the CSV writer ----------------------------------------------------------

_CSV_CELLS = {
    np.float64: st.floats() | st.sampled_from(
        [-0.0, 0.0, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072e-308, 1e100, -1e100]
    ),
    np.int64: st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, 2**63 - 1, -(2**63)]),
    str: st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\r"))
    | st.sampled_from([",", '"', "\n", 'a,"b"\nc', "Jos\u00e9", "\u5b66\u751f", "", '""']),
}


@st.composite
def _csv_tables(draw):
    """A header and its columns: float64 and int64 arrays and tuples of text."""
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(list(_CSV_CELLS)), min_size=2, max_size=4))
    header = draw(st.lists(_CSV_CELLS[str], min_size=len(kinds), max_size=len(kinds)))
    columns = []
    for kind in kinds:
        values = draw(st.lists(_CSV_CELLS[kind], min_size=n, max_size=n))
        columns.append(tuple(values) if kind is str else np.array(values, dtype=kind))
    return header, columns


@settings(max_examples=300, deadline=None)
@given(_csv_tables())
@example((["x1", "n", "id"], [
    np.array([-0.0, 0.0, math.nan, 5e-324, 1e100, -1e100, -0.0]),
    np.array([2**63 - 1, 0, 7, 7, -(2**63), 1, 0], dtype=np.int64),
    ("a,b", 'say "hi"', "two\nlines", "\u00e9l\u00e8ve", "", '""', "plain"),
]))
@example((["x1", "x2", "phi"], [np.array([50.0, 5.0]), np.array([1, 2]), np.array([math.nan, 1.5])]))
@example((["x2", "tau", "x1_bin"], [np.array([], dtype=np.int64), np.array([]), np.array([])]))
def test_write_csv_gives_the_bytes_of_the_csv_module(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        dataset.write_csv(path, header, columns)
        assert path.read_bytes() == oracles.csv_bytes(header, columns)


def _long_csv_columns():
    """A table of 3,000 rows, past the first 1,024 values that ``_cells``
    looks at: float and int columns whose prefix is distinct and whose tail
    repeats, and the other way round; a float column with NaN and -0.0 in
    both parts; and ids of which only the last needs quotes."""
    rng = np.random.default_rng(11)
    distinct, repeated = rng.normal(50.0, 10.0, 3000), np.rint(rng.normal(50.0, 10.0, 3000))
    counts, labels = rng.integers(0, 2**62, 3000), rng.integers(0, 4, 3000)
    specials = np.tile([math.nan, -0.0, 0.0, 5e-324, 1.5], 300)
    header = ["id", "distinct_first", "repeats_first", "special", "count_first", "label_first"]
    return header, [
        tuple(f"s{i}" for i in range(2999)) + ('last, "quoted"',),
        np.concatenate([distinct[:1024], repeated[1024:]]),
        np.concatenate([repeated[:1024], distinct[1024:]]),
        np.concatenate([specials[:1000], distinct[:1500], specials[:500]]),
        np.concatenate([counts[:1024], labels[1024:]]),
        np.concatenate([labels[:1024], counts[1024:]]),
    ]


def test_write_csv_of_long_columns_gives_the_bytes_of_the_csv_module(tmp_path):
    header, columns = _long_csv_columns()
    distinct = [[np.unique(part).size == part.size for part in (c[:1024], c[1024:])]
                for c in columns[1:]]
    assert distinct == [[True, False], [False, True], [False, False], [True, False], [False, True]]
    special = columns[3]
    for part in (special[:1024], special[1024:]):
        assert np.isnan(part).any() and np.signbit(part[part == 0]).any()
    path = tmp_path / "long.csv"
    dataset.write_csv(path, header, columns)
    assert path.read_bytes() == oracles.csv_bytes(header, columns)


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
    # the bin keys are checked over the whole float range on the array itself;
    # a cohort holds only covariates within its value rule
    x1 = np.array(x1s, dtype=np.float64)
    try:
        expected = [bin_value(v, width) for v in x1s]
    except DomainError as exc:  # a quotient that is not finite has no bin
        expected, message = None, str(exc)
        with pytest.raises(DomainError) as got:
            dataset._bin_keys(x1, width)
        assert str(got.value) == message
    else:
        assert all(map(math.isfinite, expected))  # a key that overflows is an error too
        assert _bits(dataset._bin_keys(x1, width)) == _bits(expected)  # sign of zero included

    def build():
        return helpers.cohort_from_arrays(x1s, [0] * len(x1s), [50.0] * len(x1s), precision=width)

    if any(abs(v) > 1e100 for v in x1s):
        with pytest.raises(ValueError, match=r"x1 and y must be decimals in \[-1e\+100, 1e\+100\]"):
            build()
    elif expected is None:
        with pytest.raises(DomainError) as got:
            build()
        assert str(got.value) == message
    else:
        cohort = build()
        assert _bits(cohort.bins) == _bits(expected)
        assert _bits(cohort.bin_members) == _bits(sorted(set(expected)))


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
    key = bin_value(x, 2.5)
    assert dataset._bin_keys(np.array([x, -x]), 2.5).tolist() == [key, -key]
    with pytest.raises(ValueError, match="x1 and y must be decimals"):  # beyond the cohort's range
        helpers.cohort_from_arrays([x], [0], [50.0], precision=2.5)


def test_count_limit_is_int64(tmp_path):
    body = HEADER + "\na,50.0,1,0,0,9223372036854775807,0,0,55.0\n"
    cohort, _ = load_cohort(_write(tmp_path, body))
    assert cohort.aux[0, AUX_FIELDS.index("exercises")] == 2**63 - 1
    body = HEADER + "\na,50.0,1,0,0,0,0,0,55.0\nb,50.0,1,0,0,9223372036854775808,0,0,55.0\n"
    with pytest.raises(ParseError, match="row 3.*exercises"):
        load_cohort(_write(tmp_path, body))


@pytest.mark.parametrize("chunk", [1, dataset._CHUNK_ROWS])
@pytest.mark.parametrize(
    "cell", ['"a\rb"', '"a\x00b"', "a\x00b"], ids=["cr", "nul", "nul-unquoted"]
)
def test_quoted_id_with_carriage_return_or_nul_names_row_and_column(tmp_path, cell, chunk):
    # the loader never builds a cohort that Cohort's id rule refuses; a file
    # with a NUL goes through the csv reader, quoted or not
    bad = cell.strip('"')
    body = HEADER + "\na,50.0,1,0,0,0,0,0,55.0\n" + cell + ",45.0,0,0,0,0,0,0,48.0\n"
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk), pytest.raises(ParseError) as exc:
        load_cohort(_write(tmp_path, body))
    if "\x00" in bad and sys.version_info < (3, 11):
        assert "row 3: line contains NUL" in str(exc.value)  # the csv reader refuses NUL here
    else:
        assert f"row 3, column 'id': an id may not hold '\\r' or NUL: {bad!r}" in str(exc.value)


# --- the column-wise loader against the per-cell oracle -------------------------

# twelve valid rows: both arms, an empty count, padded cells, distinct decimals
_DIFF_ROWS = tuple(
    (f"s{i}", repr(40.0 + 1.5 * i), str(i % 4), " 0", "" if i % 5 == 0 else str(i % 3),
     "1", "0", "0", f" {45 + i}.25")
    for i in range(12)
)
# "a\x85b" and "a\u2028b" go unquoted, and end a line for str.splitlines but
# not for csv: the loader must not split records there
_DIFF_CELLS = st.sampled_from(
    ["", " ", "1_000", "+5", "٣", "nan", "inf", "1e101", "-1", str(2**63), "abc", "x\ry",
     "a\x85b", "a\u2028b"]
)
# rows inserted whole: blank (as [], spaces, all-empty fields, or one comma,
# which misaligns its chunk's split), ragged, and quoted cells that span lines
_DIFF_INSERTS = st.sampled_from([
    [], [" "], [""] * 9, [" "] * 9, ["", ""],
    ["r", "50.0", "1", "0", "0", "0", "0", "0"],
    ["r", "50.0", "1", "0", "0", "0", "0", "0", "55.0", "0"],
    ["line\nbreak", "50.0", "1", "0", "0", "0", "0", "0", "55.0"],
    ["r", "50.0\n", "1", "0", "0", "0", "0", "0", "55.0"],
    ["r", "5\n0", "1", "0", "0", "0", "0", "0", "55.0"],
])


def _load_both(path, **kwargs):
    """Each loader's result, or its exception's class and message."""
    results = []
    for loader in (load_cohort, oracles.load_cohort_rows):
        try:
            results.append(loader(path, **kwargs))
        except (ParseError, SchemaError) as exc:
            results.append((type(exc), str(exc)))
    return results


def _assert_same_load(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    (cohort, report), (ref, ref_report) = got, want
    assert report == ref_report
    assert cohort.ids == ref.ids
    for name in ("x1", "x2", "y", "aux", "bins"):
        column, ref_column = getattr(cohort, name), getattr(ref, name)
        assert column.dtype == ref_column.dtype and column.shape == ref_column.shape, name
        assert column.tobytes() == ref_column.tobytes(), name


# the header, canonical or permuted with one unmapped column: each column's
# position in the file (None for the extra, which holds a note)
_LAYOUTS = {
    "canonical": tuple(range(9)),
    "permuted": (8, 3, 0, None, 5, 1, 7, 2, 6, 4),
}


def _laid_out(row, layout):
    """A row of the nine canonical cells in the file's column order; any other
    row (blank or ragged) as it is."""
    if len(row) != 9 or layout == "canonical":
        return row
    return ["note" if k is None else row[k] for k in _LAYOUTS[layout]]


_CLEAN = dict(edits=[], inserts=[], chunk=2, line_end="\n", layout="canonical")


@settings(max_examples=300, deadline=None)
@example(n_rows=6, **{**_CLEAN, "edits": [(3, 5, "-1")]})
@example(n_rows=6, **{**_CLEAN, "edits": [(4, 2, str(2**63)), (4, 8, "")]})
@example(n_rows=6, **{**_CLEAN, "edits": [(2, 1, "1_000"), (3, 4, "+5"), (4, 6, "٣")]})
@example(n_rows=6, **{**_CLEAN, "inserts": [(2, [" "] * 9), (4, ["r", "5\n0"])]})
@example(n_rows=6, **{**_CLEAN, "edits": [(3, 0, "x\ry")], "line_end": "\r\n"})  # a quoted id
# a bad cell past a chunk's valid first row: only the one-row check's message shows
@example(n_rows=6, **{**_CLEAN, "chunk": 5, "edits": [(3, 8, "1e101")]})
@example(n_rows=6, **{**_CLEAN, "chunk": 5, "edits": [(3, 1, "abc")]})
@example(n_rows=6, **{**_CLEAN, "chunk": 5, "edits": [(3, 2, "x")]})
@example(n_rows=6, **{**_CLEAN, "chunk": 5, "edits": [(3, 7, str(2**63))]})
# the earlier row wins, though its bad column comes later in check order
@example(n_rows=6, **{**_CLEAN, "chunk": 5, "edits": [(2, 5, "-1"), (3, 0, "x\ry")],
                      "line_end": "\r\n"})
# the file's only '"' is in its last row, so the whole file goes through csv
@example(n_rows=6, **{**_CLEAN, "edits": [(1, 5, "-1"), (5, 0, 'say "hi"')]})
# lines ended by a lone "\r"; and an unquoted "x\ry", whose "\r" ends a record
@example(n_rows=6, **{**_CLEAN, "line_end": "\r", "layout": "permuted"})
@example(n_rows=6, **{**_CLEAN, "edits": [(2, 0, "x\ry")], "layout": "permuted"})
@example(n_rows=6, **{**_CLEAN, "chunk": 3, "inserts": [(4, ["", ""])], "layout": "permuted"})
# a line of one field too many, then one of one too few: the chunk's comma count
# is right, and the second line read one cell late would break no cell rule
@example(n_rows=6, **{**_CLEAN, "chunk": 5, "inserts": [
    (3, ["45.0", "1", "0", "0", "0", "0", "0", "50.0"]),
    (3, ["r", "50.0", "1", "0", "0", "0", "0", "0", "55.0", "0"]),
]})
@given(
    n_rows=st.integers(0, len(_DIFF_ROWS)),
    edits=st.lists(
        st.tuples(st.integers(0, len(_DIFF_ROWS) - 1), st.integers(0, 8), _DIFF_CELLS), max_size=3
    ),
    inserts=st.lists(st.tuples(st.integers(0, len(_DIFF_ROWS)), _DIFF_INSERTS), max_size=3),
    chunk=st.sampled_from([1, 2, 3, 5, dataset._CHUNK_ROWS]),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    layout=st.sampled_from(list(_LAYOUTS)),
)
def test_column_loader_matches_per_cell_oracle(n_rows, edits, inserts, chunk, line_end, layout):
    rows = [list(row) for row in _DIFF_ROWS[:n_rows]]
    for r, c, value in edits:
        if r < n_rows:
            rows[r][c] = value
    for position, row in sorted(inserts, key=lambda item: -item[0]):
        rows.insert(min(position, len(rows)), row)
    header = ["extra" if k is None else HEADER.split(",")[k] for k in _LAYOUTS[layout]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator=line_end)
            writer.writerow(header)
            writer.writerows(_laid_out(row, layout) for row in rows)
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk):
            got, want = _load_both(path)
    _assert_same_load(got, want)


def _cohort_rows(n):
    return [f"s{i},{40 + i % 30}.5,{i % 3},0,,1,0,0,{50 + i % 17}.25" for i in range(n)]


def _second_chunk_file(tmp_path, edits):
    """A file of two full chunks plus ten rows; ``edits`` maps a 0-based data row
    to the line that replaces it (file row number = index + 2)."""
    rows = _cohort_rows(2 * dataset._CHUNK_ROWS + 10)
    for index, line in edits.items():
        rows[index] = line
    return _write(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")


def test_blank_and_dropped_rows_in_a_later_chunk(tmp_path):
    second = dataset._CHUNK_ROWS + 7
    edits = {second: "", second + 1: " , ,", second + 2: "d,,1,0,0,0,0,0,50.0"}
    path = _second_chunk_file(tmp_path, edits)
    got, want = _load_both(path)
    _assert_same_load(got, want)
    cohort, report = got
    assert (report.n_rows, report.n_dropped) == (2 * dataset._CHUNK_ROWS + 8, 1)
    assert cohort.n == 2 * dataset._CHUNK_ROWS + 7


def test_loading_50000_rows_holds_no_second_copy_of_the_text(tmp_path):
    # csv.reader over the whole file peaked at 15.13 MB under tracemalloc on this
    # 2.1 MB file (Python 3.11, numpy 2.4); the bound is that plus 10 %. Holding
    # the decoded text while parsing adds 2.1 MB, and a StringIO copy more
    cohort, _ = generate(standard_biased_scenario(50_000), seed=1)
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path)
    del cohort
    tracemalloc.start()
    try:
        loaded, _ = load_cohort(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.n == 50_000
    assert peak <= 16_640_000


def test_bad_cell_in_a_later_chunk_names_its_row(tmp_path):
    # row numbers count the blank record in the first chunk
    bad = dataset._CHUNK_ROWS + 7
    path = _second_chunk_file(tmp_path, {3: "", bad: "b,50.0,x,0,0,0,0,0,55.0"})
    got, want = _load_both(path)
    message = f"{path}: row {bad + 2}, column 'f2f': not an integer count: 'x'"
    assert got == want == (ParseError, message)


def test_bad_cell_before_a_ragged_row_in_one_chunk_is_reported_first(tmp_path):
    path = _second_chunk_file(tmp_path, {3: "b,50.0,1,0,0,0,0,0,abc", 12: "r,50.0,1"})
    got, want = _load_both(path)
    message = f"{path}: row 5, column 'diff_deviation': not a number: 'abc'"
    assert got == want == (ParseError, message)


def test_ragged_row_before_a_bad_cell_in_one_chunk_is_reported_first(tmp_path):
    path = _second_chunk_file(tmp_path, {3: "r,50.0,1", 12: "b,50.0,-1,0,0,0,0,0,55.0"})
    got, want = _load_both(path)
    assert got == want == (ParseError, f"{path}: row 5: expected 9 fields, got 3")


def test_bad_cell_before_an_unreadable_record_is_reported_first(tmp_path):
    # csv refuses a field above its size limit; the bad cell two rows earlier wins
    huge = "r," + "1" * (csv.field_size_limit() + 1) + ",1,0,0,0,0,0,55.0"
    path = _second_chunk_file(tmp_path, {3: "b,50.0,1,0,0,0,0,0,abc", 5: huge})
    got, want = _load_both(path)
    message = f"{path}: row 5, column 'diff_deviation': not a number: 'abc'"
    assert got == want == (ParseError, message)


def test_oversized_field_in_a_later_chunk_names_its_row(tmp_path):
    # row numbers count the blank record in the first chunk
    limit = csv.field_size_limit()
    bad = dataset._CHUNK_ROWS + 7
    huge = "r," + "1" * (limit + 1) + ",1,0,0,0,0,0,55.0"
    path = _second_chunk_file(tmp_path, {3: "", bad: huge})
    message = f"{path}: row {bad + 2}: field larger than field limit ({limit})"
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    assert str(err.value) == message


def test_oversized_header_field_is_row_1(tmp_path):
    limit = csv.field_size_limit()
    path = _write(tmp_path, "x" * (limit + 1) + "," + HEADER + "\n")
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: row 1: field larger than field limit ({limit})"


def test_non_utf8_byte_names_its_physical_line(tmp_path):
    path = tmp_path / "latin1.csv"
    body = HEADER + "\na,50,1,0,0,0,0,0,55\nb,45,0,0,0,0,0,0,48\nJos\xe9,52,1,0,0,0,0,0,51\n"
    path.write_bytes(body.encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: line 4: byte 0xe9 is not UTF-8 (invalid continuation byte)"


def test_non_utf8_byte_after_carriage_returns_names_its_physical_line(tmp_path):
    # a lone \r ends a record for the csv reader, and a line for the decode error
    path = tmp_path / "cr.csv"
    body = HEADER + "\ra,50,1,0,0,0,0,0,55\rJos\xe9,52,1,0,0,0,0,0,51\r"
    path.write_bytes(body.encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"
    path.write_bytes(body.replace("Jos\xe9,52,1", "Jose,52,-1").encode())
    with pytest.raises(ParseError, match="row 3, column 'f2f'"):  # the same record, by row
        load_cohort(path)


def test_non_utf8_byte_in_a_later_chunk_names_its_physical_line(tmp_path):
    # the text layer decodes 8 KB ahead of the csv reader, and a quoted id
    # spans two lines, so neither the chunk's first row nor the bad record's
    # row number is the line
    rows = _cohort_rows(2 * dataset._CHUNK_ROWS + 10)
    bad = dataset._CHUNK_ROWS + 7
    rows[3] = '"two\nlines",50,1,0,0,0,0,0,55'
    rows[bad] = "Jos\xe9,52,1,0,0,0,0,0,51"
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "\n" + "\n".join(rows) + "\n").encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: line {bad + 3}: byte 0xe9 is not UTF-8 (invalid continuation byte)"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_deep_in_a_cohort_names_its_line(tmp_path, end):
    # line 3,212 of 5,001 lies far past the text layer's first decode block
    rows = _cohort_rows(5000)
    rows[3210] = "Jos\xe9,52,1,0,0,0,0,0,51"
    path = tmp_path / "latin1.csv"
    path.write_bytes(end.join([HEADER, *rows, ""]).encode("latin-1"))
    assert path.stat().st_size > 64 * 1024
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    assert str(err.value) == f"{path}: line 3212: byte 0xe9 is not UTF-8 (invalid continuation byte)"


@pytest.mark.parametrize("bad_row", [5, 2000], ids=["near", "far"])
def test_non_utf8_byte_wins_over_an_earlier_bad_cell(tmp_path, bad_row):
    # the bytes are checked whole before any row, so the text layer's 8 KB
    # read-ahead cannot decide which error shows
    rows = _cohort_rows(3000)
    rows[2] = "c,52,x,0,0,0,0,0,51"
    rows[bad_row - 1] = "Jos\xe9,52,1,0,0,0,0,0,51"
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "\n" + "\n".join(rows) + "\n").encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_cohort(path)
    line = bad_row + 1
    assert str(err.value) == f"{path}: line {line}: byte 0xe9 is not UTF-8 (invalid continuation byte)"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_deep_in_a_schema_config_names_its_line(tmp_path, end):
    lines = [f"# padding comment {i:04d} of a long schema config" for i in range(400)]
    lines[300] = "# caf\xe9"
    lines.append("proficiency = score")
    path = tmp_path / "latin1.cfg"
    path.write_bytes(end.join([*lines, ""]).encode("latin-1"))
    assert path.stat().st_size > 8 * 1024
    with pytest.raises(ParseError) as err:
        SchemaConfig.from_file(path)
    assert str(err.value) == f"{path}: line 301: byte 0xe9 is not UTF-8 (invalid continuation byte)"


# --- the JSON writer -------------------------------------------------------------

_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@example(payload={"y0": [1.5, float("nan"), -0.0], "empty": [], "treated": [1, 0, True]})
@example(payload={1: [1.0, 2.0], "1": "a"})
@example(payload=[[1.0], {"a": [2]}])
@given(
    payload=st.one_of(
        st.dictionaries(st.text(max_size=3), _JSON_VALUE, max_size=5),
        st.dictionaries(
            st.one_of(st.text(max_size=3), st.integers(), st.booleans()), _JSON_VALUE, max_size=3
        ),
        _JSON_VALUE,
    )
)
def test_write_json_bytes_are_those_of_indent_two(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        dataset.write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _json_arrays():
    """Numeric arrays as the truth file holds them, and the edge values of each
    dtype, at lengths below and past the 1,024 values ``_cells`` looks at,
    with a distinct or a repeating prefix."""
    rng = np.random.default_rng(3)
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-320, 1e-310, 1e100, -1e100, 1.5,
                         math.nan, math.inf, -math.inf])
    distinct, repeated = rng.normal(50.0, 10.0, 3000), np.rint(rng.normal(50.0, 10.0, 3000))
    return {
        "specials": specials,
        "int_edges": np.array([0, 2**63 - 1, -(2**63 - 1), 0, 7], dtype=np.int64),
        "treated": (distinct > 52.0).astype(int),
        "empty_float": np.array([]),
        "empty_int": np.array([], dtype=np.int64),
        "short_distinct": distinct[:100],
        "short_repeats": repeated[:100],
        "distinct": distinct,
        "distinct_then_repeats": np.concatenate([distinct[:1024], repeated[1024:]]),
        "repeats_then_distinct": np.concatenate([repeated[:1024], distinct[1024:]]),
        "distinct_then_specials": np.concatenate([distinct, specials]),
        "specials_then_distinct": np.concatenate([np.tile(specials, 100), distinct]),
        "int_distinct": rng.integers(-(2**63 - 1), 2**63 - 1, 2000),
        "int_repeats": rng.integers(0, 15, 2000),
    }


@pytest.mark.parametrize("name", sorted(_json_arrays()))
def test_write_json_writes_numpy_arrays_as_their_lists(tmp_path, name):
    array = _json_arrays()[name]
    payload = {"true_ate": 3.0, name: array, "n": [1, 2], "scenario": {"n": array.size}}
    path = tmp_path / "out.json"
    dataset.write_json(path, payload)
    listed = {key: value.tolist() if isinstance(value, np.ndarray) else value
              for key, value in payload.items()}
    assert path.read_bytes() == (json.dumps(listed, indent=2) + "\n").encode("utf-8")
