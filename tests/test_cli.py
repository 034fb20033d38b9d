"""Command-line surface: outputs, exit codes, determinism, seed precedence."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catebench import cli, errors, treatcount
from catebench.cli import main
from catebench.forest import export_tree, fit_tree
from catebench.synth import MAX_DOSE, MAX_N
from catebench.treatcount import REFERENCE_DOSES

HEADER = "id,proficiency,f2f,remote,basic_class,exercises,videos,references,diff_deviation"

SCENARIO_CFG = "preset = standard_biased\nn = 400\n"


@pytest.fixture()
def synth_csv(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG, encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "5", "--quiet"]) == 0
    return out / "cohort.csv"


def _read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# --- synth -------------------------------------------------------------------


def test_synth_writes_cohort_and_truth(tmp_path, synth_csv):
    assert synth_csv.exists()
    truth = synth_csv.with_name("cohort.truth.json")
    payload = json.loads(truth.read_text())
    assert payload["scenario"]["n"] == 400
    with synth_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == HEADER.split(",")
    assert len(rows) == 401


def test_synth_same_seed_identical_files(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG, encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "9", "--quiet"]) == 0
    assert _read_all(out1) == _read_all(out2)
    out3 = tmp_path / "c"
    assert main(["synth", "--config", str(cfg), "--out", str(out3), "--seed", "10", "--quiet"]) == 0
    assert _read_all(out1) != _read_all(out3)


def test_synth_invalid_scenario_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 0\n", encoding="utf-8")
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "'n'" in capsys.readouterr().err


def test_synth_without_config_exit_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: synth requires --config with a scenario file\n"


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": 10, "selection": {"bogus": 1}}', "selection.bogus"),
        ('{"n": "abc"}', "n"),
        ('{"n": 10, "selection": [1, 2]}', "selection"),
        ('{"n": 10, "dose": {"p": "x"}}', "dose.p"),
        ('{"n": 10.5}', "n"),
        ('{"n": true}', "n"),
        pytest.param('{"n": 10, "x1_mean": 1' + "0" * 400 + "}", "x1_mean", id="int-beyond-float"),
        ('{"n": 10, "preset": ["standard_biased"]}', "preset"),
        ("n = 10\nx1_sd = nan\n", "x1_sd"),
        ("n = 10\nnoise_sd = inf\n", "noise_sd"),
        ("n = 10\nmu0_kind = linear_x1\nmu0_b = 1e307\n", "mu0_true"),
        ("n = 10\nselection_slope = nan\n", "selection.slope"),
        ('{"n": 1e30}', "n"),
        (f'{{"n": {MAX_N + 1}}}', "n"),
        (f"n = 10\ndose_max = {MAX_DOSE + 1}\n", "dose.max_dose"),
        ("n = 10\ndose_max = 1000000000000000000000000000000\n", "dose.max_dose"),
        # each effect is finite, but y1 is outside the cohort's [-1e100, 1e100]
        ("n = 100\neffect_a = 1e307\n", "effect_true"),
        # every draw is finite, but summarize would refuse the saved cohort
        ("n = 10\nmu0_kind = linear_x1\nmu0_b = 1e99\n", "mu0_true"),
        ("n = 100\neffect_a = 1e101\n", "effect_true"),
        ("n = 100\nnoise_sd = 1e101\n", "noise_sd"),
    ],
)
def test_synth_malformed_scenario_exit_2(tmp_path, capsys, text, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid scenario field '{field}'")
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "cohort.csv").exists()
    assert not (tmp_path / "o" / "cohort.truth.json").exists()


def test_synth_reads_boolean_text_in_json(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"n": 10, "round_x1": "no"}', encoding="utf-8")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "o" / "cohort.truth.json").read_text())
    assert payload["scenario"]["round_x1"] is False


# integers stay within +-1000 and texts are fixed: n and dose.max_dose size arrays
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats()
    | st.sampled_from([1e307, -1e307])
    | st.sampled_from(["", "abc", "nan", "-inf", "1e307", "yes", "no", "0", "12", "2.5", "uniform"])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abnpx", max_size=3), inner, max_size=3),
    max_leaves=6,
)
# n is always given, so no preset's own n (up to 20000) is drawn: at most 200, or not an int
_N = st.integers(-2, 200) | _SCALARS.filter(lambda v: not isinstance(v, int) or isinstance(v, bool))
_SECTION_FIELDS = {
    "selection": ("intercept", "slope", "center", "bogus"),
    "dose": ("p", "max_dose", "x1_slope", "x1_ref", "kind"),
    "mu0_true": ("kind", "a", "b"),
    "effect_true": ("kind", "a", "b"),
}
_SECTIONS = {
    name: st.dictionaries(st.sampled_from(keys), _VALUES, max_size=len(keys)) | _VALUES
    for name, keys in _SECTION_FIELDS.items()
}
_PRESETS = st.sampled_from(["standard_biased", "dose_recovery", "biased_dose", "bogus"])
_JSON_CONFIGS = st.fixed_dictionaries(
    {"n": _N},
    optional={
        "preset": _PRESETS | _VALUES,
        **{key: _VALUES for key in ("x1_mean", "x1_sd", "round_x1", "noise_sd", "bogus")},
        **_SECTIONS,
    },
).map(json.dumps)
_FLAT_KEYS = (
    "x1_mean", "x1_sd", "round_x1", "noise_sd", "selection_intercept", "selection_slope",
    "selection_center", "dose_kind", "dose_p", "dose_max", "dose_x1_slope", "dose_x1_ref",
    "mu0_kind", "mu0_a", "mu0_b", "effect_kind", "effect_a", "effect_b", "dose", "mu0_true_a",
)


def _flat_text(pairs) -> str:
    return "".join(
        f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
        for key, value in pairs.items()
    )


_FLAT_CONFIGS = st.fixed_dictionaries(
    {"n": _N},
    optional={"preset": _PRESETS, **{key: _SCALARS | _PRESETS for key in _FLAT_KEYS}},
).map(_flat_text)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_JSON_CONFIGS | _FLAT_CONFIGS)
def test_synth_any_scenario_config_exits_0_or_2(tmp_path, capsys, text):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err


# --- summarize ---------------------------------------------------------------


def test_summarize_outputs(tmp_path, synth_csv):
    out = tmp_path / "sum"
    assert main(["summarize", "--input", str(synth_csv), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["n"] == 400
    assert payload["n_treated"] + payload["n_control"] == 400
    text = (out / "summary.txt").read_text()
    assert "naive treated-minus-control outcome gap" in text


def test_summarize_biased_cohort_shows_inversion(tmp_path, synth_csv):
    out = tmp_path / "sum"
    main(["summarize", "--input", str(synth_csv), "--out", str(out), "--quiet"])
    payload = json.loads((out / "summary.json").read_text())
    assert payload["mean_y_treated"] < payload["mean_y_control"]


def test_summarize_missing_column_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,proficiency,f2f\na,50,0\n", encoding="utf-8")
    code = main(["summarize", "--input", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "diff_deviation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "cate", "tree"])
def test_header_repeating_a_mapped_column_exit_2(tmp_path, capsys, command):
    path = tmp_path / "twice.csv"
    body = HEADER + ",proficiency\nt,50,1,0,0,0,0,0,52,60\nc,40,0,0,0,0,0,0,45,30\n"
    path.write_text(body, encoding="utf-8")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: column 'proficiency' appears twice in the header" in err
    assert "Traceback" not in err


def test_missing_input_file_exit_2(tmp_path):
    code = main(["summarize", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2


@pytest.mark.parametrize("command", ["summarize", "tree", "dose-reg"])
def test_header_only_csv_exit_2(tmp_path, capsys, command):
    path = tmp_path / "header.csv"
    path.write_text(HEADER + "\n", encoding="utf-8")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "cate", "phi", "tree", "dose-reg"])
def test_count_beyond_int64_exit_2(tmp_path, capsys, command):
    path = tmp_path / "huge.csv"
    body = HEADER + "\nt,50,1,0,0,0,0,0,52\nc,40,0,0,0,99999999999999999999,0,0,45\n"
    path.write_text(body, encoding="utf-8")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "row 3, column 'exercises'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["summarize", "cate", "phi", "tree", "dose-reg"])
def test_field_above_csv_size_limit_exit_2(tmp_path, capsys, command):
    path = tmp_path / "wide.csv"
    body = HEADER + "\nt,50,1,0,0,0,0,0,52\nc," + "5" * 140_000 + ",0,0,0,0,0,0,45\n"
    path.write_text(body, encoding="utf-8")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "row 3: field larger than field limit" in err
    assert "Traceback" not in err


def test_directory_input_exit_2(tmp_path, capsys):
    assert main(["summarize", "--input", str(tmp_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "\nJos\xe9,50,1,0,0,0,0,0,52\n").encode("latin-1"))
    assert main(["summarize", "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "cate", "phi", "tree", "dose-reg"])
def test_non_utf8_record_exit_2_naming_path_and_line(tmp_path, capsys, command):
    path = tmp_path / "latin1.csv"
    body = HEADER + "\nt,50,1,0,0,0,0,0,52\nc,45,0,0,0,0,0,0,48\nJos\xe9,52,1,0,0,0,0,0,51\n"
    path.write_bytes(body.encode("latin-1"))
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 4: byte 0xe9 is not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["one", "two"])
@pytest.mark.parametrize("role", ["input", "config"])
def test_truncated_byte_order_mark_exit_2_naming_line_1(tmp_path, capsys, synth_csv, role, data):
    path = tmp_path / "bom"
    path.write_bytes(data)
    inputs = {"input": synth_csv, "config": None}
    inputs[role] = path
    args = ["summarize", "--input", str(inputs["input"]), "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args + (["--config", str(path)] if role == "config" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 1: byte 0xef is not UTF-8 (unexpected end of data)")


@pytest.mark.parametrize(
    "command, text",
    [
        ("summarize", "# renames\nproficiency = pr\xe9\n"),
        ("synth", "preset = standard_biased\n# caf\xe9\nn = 100\n"),
        ("synth", '{"preset": "standard_biased",\n "n": 100, "id": "\xe9"}\n'),
        # a lone \r ends line 1 for the config reader, so the decode error counts it too
        ("summarize", "proficiency = p\rq = \xe9\n"),
        ("synth", "preset = standard_biased\rn = \xe9\n"),
    ],
    ids=["schema", "scenario", "scenario_json", "schema_cr", "scenario_cr"],
)
def test_non_utf8_config_exit_2_naming_path_and_line(tmp_path, capsys, synth_csv, command, text):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(text.encode("latin-1"))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args + (["--input", str(synth_csv)] if command == "summarize" else [])) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: line 2: byte 0xe9 is not UTF-8" in err
    assert "Traceback" not in err


# config pieces: lines both readers accept, line breaks of every kind
# (str.splitlines also breaks at \x0c, \x85 and U+2028), and odd bytes: a BOM,
# NUL, and bytes that are not UTF-8 (a lone \x85, \xe9, a truncated sequence)
_CONFIG_TEXT = st.sampled_from([
    b"\n", b"\r\n", b"\r", b"\x0c", "\x85".encode(), "\u2028".encode(), b" # note", b"=", b" ",
    b"preset = standard_biased", b"n = 50", b"noise_sd = 2.5", b"proficiency = score",
    b"diff_deviation = proficiency", b"id = id", b"{", b'"n": 50}',
])
_CONFIG_ODD = st.sampled_from([b"\xef\xbb\xbf", b"\x00", b"\x85", b"\xe9", b"\xe2\x80"])


def _config_bytes(pieces, odd):
    for position, piece in sorted(odd, reverse=True):
        pieces.insert(min(position, len(pieces)), piece)
    return b"".join(pieces)


_CONFIG_BYTES = st.builds(
    _config_bytes,
    st.lists(_CONFIG_TEXT, max_size=16),
    st.lists(st.tuples(st.integers(0, 16), _CONFIG_ODD | st.binary(max_size=3)), max_size=2),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CONFIG_BYTES)
@pytest.mark.parametrize("command", ["summarize", "synth"], ids=["schema", "scenario"])
def test_any_config_bytes_exit_0_or_2(tmp_path, capsys, synth_csv, command, data):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_bytes(data)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    code = main(args + (["--input", str(synth_csv)] if command == "summarize" else []))
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the physical line of the first bad byte: lines end at \n, \r\n or a lone \r
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        byte = data[exc.start]
        assert err == f"error: {cfg}: line {line}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})\n"


def test_byte_order_mark_is_skipped_in_csv_and_config(tmp_path, synth_csv):
    text = synth_csv.read_text(encoding="utf-8").replace("proficiency", "placement", 1)
    cfg_text = "proficiency = placement\n"
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        csv_path = tmp_path / f"{encoding}.csv"
        cfg_path = tmp_path / f"{encoding}.cfg"
        csv_path.write_text(text, encoding=encoding)
        cfg_path.write_text(cfg_text, encoding=encoding)
        out = tmp_path / f"out-{encoding}"
        args = ["summarize", "--input", str(csv_path), "--config", str(cfg_path), "--out", str(out)]
        assert main(args + ["--quiet"]) == 0
        outputs.append(_read_all(out))
    assert csv_path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--depth", "0"),
        ("--trees", "0"),
        ("--jobs", "-3"),
        ("--depth", "two"),
        ("--bin", "0"),
        ("--bin", "-1"),
        ("--bin", "nan"),
        ("--bin", "inf"),
    ],
)
def test_invalid_flag_exit_2_without_traceback(tmp_path, synth_csv, capsys, flag, value):
    args = ["cate", "--input", str(synth_csv), "--out", str(tmp_path / "o"), "--trees", "4"]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value, "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err


def test_bin_flag_that_is_not_a_number_exit_2(tmp_path, synth_csv, capsys):
    args = ["summarize", "--input", str(synth_csv), "--out", str(tmp_path / "o"), "--bin", "abc"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "argument --bin: expected a number, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "cate"])
def test_bin_width_too_small_for_covariate_exit_2(tmp_path, capsys, command):
    # 50 / 1e-308 overflows to inf, which has no bin
    path = tmp_path / "two.csv"
    path.write_text(HEADER + "\nt,50,1,0,0,0,0,0,52\nc,40,0,0,0,0,0,0,45\n", encoding="utf-8")
    args = [command, "--input", str(path), "--out", str(tmp_path / "o"), "--bin", "1e-308"]
    assert main(args + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bin width" in err
    assert "Traceback" not in err


# --- cate ----------------------------------------------------------------


def test_cate_outputs_and_determinism(tmp_path, synth_csv):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    args = ["cate", "--input", str(synth_csv), "--seed", "3", "--trees", "20", "--quiet"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read_all(out1) == _read_all(out2)
    payload = json.loads((out1 / "summary.json").read_text())
    for key in ("ate", "att", "atu", "n", "n_treated", "n_control", "seed"):
        assert key in payload
    assert payload["seed"] == 3
    with (out1 / "effect_report.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "mu0", "mu1", "tau"]
    assert len(rows) > 1


def test_cate_empty_treated_arm_exit_3(tmp_path):
    body = HEADER + "\n"
    for i in range(6):
        body += f"s{i},5{i}.0,0,0,0,0,0,0,50.0\n"
    path = tmp_path / "controls.csv"
    path.write_text(body, encoding="utf-8")
    assert main(["cate", "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 3


def test_identical_arm_fixture_zero_tau(tmp_path):
    body = HEADER + "\n"
    for i, (x1, y) in enumerate([(40.0, 45.0), (50.0, 52.0), (60.0, 58.0)]):
        body += f"t{i},{x1},1,0,0,0,0,0,{y}\n"
        body += f"c{i},{x1},0,0,0,0,0,0,{y}\n"
    path = tmp_path / "mirror.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "o"
    # both arms draw the same bootstrap streams, so identical arm rows give
    # identical forests and an exactly zero effect column
    assert main(["cate", "--input", str(path), "--out", str(out), "--trees", "8", "--quiet"]) == 0
    with (out / "effect_report.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(float(r[3]) == 0.0 for r in rows)


def _strict_json(path):
    """The file's JSON, refusing the NaN and Infinity that json writes by default."""

    def refuse(name):
        raise ValueError(f"{path.name} holds {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_cate_adjacent_float_covariates_give_finite_effects(tmp_path):
    # 50.0 and the next float up: their midpoint rounds onto 50.0, so a
    # midpoint threshold would leave one child empty, with a NaN mean
    body = HEADER + "\n"
    treated = [("50", 60.0), ("50.00000000000001", 61.0), ("42", 40.0)]
    controls = [("49", 45.0), ("41", 46.0)]
    for i in range(30):
        x1, y = treated[i % 3]
        body += f"t{i},{x1},1,0,0,0,0,0,{y}\n"
    for i in range(30):
        x1, y = controls[i % 2]
        body += f"c{i},{x1},0,0,0,0,0,0,{y}\n"
    path = tmp_path / "adjacent.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "o"
    args = ["cate", "--input", str(path), "--out", str(out), "--seed", "1", "--trees", "3", "--quiet"]
    assert main(args) == 0
    summary = _strict_json(out / "summary.json")
    assert all(math.isfinite(summary[key]) for key in ("ate", "att", "atu"))
    assert "nan" not in (out / "effect_report.csv").read_text().lower()


# --- phi -----------------------------------------------------------------


def test_phi_outputs_default_grid_and_att2(tmp_path, synth_csv):
    out = tmp_path / "phi"
    assert main(
        ["phi", "--input", str(synth_csv), "--out", str(out), "--seed", "3", "--trees", "20", "--quiet"]
    ) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["independence"]["n_violations"] == 0
    assert set(REFERENCE_DOSES) <= set(payload["x2_values"])
    matrix = json.loads((out / "phi_matrix.json").read_text())
    assert matrix["x2_values"] == payload["x2_values"]
    assert len(matrix["phi"]) == len(matrix["x1_values"])

    # att2 equals att from an aligned cate run
    out_cate = tmp_path / "cate"
    assert main(
        ["cate", "--input", str(synth_csv), "--out", str(out_cate), "--seed", "3", "--trees", "20", "--quiet"]
    ) == 0
    att = json.loads((out_cate / "summary.json").read_text())["att"]
    assert abs(payload["att2"] - att) <= 1e-9


def test_cate_and_phi_summaries_share_the_fit_block(tmp_path, synth_csv):
    summaries = {}
    for command in ("cate", "phi"):
        out = tmp_path / command
        assert main([command, "--input", str(synth_csv), "--out", str(out), "--seed", "4",
                     "--depth", "3", "--trees", "7", "--quiet"]) == 0
        summaries[command] = json.loads((out / "summary.json").read_text())
    shared = ["n", "n_treated", "n_control", "seed"]
    cate, phi = summaries["cate"], summaries["phi"]
    assert [cate[key] for key in shared + ["params"]] == [phi[key] for key in shared + ["params"]]
    assert (cate["n"], cate["seed"]) == (400, 4)
    assert cate["n_treated"] + cate["n_control"] == 400
    assert cate["params"] == {"max_depth": 3, "n_trees": 7}
    assert list(cate) == ["ate", "att", "atu", *shared, "params"]
    assert list(phi) == ["att2", *shared, "x2_values", "observed_dose_min",
                         "observed_dose_max", "independence", "params"]


def test_phi_single_cell_grid(tmp_path):
    body = HEADER + "\n"
    for i in range(5):
        body += f"c{i},50.0,0,0,0,0,0,0,{48 + i}.0\n"
    body += "t0,50.0,2,0,0,0,0,0,55.0\n"
    path = tmp_path / "one_bin.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "phi"
    assert main(
        ["phi", "--input", str(path), "--out", str(out), "--x2", "5", "--trees", "4", "--quiet"]
    ) == 0
    with (out / "phi_surface.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + single cell
    assert rows[1][0] == "50.0" and rows[1][1] == "5"


def test_phi_bad_x2_exit_2(tmp_path, synth_csv):
    code = main(
        ["phi", "--input", str(synth_csv), "--out", str(tmp_path / "o"), "--x2", "0,3", "--quiet"]
    )
    assert code == 2


def test_phi_empty_x2_list_exit_2_before_loading(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["phi", "--input", str(missing), "--out", str(tmp_path / "o"), "--x2", ","]) == 2
    assert capsys.readouterr().err == "error: --x2 list is empty\n"


def test_phi_checks_x2_before_loading(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = main(["phi", "--input", str(missing), "--out", str(tmp_path / "o"), "--x2", "abc"])
    assert code == 2
    assert "--x2" in capsys.readouterr().err


def test_phi_independence_violation_exit_4_before_any_output(tmp_path, capsys, monkeypatch, synth_csv):
    def violating(model, cohort, probe_x2=None):
        return treatcount.IndependenceReport(cohort.n, (0, 1, 2), ((7, 2, 51.5, 50.0),))

    monkeypatch.setattr(treatcount, "check_base_independence", violating)
    out = tmp_path / "o"
    assert main(["phi", "--input", str(synth_csv), "--out", str(out), "--trees", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "error: internal consistency failure: control response depends on the"
        " session count (record 7, probe 2)\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "x2", [str(MAX_DOSE + 1), "2," + "1" + "0" * 400], ids=["1001", "400_digits"]
)
def test_phi_x2_above_limit_exit_2_before_loading(tmp_path, capsys, x2):
    missing = tmp_path / "missing.csv"
    code = main(["phi", "--input", str(missing), "--out", str(tmp_path / "o"), "--x2", x2])
    assert code == 2
    err = capsys.readouterr().err
    assert f"session count must be in 1..{MAX_DOSE}" in err
    assert "missing.csv" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "dose, x2, code", [(MAX_DOSE + 1, None, 2), (MAX_DOSE + 1, "1,2", 2), (MAX_DOSE, None, 0)]
)
def test_phi_session_count_limit(tmp_path, capsys, dose, x2, code):
    body = HEADER + "\nc0,40,0,0,0,0,0,0,45\nc1,50,0,0,0,0,0,0,49\n"
    body += f"t0,45,1,0,0,0,0,0,50\nt1,55,{dose},0,0,0,0,0,58\n"
    path = tmp_path / "doses.csv"
    path.write_text(body, encoding="utf-8")
    args = ["phi", "--input", str(path), "--out", str(tmp_path / "o"), "--trees", "2", "--quiet"]
    assert main(args + (["--x2", x2] if x2 else [])) == code
    if code:
        err = capsys.readouterr().err
        assert f"session count {dose} exceeds the limit of {MAX_DOSE}" in err


# --- tree ----------------------------------------------------------------


def test_tree_constant_outcome_single_node(tmp_path):
    body = HEADER + "\n"
    for i in range(4):
        body += f"s{i},5{i}.0,{i % 2},0,0,0,0,0,50.0\n"
    path = tmp_path / "flat.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "tree"
    assert main(["tree", "--input", str(path), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "tree.json").read_text())
    assert payload["split"] is None
    assert payload["n"] == 4


def test_tree_report_matches_library_export(tmp_path):
    body = HEADER + "\n"
    rows = [(30.0, 0, 40.0), (32.0, 0, 41.0), (60.0, 3, 58.0), (62.0, 4, 59.0)]
    for i, (x1, f2f, y) in enumerate(rows):
        body += f"s{i},{x1},{f2f},0,0,0,0,0,{y}\n"
    path = tmp_path / "stump.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "tree"
    assert main(["tree", "--input", str(path), "--out", str(out), "--depth", "1", "--quiet"]) == 0

    X = [(x1, float(f2f), 0.0, 0.0, 0.0, 0.0, 0.0) for (x1, f2f, _) in rows]
    expected = export_tree(
        fit_tree(X, [y for (_, _, y) in rows], 1),
        ["proficiency", "f2f", "remote", "basic_class", "exercises", "videos", "references"],
    )
    assert (out / "tree.txt").read_text() == expected.text
    assert json.loads((out / "tree.json").read_text()) == json.loads(json.dumps(expected.data))
    assert "proficiency < " in expected.text


def test_tree_feature_names_come_from_schema_config(tmp_path):
    cfg = tmp_path / "schema.cfg"
    cfg.write_text("proficiency = placement_score\n", encoding="utf-8")
    body = "id,placement_score,f2f,remote,basic_class,exercises,videos,references,diff_deviation\n"
    rows = [(30.0, 0, 40.0), (32.0, 0, 41.0), (60.0, 3, 58.0), (62.0, 4, 59.0)]
    for i, (x1, f2f, y) in enumerate(rows):
        body += f"s{i},{x1},{f2f},0,0,0,0,0,{y}\n"
    path = tmp_path / "renamed.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "tree"
    assert main(
        ["tree", "--input", str(path), "--out", str(out), "--config", str(cfg), "--quiet"]
    ) == 0
    assert "placement_score < " in (out / "tree.txt").read_text()


def test_tree_adjacent_float_counts_split_into_two_halves(tmp_path):
    # 2**53 and 2**53 + 2 are adjacent floats: the threshold is the upper one
    body = HEADER + "\n"
    for i in range(20):
        body += f"s{i},50.0,{2**53 + 2 * (i % 2)},0,0,0,0,0,{float(i % 2)}\n"
    path = tmp_path / "adjacent.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "tree"
    assert main(["tree", "--input", str(path), "--out", str(out), "--depth", "3", "--quiet"]) == 0
    payload = _strict_json(out / "tree.json")
    assert payload["split"]["name"] == "f2f"
    assert payload["split"]["threshold"] == 2.0**53 + 2
    assert (payload["left"]["n"], payload["right"]["n"]) == (10, 10)
    assert (payload["left"]["mean"], payload["right"]["mean"]) == (0.0, 1.0)
    assert "nan" not in (out / "tree.txt").read_text()


@pytest.mark.parametrize("column", ["f2f", "references"])
def test_tree_count_float64_cannot_hold_exit_2(tmp_path, capsys, column):
    # 2**53 + 1 reads back exact, but as a float it is 2**53: the tree would
    # see one value and fit one leaf
    names = HEADER.split(",")
    body = HEADER + "\n"
    for i in range(20):
        cells = ["s%d" % i, "50.0", "1", "0", "0", "0", "0", "0", str(float(i % 2))]
        cells[names.index(column)] = str(2**53 + i % 2)
        body += ",".join(cells) + "\n"
    path = tmp_path / "huge.csv"
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "tree"
    assert main(["tree", "--input", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: column '{column}': count {2**53 + 1} is above 2^53")
    assert "Traceback" not in err
    assert not out.exists()


# --- dose-reg --------------------------------------------------------------


def test_dose_reg_outputs(tmp_path, synth_csv):
    out = tmp_path / "dr"
    assert main(
        ["dose-reg", "--input", str(synth_csv), "--out", str(out), "--seed", "2", "--trees", "15", "--quiet"]
    ) == 0
    payload = json.loads((out / "ols.json").read_text())
    assert len(payload["coefficients"]) == 2
    with (out / "tau_scatter.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x2", "tau", "x1_bin"]
    assert len(rows) == 401


def test_dose_reg_all_zero_x2_exit_5(tmp_path):
    # nobody used a session: the diagnostic is inapplicable
    body = HEADER + "\n"
    for i in range(8):
        body += f"s{i},4{i}.0,0,0,0,0,0,0,5{i}.0\n"
    path = tmp_path / "zeros.csv"
    path.write_text(body, encoding="utf-8")
    assert main(["dose-reg", "--input", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 5

    # a single session-count value shared by everyone is equally degenerate
    body2 = HEADER + "\n"
    for i in range(8):
        body2 += f"s{i},4{i}.0,2,0,0,0,0,0,5{i}.0\n"
    path2 = tmp_path / "const.csv"
    path2.write_text(body2, encoding="utf-8")
    assert main(["dose-reg", "--input", str(path2), "--out", str(tmp_path / "o2"), "--quiet"]) == 5

    # once the count varies, the diagnostic runs normally
    body3 = body + "t0,45.0,1,0,0,0,0,0,52.0\n"
    path3 = tmp_path / "varies.csv"
    path3.write_text(body3, encoding="utf-8")
    assert main(["dose-reg", "--input", str(path3), "--out", str(tmp_path / "o3"), "--quiet"]) == 0


# --- exit codes and imports ---------------------------------------------------


def _error_classes():
    found, todo = [], [errors.CatebenchError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error_class", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_code(tmp_path, capsys, monkeypatch, error_class):
    exc = error_class("x")

    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_synth", handler)
    assert main(["synth", "--out", str(tmp_path / "o"), "--quiet"]) == error_class.exit_code
    assert error_class.exit_code in {2, 3, 4, 5}
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"
    assert "Traceback" not in err


# a 20-row cohort with both arms, several session counts and distinct covariates
_FUZZ_ROWS = tuple(
    (f"s{i}", repr(40.0 + 1.5 * i), str(i % 4), "0", str(i % 3), "1", "0", "0", repr(45.0 + i))
    for i in range(20)
)
_FUZZ_CELLS = st.sampled_from(
    ["", "nan", "inf", "-1", "1e308", str(2**63 - 1), str(2**63), "0x10", "abc", "\u0663", "\uff15\uff10"]
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["summarize", "cate", "phi", "tree", "dose-reg"]),
    n_rows=st.integers(0, len(_FUZZ_ROWS)),
    edits=st.lists(
        st.tuples(st.integers(0, len(_FUZZ_ROWS) - 1), st.integers(0, 8), _FUZZ_CELLS), max_size=6
    ),
    width=st.sampled_from(["1", "0.1", "1e-300"]),
    x2=st.sampled_from([None, "1,2", "0", "abc", "1001", "1" + "0" * 400]),
)
def test_model_commands_on_mutated_cohorts_exit_with_documented_codes(
    command, n_rows, edits, width, x2
):
    rows = [list(row) for row in _FUZZ_ROWS[:n_rows]]
    for r, c, value in edits:
        if r < n_rows:
            rows[r][c] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        path.write_text("\n".join([HEADER, *map(",".join, rows)]) + "\n", encoding="utf-8")
        args = [command, "--input", str(path), "--out", str(Path(tmp) / "o"), "--trees", "2"]
        args += ["--bin", width, "--quiet"] + (["--x2", x2] if x2 else [])
        assert main(args) in (0, 2, 3, 4, 5)


def test_cli_import_does_not_load_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, catebench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- seeds and --jobs --------------------------------------------------------


def test_env_seed_lowest_precedence(tmp_path, synth_csv, monkeypatch):
    out_env = tmp_path / "env"
    monkeypatch.setenv("CATEBENCH_SEED", "11")
    assert main(["cate", "--input", str(synth_csv), "--out", str(out_env), "--trees", "6", "--quiet"]) == 0
    assert json.loads((out_env / "summary.json").read_text())["seed"] == 11

    out_flag = tmp_path / "flag"
    assert main(
        ["cate", "--input", str(synth_csv), "--out", str(out_flag), "--trees", "6", "--seed", "4", "--quiet"]
    ) == 0
    assert json.loads((out_flag / "summary.json").read_text())["seed"] == 4

    monkeypatch.setenv("CATEBENCH_SEED", "oops")
    assert main(["cate", "--input", str(synth_csv), "--out", str(tmp_path / "e2"), "--trees", "6", "--quiet"]) == 2

    monkeypatch.delenv("CATEBENCH_SEED")
    out_default = tmp_path / "default"
    assert main(["cate", "--input", str(synth_csv), "--out", str(out_default), "--trees", "6", "--quiet"]) == 0
    assert json.loads((out_default / "summary.json").read_text())["seed"] == 0


def test_jobs_flag_does_not_change_outputs(tmp_path, synth_csv):
    out1, out3 = tmp_path / "j1", tmp_path / "j3"
    base = ["phi", "--input", str(synth_csv), "--seed", "6", "--trees", "12", "--quiet"]
    assert main(base + ["--out", str(out1), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(out3), "--jobs", "3"]) == 0
    assert _read_all(out1) == _read_all(out3)
