"""The demo scripts run end to end on small cohorts and write their files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, out, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / name), "--out", str(out), *flags]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _csv_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_bias_inversion_demo(tmp_path):
    out = tmp_path / "bias"
    stdout = _run_script("bias_inversion_demo.py", out, "--n", "400", "--trees", "5", "--seed", "2")
    assert "cohort: n=400" in stdout
    assert sorted(p.name for p in out.iterdir()) == [
        "cohort.csv", "effect_report.csv", "effect_report.json"
    ]
    assert len(_csv_rows(out / "cohort.csv")) == 401
    assert _csv_rows(out / "effect_report.csv")[0] == ["x1", "mu0", "mu1", "tau"]
    report = json.loads((out / "effect_report.json").read_text(encoding="utf-8"))
    assert report["n"] == 400 and report["n_treated"] + report["n_control"] == 400
    assert len(report["table"]) == len(_csv_rows(out / "effect_report.csv")) - 1


def test_dose_surface_demo(tmp_path):
    out = tmp_path / "dose"
    stdout = _run_script("dose_surface_demo.py", out, "--n", "400", "--trees", "5", "--seed", "2")
    assert "base-response independence: ok" in stdout
    assert sorted(p.name for p in out.iterdir()) == [
        "ols.json", "phi_matrix.json", "phi_surface.csv", "tau_scatter.csv"
    ]
    matrix = json.loads((out / "phi_matrix.json").read_text(encoding="utf-8"))
    surface = _csv_rows(out / "phi_surface.csv")
    assert surface[0] == ["x1", "x2", "phi"]
    assert len(surface) - 1 == len(matrix["x1_values"]) * len(matrix["x2_values"])
    scatter = _csv_rows(out / "tau_scatter.csv")
    assert scatter[0] == ["x2", "tau", "x1_bin"] and len(scatter) == 401
    assert json.loads((out / "ols.json").read_text(encoding="utf-8"))["n"] == 400
