"""Golden outputs: every file the CLI writes, pinned for a few small cohorts.

Each case generates a cohort with ``synth``, then runs ``summarize``,
``cate``, ``phi``, ``tree`` and ``dose-reg`` on the pinned ``cohort.csv``.
Under the numpy version recorded in ``golden/manifest.json`` every file must
match byte for byte (``Generator`` streams are only stable within one numpy
version).  Under any other version, structure, strings and integers must
match exactly and floats to 1e-12 relative.

``golden/forest_digests.json`` pins every tree of the learners and of
``fit_tree`` on the benchmark's cohorts, by a sha256 over each node.

Regenerate (only in a change that says why) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import argparse
import csv
import hashlib
import json
import math
import re
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from catebench import dataset, synth
from catebench.cli import main
from catebench.forest import fit_tree
from catebench.tlearner import fit_t_learner
from catebench.treatcount import fit_t_learner2

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

CASES = {
    # rounded covariate, default bins and grid
    "biased_dose": {
        "scenario": {"preset": "biased_dose", "n": 240},
        "seed": 1,
        "flags": [],
        "phi": [],
    },
    # continuous covariate: one bin per distinct rounded value, deeper trees
    "standard_continuous": {
        "scenario": {"preset": "standard_biased", "n": 240, "round_x1": False},
        "seed": 2,
        "flags": ["--depth", "4"],
        "phi": [],
    },
    # a non-default bin width, and a session-count grid past the observed range
    "biased_dose_bin": {
        "scenario": {"preset": "biased_dose", "n": 200},
        "seed": 3,
        "flags": ["--bin", "2.5", "--depth", "3"],
        "phi": ["--x2", "2,4,20"],
    },
}
COMMANDS = ("summarize", "cate", "phi", "tree", "dose-reg")
# the benchmark's forest cohorts, generated with seed 1: continuous_deep's has
# every x1 distinct, so each arm grows a tree a chunk; dose_surface's rounds x1
# to about 75 values, so each arm grows as one chunk
DIGEST_COHORTS = {
    "continuous_deep": {"preset": "standard_biased", "n": 8000, "round_x1": False},
    "dose_surface": {"preset": "biased_dose", "n": 10000, "round_x1": True},
}


def _run(argv):
    assert main(argv + ["--quiet"]) == 0, argv


def _produce(name, case, out: Path, cohort_csv=None) -> None:
    """Write every command's outputs for one case under ``out/<command>/``.

    The model commands read ``cohort_csv`` when given (the pinned cohort), so
    a generator change shows up in ``synth`` alone.
    """
    config = out / "scenario.json"
    out.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(case["scenario"]), encoding="utf-8")
    seed = ["--seed", str(case["seed"])]
    _run(["synth", "--config", str(config), "--out", str(out / "synth")] + seed)
    config.unlink()
    source = cohort_csv or out / "synth" / "cohort.csv"
    for command in COMMANDS:
        argv = [command, "--input", str(source), "--out", str(out / command)] + seed
        argv += case["flags"] + ["--trees", "6"]
        if command == "phi":
            argv += case["phi"]
        _run(argv)


def _files(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def _node_digest(trees) -> str:
    """sha256 over every node in depth-first order: split feature (-1 at a
    leaf), threshold bits, n and mean bits."""
    digest = hashlib.sha256()

    def walk(node):
        feature, threshold = node.split or (-1, 0.0)
        digest.update(struct.pack("<qdqd", feature, threshold, node.n, node.mean))
        if node.split is not None:
            walk(node.left)
            walk(node.right)

    for tree in trees:
        walk(tree)
    return digest.hexdigest()


def forest_digests(work: Path) -> dict:
    """Each fit's node digest, on each cohort as the CLI reads it from CSV."""
    digests = {}
    for name, config in DIGEST_COHORTS.items():
        csv_path = work / f"{name}.csv"
        synth.save_synthetic(*synth.generate(synth.scenario_from_dict(config), 1), csv_path)
        cohort, _ = dataset.load_cohort(csv_path)
        for depth in (2, 4):
            for fit in (fit_t_learner, fit_t_learner2):
                model = fit(cohort, depth, 1, 100)
                digests[f"{name}/{fit.__name__}/depth{depth}"] = _node_digest(
                    model.mu1.trees + model.mu0.trees)
        X = np.column_stack([cohort.x1, cohort.x2, cohort.aux])  # the tree command's features
        digests[f"{name}/fit_tree/depth4"] = _node_digest([fit_tree(X, cohort.y, 4)])
    return digests


# --- tolerant comparison ---------------------------------------------------------


def _same_number(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) or isinstance(b, int):
        return type(a) is type(b) and a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_json(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_json(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _same_number(a, b)
    return a == b


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _tokens(text: str) -> list:
    # numbers become values, everything between them stays literal text
    out, pos = [], 0
    for m in _NUMBER.finditer(text):
        out += [text[pos:m.start()], _cell(m.group())]
        pos = m.end()
    return out + [text[pos:]]


def _same_values(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        _same_number(x, y) if not isinstance(x, str) and not isinstance(y, str) else x == y
        for x, y in zip(a, b)
    )


def _same_file(path: Path, want: Path) -> bool:
    got_text, want_text = path.read_text(encoding="utf-8"), want.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return _same_json(json.loads(got_text), json.loads(want_text))
    if path.suffix == ".csv":
        got, exp = list(csv.reader(got_text.splitlines())), list(csv.reader(want_text.splitlines()))
        return len(got) == len(exp) and all(
            _same_values([_cell(c) for c in g], [_cell(c) for c in e]) for g, e in zip(got, exp)
        )
    return _same_values(_tokens(got_text), _tokens(want_text))


# --- tests ------------------------------------------------------------------------


def _manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(tmp_path, name):
    want_root = GOLDEN / name
    _produce(name, CASES[name], tmp_path, cohort_csv=want_root / "synth" / "cohort.csv")
    assert _files(tmp_path) == _files(want_root)
    exact = np.__version__ == _manifest()["numpy"]
    for rel in _files(want_root):
        got, want = tmp_path / rel, want_root / rel
        if exact:
            assert got.read_bytes() == want.read_bytes(), f"{name}/{rel} differs"
        else:
            assert _same_file(got, want), f"{name}/{rel} differs beyond {REL_TOL:g} relative"


@pytest.mark.skipif(np.__version__ != _manifest()["numpy"],
                    reason="Generator streams are pinned only under the manifest's numpy")
def test_every_tree_matches_its_digest(tmp_path):
    want = json.loads((GOLDEN / "forest_digests.json").read_text(encoding="utf-8"))
    assert forest_digests(tmp_path) == want


def test_tolerant_comparison_separates_drift_from_change(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": [1.0, 2, None], "s": "k"}))
    b.write_text(json.dumps({"x": [1.0 + 1e-15, 2, None], "s": "k"}))
    assert _same_file(a, b)
    b.write_text(json.dumps({"x": [1.0, 2.0, None], "s": "k"}))  # int became float
    assert not _same_file(a, b)
    c, d = tmp_path / "c.txt", tmp_path / "d.txt"
    c.write_text("f2f < 1.5\nn = 12\n")
    d.write_text("f2f < 1.5\nn = 13\n")
    assert not _same_file(c, d)


def write_goldens() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    for name, case in CASES.items():
        _produce(name, case, GOLDEN / name)
    manifest = {"numpy": np.__version__, "python": sys.version.split()[0]}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        digests = forest_digests(Path(work))
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "forest_digests.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate tests/golden/.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args()
    write_goldens()
