"""Batch command line: ingest a cohort CSV, fit, and export plot-ready files.

    catebench <summarize|cate|phi|tree|dose-reg|synth> --input <csv> --out <dir>
              [--seed N] [--depth D] [--trees T] [--x2 list] [--bin W]
              [--config <file>] [--jobs J] [--quiet]

Every command is a pure function of its input files, flags, and seed, so
reruns produce byte-identical outputs.  All randomness flows from --seed
(env CATEBENCH_SEED is the lowest-precedence default).  Exit codes:
0 success, 2 input/schema problems, 3 empty treatment arm, 4 internal
consistency failure, 5 rank-deficient diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset, linreg, synth, tlearner, treatcount
from .errors import (CatebenchError, DomainError, EmptyInput, Inconsistent, RankDeficient,
                     SchemaError)
from .forest import export_tree, fit_tree

TREE_FEATURES = ("proficiency", "f2f") + dataset.AUX_FIELDS


# module attributes, looked up at each call: perfbench/spans.py wraps them by name
_write_json = dataset.write_json


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CATEBENCH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError(f"CATEBENCH_SEED must be an integer, got {env!r}") from None
    return 0


def _load(args):
    config = dataset.SchemaConfig.from_file(args.config) if args.config else None
    return dataset.load_cohort(args.input, config=config, precision=args.bin)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_x2(raw: str) -> tuple:
    try:
        values = tuple(int(v) for v in raw.replace(",", " ").split())
    except ValueError:
        raise SchemaError(f"--x2 expects integers, got {raw!r}") from None
    if not values:
        raise SchemaError("--x2 list is empty")
    return tuple(map(treatcount._require_dose, values))


def cmd_summarize(args) -> int:
    cohort, report = _load(args)
    summary = dataset.summarize(cohort)
    out = _out_dir(args)

    def fmt(v):
        return "absent" if v is None else format(v, ".6g")

    lines = [
        f"records: {cohort.n} (dropped {report.n_dropped})",
        f"treated (f2f >= 1): n={summary.n_treated}"
        f" mean outcome={fmt(summary.mean_y_treated)}"
        f" mean proficiency={fmt(summary.mean_x1_treated)}",
        f"control (f2f = 0): n={summary.n_control}"
        f" mean outcome={fmt(summary.mean_y_control)}"
        f" mean proficiency={fmt(summary.mean_x1_control)}",
    ]
    if summary.mean_y_treated is not None and summary.mean_y_control is not None:
        gap = summary.mean_y_treated - summary.mean_y_control
        lines.append(f"naive treated-minus-control outcome gap: {format(gap, '.6g')}")
    text = "\n".join(lines) + "\n"

    _write_json(
        out / "summary.json",
        {"n": cohort.n, "n_dropped": report.n_dropped, **dataclasses.asdict(summary)},
    )
    _write_text(out / "summary.txt", text)
    _say(args, text.rstrip("\n"))
    return 0


def cmd_cate(args) -> int:
    cohort, _ = _load(args)
    seed = _resolve_seed(args)
    model = tlearner.fit_t_learner(cohort, args.depth, seed, args.trees)
    report = tlearner.effect_report(model, cohort)
    out = _out_dir(args)
    report.to_csv(out / "effect_report.csv")
    _write_json(out / "summary.json",
                model.summary({"ate": report.ate, "att": report.att, "atu": report.atu}))
    _say(
        args,
        f"ate={report.ate:.6g} att={report.att:.6g} atu={report.atu:.6g}"
        f" (n={cohort.n}, treated={model.n_treated}, seed={seed})",
    )
    return 0


def cmd_phi(args) -> int:
    x2_values = _parse_x2(args.x2) if args.x2 else None  # before any loading or fitting
    cohort, _ = _load(args)
    seed = _resolve_seed(args)
    model = treatcount.fit_t_learner2(cohort, args.depth, seed, args.trees)
    independence = treatcount.check_base_independence(model, cohort)
    if not independence.ok:
        first = independence.violations[0]
        raise Inconsistent(
            "internal consistency failure: control response depends on the"
            f" session count (record {first[0]}, probe {first[1]})"
        )
    surface = treatcount.phi_surface(model, cohort, x2_values=x2_values)
    a2 = treatcount.att2(model, cohort)
    out = _out_dir(args)
    surface.to_csv(out / "phi_surface.csv")
    surface.to_json(out / "phi_matrix.json")
    _write_json(out / "summary.json", model.summary(
        {"att2": a2},
        x2_values=list(surface.x2_values),
        observed_dose_min=model.dose_min,
        observed_dose_max=model.dose_max,
        independence={"probes": list(independence.probes),
                      "n_violations": len(independence.violations)},
    ))
    _say(
        args,
        f"att2={a2:.6g} grid={len(surface.x1_values)}x{len(surface.x2_values)}"
        f" (independence ok, seed={seed})",
    )
    return 0


def cmd_tree(args) -> int:
    cohort, load_report = _load(args)
    names = [load_report.columns[c] for c in TREE_FEATURES]
    # the tree fits floats, and a count float64 does not hold merges with a neighbour
    for name, column in zip(names[1:], [cohort.x2, *cohort.aux.T]):
        for count in column[column > 2**53].tolist():
            if float(count) != count:
                raise DomainError(f"column {name!r}: count {count} is above 2^53"
                                  " and has no exact float")
    X = np.column_stack([cohort.x1, cohort.x2, cohort.aux])  # TREE_FEATURES order
    tree = fit_tree(X, cohort.y, args.depth)
    report = export_tree(tree, names)
    out = _out_dir(args)
    _write_text(out / "tree.txt", report.text)
    _write_json(out / "tree.json", report.data)
    _say(args, report.text.rstrip("\n"))
    return 0


def cmd_dose_reg(args) -> int:
    cohort, _ = _load(args)
    if cohort.n == 0:
        raise EmptyInput("cohort is empty")
    # when the session count never varies (nobody attended, say) the
    # diagnostic is inapplicable regardless of whether a learner could fit
    if (cohort.x2 == cohort.x2[0]).all():
        raise RankDeficient("session count is constant across the cohort")
    seed = _resolve_seed(args)
    model = tlearner.fit_t_learner(cohort, args.depth, seed, args.trees)
    fit, scatter = linreg.tau_dose_regression(cohort, model)
    out = _out_dir(args)
    fit.to_json(out / "ols.json")
    scatter.to_csv(out / "tau_scatter.csv")
    coefs = ", ".join(format(c, ".6g") for c in fit.coefficients)
    _say(args, f"ols: coefficients=[{coefs}] intercept={fit.intercept:.6g} r2={fit.r_squared:.6g}")
    return 0


def cmd_synth(args) -> int:
    if not args.config:
        raise SchemaError("synth requires --config with a scenario file")
    scenario = synth.load_scenario(args.config)
    seed = _resolve_seed(args)
    cohort, truth = synth.generate(scenario, seed)
    out = _out_dir(args)
    truth_path = synth.save_synthetic(cohort, truth, out / "cohort.csv")
    _say(
        args,
        f"wrote {cohort.n} records ({int(cohort.treated.sum())} treated) to {out / 'cohort.csv'}"
        f" and {truth_path}",
    )
    return 0


def _count_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _width_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catebench",
        description="Treatment-effect estimation over cohort CSVs: naive summaries,"
        " T-learner effects, session-count-dependent effect surfaces, diagnostic"
        " trees and regressions, and synthetic cohort generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True, help="cohort CSV path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
        p.add_argument("--depth", type=_count_flag, default=2, help="tree depth (default 2)")
        p.add_argument("--trees", type=_count_flag, default=100, help="forest size (default 100)")
        p.add_argument("--x2", default=None, help="comma-separated session counts for the grid")
        p.add_argument("--bin", type=_width_flag, default=1.0, help="covariate bin width (default 1)")
        p.add_argument("--config", default=None, help="schema config (scenario file for synth)")
        p.add_argument(
            "--jobs", type=_count_flag, default=1,
            help="accepted and ignored: forest fitting is single-threaded",
        )
        p.add_argument("--quiet", action="store_true", help="suppress the text mirror")
        p.set_defaults(handler=handler)
        return p

    add("summarize", cmd_summarize, "naive treated-vs-control group summary")
    add("cate", cmd_cate, "one-variable effect estimates (per-bin table, ATE/ATT/ATU)")
    add("phi", cmd_phi, "session-count-dependent effect surface and ATT2")
    add("tree", cmd_tree, "diagnostic regression tree over all activity counts")
    add("dose-reg", cmd_dose_reg, "regress effect estimates on (covariate, session count)")
    add("synth", cmd_synth, "generate a synthetic cohort from a scenario config", needs_input=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CatebenchError, OSError, UnicodeError) as exc:
        # exit 2 for an input that is missing or a directory, or text stdout cannot encode
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
