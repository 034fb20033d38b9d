#!/usr/bin/env python3
"""Show selection bias masking a positive effect, then recover it.

Generates a cohort where weaker students self-select into tutoring, prints
the naive treated-vs-control comparison (negative), and contrasts it with
the T-learner estimates (positive, near the true effect).  Writes the
per-bin effect table and summary files into the output directory.
"""

import argparse
from pathlib import Path

from catebench.dataset import save_cohort, summarize, write_json
from catebench.synth import generate, standard_biased_scenario
from catebench.tlearner import effect_report, fit_t_learner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--out", default="out/bias_inversion")
    args = parser.parse_args()

    scenario = standard_biased_scenario(args.n)
    cohort, truth = generate(scenario, seed=args.seed)
    summary = summarize(cohort)
    naive = summary.mean_y_treated - summary.mean_y_control

    print(f"cohort: n={cohort.n}, treated={summary.n_treated}, control={summary.n_control}")
    print(
        f"admission-test means: treated {summary.mean_x1_treated:.1f}"
        f" vs control {summary.mean_x1_control:.1f}"
    )
    print(f"naive outcome gap (treated - control): {naive:+.2f}")
    print(f"true average effect: {truth.true_ate:+.2f}")

    model = fit_t_learner(cohort, args.depth, args.seed, args.trees)
    report = effect_report(model, cohort)
    print(
        f"estimated: ate {report.ate:+.2f}, att {report.att:+.2f}, atu {report.atu:+.2f}"
        f" (depth {args.depth}, {args.trees} trees, seed {args.seed})"
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_cohort(cohort, out / "cohort.csv")
    report.to_csv(out / "effect_report.csv")
    columns = {"x1": report.x1, "mu0": report.mu0, "mu1": report.mu1, "tau": report.tau}
    table = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    estimands = {"ate": report.ate, "att": report.att, "atu": report.atu}
    write_json(out / "effect_report.json", {**model.summary(estimands), "table": table})
    print(f"wrote {out}/cohort.csv, effect_report.csv, effect_report.json")


if __name__ == "__main__":
    main()
