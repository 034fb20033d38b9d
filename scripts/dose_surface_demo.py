#!/usr/bin/env python3
"""Fit the session-count-dependent effect estimator and export its surface.

Generates a cohort with a dose-linear effect, fits the two-variable learner,
verifies the control response ignores the session count, and writes the
effect surface (long CSV plus JSON matrix), the per-student scatter, and
the regression diagnostic.
"""

import argparse
from pathlib import Path

from catebench.linreg import tau_dose_regression
from catebench.synth import biased_dose_scenario, generate
from catebench.tlearner import att, fit_t_learner
from catebench.treatcount import att2, check_base_independence, fit_t_learner2, phi_surface


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--out", default="out/dose_surface")
    args = parser.parse_args()

    cohort, truth = generate(biased_dose_scenario(args.n), seed=args.seed)
    model2 = fit_t_learner2(cohort, args.depth, args.seed, args.trees)
    model1 = fit_t_learner(cohort, args.depth, args.seed, args.trees)

    independence = check_base_independence(model2, cohort)
    print(f"base-response independence: {'ok' if independence.ok else 'VIOLATED'}")
    print(f"att  (one variable):  {att(model1, cohort):+.3f}")
    print(f"att2 (two variables): {att2(model2, cohort):+.3f}")
    print(f"true att: {truth.true_att:+.3f}")

    surface = phi_surface(model2, cohort)
    fit, scatter = tau_dose_regression(cohort, model1)
    print(
        f"effect-vs-count regression: x1 coef {fit.coefficients[0]:+.3f},"
        f" x2 coef {fit.coefficients[1]:+.3f}, intercept {fit.intercept:+.3f}"
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    surface.to_csv(out / "phi_surface.csv")
    surface.to_json(out / "phi_matrix.json")
    scatter.to_csv(out / "tau_scatter.csv")
    fit.to_json(out / "ols.json")
    print(f"wrote {out}/phi_surface.csv, phi_matrix.json, tau_scatter.csv, ols.json")


if __name__ == "__main__":
    main()
