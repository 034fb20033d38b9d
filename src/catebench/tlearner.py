"""T-learner: a response forest per arm.

The treated forest mu1 is fit only on treated records, the control forest
mu0 only on controls.  Their inputs are the covariate alone (this module) or
the covariate and the session count (``treatcount.fit_t_learner2``); one fit
routine serves both.  The difference of the two responses at a covariate
value is the effect estimate.  ATE averages fitted differences over every
record, while ATT and ATU mix the observed outcome of one arm with the other
arm's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Cohort, write_csv, write_json
from .errors import EmptyArm
from .forest import RegressionForest, fit_forest


@dataclass(frozen=True)
class TLearnerModel:
    """A response forest per arm over [x1] or, for the session-count
    estimator, [x1, x2], with the depth, forest size and seed both were
    fitted with.  ``dose_min``/``dose_max`` are the treated arm's observed
    session-count range."""

    mu1: RegressionForest
    mu0: RegressionForest
    max_depth: int
    n_trees: int
    seed: int
    n_treated: int
    n_control: int
    dose_min: int
    dose_max: int


def _fit_arms(cohort: Cohort, n_features, max_depth: int, seed, n_trees):
    """Fit mu1 on the treated rows and mu0 on the control rows, each in row
    order, over the first ``n_features`` of (x1, x2).

    Both arms use the run seed, so identical arms give identical forests.  A
    control's session count is 0 by the partition's definition, so mu0's
    session column is constant and can never be split on.
    """
    treated = cohort.treated
    if not treated.any():
        raise EmptyArm("R1")
    if treated.all():
        raise EmptyArm("R0")
    X = np.column_stack([cohort.x1, cohort.x2][:n_features])

    def fit(arm):
        # rows go first and as (features, y) pairs: perfbench/spans.py counts them there
        rows = list(zip(X[arm].tolist(), cohort.y[arm].tolist()))
        return fit_forest(rows, max_depth, n_trees, seed)

    mu1, mu0 = fit(treated), fit(~treated)
    n_treated = int(treated.sum())
    doses = cohort.x2[treated]
    return TLearnerModel(
        mu1, mu0, max_depth, n_trees, seed, n_treated, cohort.n - n_treated,
        int(doses.min()), int(doses.max()),
    )


def fit_t_learner(
    cohort: Cohort,
    max_depth: int = 2,
    seed: int = 0,
    n_trees: int = 100,
) -> TLearnerModel:
    """Fit mu1 on treated (x1, y) pairs and mu0 on control pairs."""
    return _fit_arms(cohort, 1, max_depth, seed, n_trees)


def cate_tau(model: TLearnerModel, x1) -> float:
    """Effect estimate at covariate value x1: mu1(x1) - mu0(x1).

    The fitted responses depend on x1 only, so this is the same number for
    every student in the bin.
    """
    return model.mu1.predict((float(x1),)) - model.mu0.predict((float(x1),))


def ate(model: TLearnerModel, cohort: Cohort) -> float:
    """Mean fitted difference mu1(x1_k) - mu0(x1_k) over all records."""
    X = cohort.x1[:, np.newaxis]
    return float(np.mean(model.mu1.predict_many(X) - model.mu0.predict_many(X)))


def att(model: TLearnerModel, cohort: Cohort) -> float:
    """Mean over the treated of observed outcome minus the control prediction
    at their own inputs: x1, or (x1, x2) for the session-count model."""
    treated = cohort.treated
    if not treated.any():
        raise EmptyArm("R1")
    X = np.column_stack([cohort.x1[treated], cohort.x2[treated]][: model.mu0.feature_count])
    return float(np.mean(cohort.y[treated] - model.mu0.predict_many(X)))


def atu(model: TLearnerModel, cohort: Cohort) -> float:
    """Mean over controls of the treated prediction minus the observed outcome."""
    control = ~cohort.treated
    if not control.any():
        raise EmptyArm("R0")
    mu1 = model.mu1.predict_many(cohort.x1[control, np.newaxis])
    return float(np.mean(mu1 - cohort.y[control]))


def summary_params(fitted) -> dict:  # summary.json's "params", from a model or a report
    return {"max_depth": fitted.max_depth, "n_trees": fitted.n_trees}


@dataclass(frozen=True)
class EffectRow:
    x1: float
    mu0: float
    mu1: float
    tau: float


@dataclass(frozen=True)
class EffectReport:
    """Per-bin response and effect estimates plus the scalar effect summaries."""

    ate: float
    att: float
    atu: float
    rows: tuple
    n: int
    n_treated: int
    n_control: int
    seed: int
    max_depth: int
    n_trees: int

    def summary_dict(self) -> dict:
        return {
            "ate": self.ate,
            "att": self.att,
            "atu": self.atu,
            "n": self.n,
            "n_treated": self.n_treated,
            "n_control": self.n_control,
            "seed": self.seed,
            "params": summary_params(self),
        }

    def to_csv(self, path) -> None:
        rows = ([repr(r.x1), repr(r.mu0), repr(r.mu1), repr(r.tau)] for r in self.rows)
        write_csv(path, ["x1", "mu0", "mu1", "tau"], rows)

    def to_json(self, path) -> None:
        payload = self.summary_dict()
        payload["table"] = [
            {"x1": r.x1, "mu0": r.mu0, "mu1": r.mu1, "tau": r.tau} for r in self.rows
        ]
        write_json(path, payload)


def effect_report(model: TLearnerModel, cohort: Cohort) -> EffectReport:
    """One row per covariate bin (ascending) with mu0, mu1, and their difference."""
    bins = np.fromiter(cohort.bin_members, dtype=float)
    m0 = model.mu0.predict_many(bins[:, np.newaxis]).tolist()
    m1 = model.mu1.predict_many(bins[:, np.newaxis]).tolist()
    rows = tuple(EffectRow(b, a0, a1, a1 - a0) for b, a0, a1 in zip(bins.tolist(), m0, m1))
    n_treated = int(cohort.treated.sum())
    return EffectReport(
        ate(model, cohort),
        att(model, cohort),
        atu(model, cohort),
        rows,
        cohort.n,
        n_treated,
        cohort.n - n_treated,
        model.seed,
        model.max_depth,
        model.n_trees,
    )
