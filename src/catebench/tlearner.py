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

from .dataset import Cohort, write_csv
from .errors import EmptyArm
from .forest import RegressionForest, fit_forest


@dataclass(frozen=True)
class TLearnerModel:
    """A response forest per arm over [x1] or, for the session-count
    estimator, [x1, x2], with the depth, forest size and seed both were
    fitted with.  ``dose_min``/``dose_max`` are the treated arm's observed
    session-count range.  ``summary`` builds both estimators' summary.json."""

    mu1: RegressionForest
    mu0: RegressionForest
    max_depth: int
    n_trees: int
    seed: int
    n_treated: int
    n_control: int
    dose_min: int
    dose_max: int

    def summary(self, estimands: dict, **details) -> dict:
        """A summary.json: the estimands, the fit's counts and seed (every cohort row
        is fitted, so n = n_treated + n_control), the details, then ``params``."""
        return {
            **estimands,
            "n": self.n_treated + self.n_control,
            "n_treated": self.n_treated,
            "n_control": self.n_control,
            "seed": self.seed,
            **details,
            "params": {"max_depth": self.max_depth, "n_trees": self.n_trees},
        }


def _fit_arms(cohort: Cohort, n_features, max_depth: int, seed, n_trees):
    """Fit mu1 on the treated rows and mu0 on the control rows, each in row
    order, over the first ``n_features`` of (x1, x2).

    Both arms use the run seed, so identical arms give identical forests.  A
    control's session count is 0 by the partition's definition, one value,
    which a fit never codes (see ``forest``): mu0 is the one-variable mu0.
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
    n_treated, doses = int(treated.sum()), cohort.x2[treated]
    return TLearnerModel(mu1, mu0, max_depth, n_trees, seed, n_treated, cohort.n - n_treated,
                         int(doses.min()), int(doses.max()))


def fit_t_learner(
    cohort: Cohort,
    max_depth: int = 2,
    seed: int = 0,
    n_trees: int = 100,
) -> TLearnerModel:
    """Fit mu1 on treated (x1, y) pairs and mu0 on control pairs."""
    return _fit_arms(cohort, 1, max_depth, seed, n_trees)


def cate_tau(model: TLearnerModel, x1) -> float:
    """Effect estimate at covariate value x1: mu1(x1) - mu0(x1), the same
    number for every student in the bin, since both responses depend on x1 only."""
    return model.mu1.predict((float(x1),)) - model.mu0.predict((float(x1),))


def _estimand(cohort: Cohort, name, mu1=None, mu0=None) -> float:
    """ATE, ATT or ATU from the responses at every record's inputs: the mean of
    a difference over every record, the treated or the controls."""
    y = cohort.y
    arm, high, low = {"ate": (None, mu1, mu0), "att": (True, y, mu0), "atu": (False, mu1, y)}[name]
    rows = slice(None) if arm is None else cohort.treated == arm
    if arm is not None and not rows.any():
        raise EmptyArm("R1" if arm else "R0")
    return float(np.mean(high[rows] - low[rows]))


def ate(model: TLearnerModel, cohort: Cohort) -> float:
    """Mean fitted difference mu1(x1_k) - mu0(x1_k) over all records."""
    X = cohort.x1[:, np.newaxis]
    return _estimand(cohort, "ate", model.mu1.predict_many(X), model.mu0.predict_many(X))


def att(model: TLearnerModel, cohort: Cohort) -> float:
    """Mean over the treated of observed outcome minus the control prediction
    at their own inputs: x1, or (x1, x2) for the session-count model."""
    X = np.column_stack([cohort.x1, cohort.x2][: model.mu0.feature_count])
    return _estimand(cohort, "att", mu0=model.mu0.predict_many(X))


def atu(model: TLearnerModel, cohort: Cohort) -> float:
    """Mean over controls of the treated prediction minus the observed outcome."""
    return _estimand(cohort, "atu", mu1=model.mu1.predict_many(cohort.x1[:, np.newaxis]))


@dataclass(frozen=True, eq=False)
class EffectReport:
    """ATE/ATT/ATU, plus one entry per covariate bin (ascending) in the
    float64 columns ``x1`` (the bin key), ``mu0``, ``mu1`` and
    ``tau = mu1 - mu0``.  The fit's counts, seed and params stay on the
    model: ``model.summary`` writes them."""

    ate: float
    att: float
    atu: float
    x1: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    tau: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ["x1", "mu0", "mu1", "tau"], [self.x1, self.mu0, self.mu1, self.tau])


def effect_report(model: TLearnerModel, cohort: Cohort) -> EffectReport:
    """mu0, mu1 and their difference at each covariate bin, and ATE/ATT/ATU, from one
    prediction per forest at every record and bin; ``model.summary`` adds the fit facts."""
    bins = np.fromiter(cohort.bin_members, dtype=float)
    X = np.concatenate([cohort.x1, bins])[:, np.newaxis]
    mu1, mu1_bins = np.split(model.mu1.predict_many(X), [cohort.n])
    mu0, mu0_bins = np.split(model.mu0.predict_many(X), [cohort.n])
    estimands = (_estimand(cohort, name, mu1, mu0) for name in ("ate", "att", "atu"))
    return EffectReport(*estimands, bins, mu0_bins, mu1_bins, mu1_bins - mu0_bins)
