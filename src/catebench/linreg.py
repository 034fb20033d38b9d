"""Ordinary least squares via the singular value decomposition, and the
diagnostic that regresses per-student effect estimates on (covariate, session
count)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Cohort, write_csv, write_json
from .errors import RankDeficient, Underdetermined
from .tlearner import TLearnerModel

# refuse centred design columns, scaled to unit length, conditioned beyond this
_RANK_DEFICIENT_COND = 1e12


@dataclass(frozen=True)
class OlsFit:
    coefficients: tuple
    intercept: float
    r_squared: float
    n: int

    def to_json(self, path) -> None:
        write_json(path, {
            "coefficients": [float(c) for c in self.coefficients],
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n": self.n,
        })


def ols_fit(design, targets) -> OlsFit:
    """Least-squares fit of targets on the design columns plus a constant.

    The columns and the targets are centred on their means before the SVD,
    and the intercept is recovered as ``mean(y) - mean(X) @ beta``, so an
    offset in a column neither conditions the fit badly nor moves a slope.
    RankDeficient is raised only when the centred columns are collinear:
    when, each scaled to unit length, they are conditioned beyond 1e12, or
    one of them is constant.  A column's scale alone is never refused; the
    solve itself uses the unscaled centred columns.  r_squared is
    1 - SSE/SST, with the convention that a constant target (SST = 0) fits
    perfectly.
    """
    X = np.asarray(design, dtype=float)
    if X.ndim == 1:
        X = X[:, np.newaxis]
    y = np.asarray(targets, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("targets must be one value per design row")
    if n <= p + 1:
        raise Underdetermined(f"need more than {p + 1} rows to fit {p} features, got {n}")

    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean
    cond = np.inf  # a constant column
    if (X.max(axis=0) > X.min(axis=0)).all():
        # scaled to unit length, no column's units count against the fit
        unit = np.linalg.svd(Xc / np.linalg.norm(Xc, axis=0), compute_uv=False)
        cond = np.inf if unit[-1] == 0.0 else float(unit[0] / unit[-1])
    if cond > _RANK_DEFICIENT_COND:
        raise RankDeficient(
            f"design matrix condition number {cond:.3g} exceeds {_RANK_DEFICIENT_COND:g}"
        )
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    beta = Vt.T @ (U.T @ yc / s)

    resid = yc - Xc @ beta
    sst = float(np.sum(yc ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(resid @ resid) / sst
    r2 = min(1.0, max(0.0, r2))
    return OlsFit(tuple(float(b) for b in beta), float(y_mean - x_mean @ beta), r2, n)


@dataclass(frozen=True, eq=False)
class ScatterExport:
    """Per-student columns in record order: session count, effect estimate, covariate bin."""

    x2: np.ndarray
    tau: np.ndarray
    x1_bin: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ["x2", "tau", "x1_bin"], [self.x2, self.tau, self.x1_bin])


def tau_dose_regression(cohort: Cohort, model: TLearnerModel):
    """Regress each student's effect estimate on (x1, x2) over all records.

    Returns (OlsFit, ScatterExport).  The effect estimate is the fitted
    one-variable difference at the student's observed covariate; a positive
    x2 coefficient says students with more sessions sit where the estimated
    effect is larger.  Raises RankDeficient when x2 never varies (nobody
    attended, for instance), which makes the diagnostic inapplicable.
    """
    X1 = cohort.x1[:, np.newaxis]
    tau = model.mu1.predict_many(X1) - model.mu0.predict_many(X1)
    fit = ols_fit(np.column_stack([cohort.x1, cohort.x2]), tau)
    return fit, ScatterExport(cohort.x2, tau, cohort.bins)
