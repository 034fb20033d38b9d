"""Ordinary least squares via the singular value decomposition, and the
diagnostic that regresses per-student effect estimates on (covariate, session
count)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Cohort, write_csv, write_json
from .errors import RankDeficient, Underdetermined
from .tlearner import TLearnerModel

# refuse a design matrix (with constant column) conditioned beyond this
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

    r_squared is 1 - SSE/SST, with the convention that a constant target
    (SST = 0) fits perfectly.
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

    A = np.column_stack([np.ones(n), X])
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    cond = np.inf if s[-1] == 0.0 else float(s[0] / s[-1])
    if cond > _RANK_DEFICIENT_COND:
        raise RankDeficient(
            f"design matrix condition number {cond:.3g} exceeds {_RANK_DEFICIENT_COND:g}"
        )
    beta = Vt.T @ (U.T @ y / s)

    resid = y - A @ beta
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(resid @ resid) / sst
    r2 = min(1.0, max(0.0, r2))
    return OlsFit(tuple(float(b) for b in beta[1:]), float(beta[0]), r2, n)


@dataclass(frozen=True)
class ScatterExport:
    """Per-student (x2, effect estimate, covariate bin) rows."""

    rows: tuple

    def to_csv(self, path) -> None:
        rows = ([x2, repr(float(tau)), repr(float(x1_bin))] for x2, tau, x1_bin in self.rows)
        write_csv(path, ["x2", "tau", "x1_bin"], rows)


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
    return fit, ScatterExport(tuple(zip(cohort.x2.tolist(), tau.tolist(), cohort.bins.tolist())))
