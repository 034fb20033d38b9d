"""Two-variable T-learner over (covariate, session count) and the
session-count-dependent effect estimator.

mu1 is fit on treated (x1, x2, y) triples, so it is only defined for session
counts of 1 and up; mu0 is fit on control triples, whose session count is 0
by the partition's definition, so its session-count input is constant and
the split search can never use it.  The estimator phi(x1, x2) substitutes a
hypothetical session count into mu1 for every student in a covariate bin and
subtracts each student's control prediction at their observed count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Cohort, write_csv, write_json
from .errors import DomainError, EmptyBin
# unused here, but perfbench/spans.py wraps fit_forest in this module by name
from .forest import fit_forest  # noqa: F401
from .synth import MAX_DOSE
from .tlearner import TLearnerModel, _fit_arms, att as att2  # noqa: F401  (att2 is att)

# session counts always included in grid exports, alongside 1..max observed
REFERENCE_DOSES = (1, 2, 3, 5, 10, 14)


def fit_t_learner2(
    cohort: Cohort,
    max_depth: int = 2,
    seed: int = 0,
    n_trees: int = 100,
) -> TLearnerModel:
    """Fit mu1 on treated (x1, x2, y) and mu0 on control (x1, 0, y)."""
    return _fit_arms(cohort, 2, max_depth, seed, n_trees)


def default_dose_probes(model: TLearnerModel, include_zero: bool = True) -> tuple:
    """1..max observed session count, the reference series, optionally 0;
    a max above ``MAX_DOSE`` raises DomainError (one prediction per probe)."""
    if model.dose_max > MAX_DOSE:
        raise DomainError(f"session count {model.dose_max} exceeds the limit of {MAX_DOSE}")
    probes = set(REFERENCE_DOSES) | set(range(1, model.dose_max + 1))
    if include_zero:
        probes.add(0)
    return tuple(sorted(probes))


@dataclass(frozen=True)
class IndependenceReport:
    """Witness that mu0 ignores its session-count input.

    ``violations`` lists (record index, probe value, prediction at probe,
    prediction at zero) for every bitwise mismatch.
    """

    n_records: int
    probes: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_base_independence(
    model: TLearnerModel, cohort: Cohort, probe_x2=None
) -> IndependenceReport:
    """Assert mu0(x1_k, v) == mu0(x1_k, 0) bitwise for every record and probe.

    Passing is guaranteed because a constant training feature never yields
    split candidates.  When no tree of mu0 splits on the session count, that
    is proved from the forest's structure and no probe is predicted:
    ``predict_many`` reads a feature only to compare it with a threshold.
    Otherwise every record is predicted at every probe, each 0 or passing
    ``_require_dose``.  Violations are report content, not exceptions.
    """
    probes = default_dose_probes(model) if probe_x2 is None else tuple(
        0 if v == 0 else _require_dose(v) for v in probe_x2
    )
    thresholds = model.mu0.thresholds()
    if len(thresholds) == 2 and not thresholds[1].size:
        return IndependenceReport(cohort.n, probes, ())
    x1 = cohort.x1
    base = model.mu0.predict_many(np.column_stack([x1, np.zeros_like(x1)]))
    violations = []
    for v in probes:
        at_probe = model.mu0.predict_many(np.column_stack([x1, np.full_like(x1, float(v))]))
        for k in np.nonzero(at_probe != base)[0]:
            violations.append((int(k), v, float(at_probe[k]), float(base[k])))
    return IndependenceReport(cohort.n, probes, tuple(violations))


def _require_dose(x2) -> int:
    """The one session-count rule, for phi, its surface, the summand, --x2 and
    the nonzero independence probes: a whole number in 1..MAX_DOSE, returned as
    an int (2.0 is 2).  Anything else (2.5, NaN, -1, "2") raises DomainError."""
    try:
        if 1 <= x2 <= MAX_DOSE and x2 == int(x2):
            return int(x2)
    except (TypeError, ValueError):
        pass
    raise DomainError(f"session count must be in 1..{MAX_DOSE} and a whole number, got {x2}")


def phi(model: TLearnerModel, cohort: Cohort, x1, x2) -> float:
    """Average predicted gain if everyone in bin x1 attended x2 sessions: the one
    cell of ``phi_surface(model, cohort, (x1,), (x2,))``; an empty bin raises EmptyBin."""
    surface = phi_surface(model, cohort, (x1,), (x2,))
    if surface.n_missing:
        raise EmptyBin(x1)
    return float(surface.phi[0, 0])


def phi_summand(model: TLearnerModel, x1, x2) -> float:
    """Single-summand form evaluated at the bin value: mu1(x1, x2) - mu0(x1, 0)."""
    x2 = float(_require_dose(x2))
    return model.mu1.predict((float(x1), x2)) - model.mu0.predict((float(x1), 0.0))


@dataclass(frozen=True)
class CateSurface:
    """phi tabulated over a (covariate bin, session count) grid.

    Cells for empty bins are NaN and counted in ``n_missing``.  A session
    count outside the observed treated range is an extrapolation and is
    flagged per column.
    """

    x1_values: tuple
    x2_values: tuple
    phi: np.ndarray
    observed_dose_min: int
    observed_dose_max: int
    extrapolation_flags: tuple
    n_missing: int

    def to_csv(self, path) -> None:
        rows = (
            [repr(float(b)), dose, "" if math.isnan(value) else repr(float(value))]
            for b, values in zip(self.x1_values, self.phi)
            for dose, value in zip(self.x2_values, values)
        )
        write_csv(path, ["x1", "x2", "phi"], rows)

    def to_json(self, path) -> None:
        write_json(path, {
            "x1_values": [float(b) for b in self.x1_values],
            "x2_values": list(self.x2_values),
            "phi": [
                [None if math.isnan(v) else float(v) for v in row] for row in self.phi
            ],
            "extrapolation_flags": [bool(f) for f in self.extrapolation_flags],
            "observed_dose_min": self.observed_dose_min,
            "observed_dose_max": self.observed_dose_max,
            "n_missing": self.n_missing,
        })


def phi_surface(
    model: TLearnerModel, cohort: Cohort, x1_bins=None, x2_values=None
) -> CateSurface:
    """phi over a sorted grid: cell (x1, x2) is the mean over bin x1's members k
    of mu1(x1_k, x2) - mu0(x1_k, x2_k), for x2 passing ``_require_dose`` (mu1
    never saw a zero session count).  Defaults: all populated covariate bins,
    and session counts 1..max observed plus the reference series.

    Only the requested bins' members are predicted, gathered bin after bin: each
    cell is the mean of one slice, and a row's prediction ignores its batch.
    """
    if x2_values is None:
        x2_values = default_dose_probes(model, include_zero=False)
    x2_values = tuple(sorted(set(map(_require_dose, x2_values))))
    members = cohort.bin_members
    x1_bins = tuple(members) if x1_bins is None else tuple(sorted(set(x1_bins)))

    present = [(r, members[b]) for r, b in enumerate(x1_bins) if b in members]
    rows = np.concatenate([np.empty(0, np.intp)] + [part for _, part in present])
    bounds = np.cumsum([0] + [part.size for _, part in present]).tolist()
    X = np.column_stack([cohort.x1[rows], cohort.x2[rows]])
    mu0_obs = model.mu0.predict_many(X)

    grid = np.full((len(x1_bins), len(x2_values)), np.nan)
    for c, dose in enumerate(x2_values):
        X[:, 1] = dose
        diff = model.mu1.predict_many(X) - mu0_obs
        for (r, _), start, end in zip(present, bounds, bounds[1:]):
            grid[r, c] = np.mean(diff[start:end])
    n_missing = (len(x1_bins) - len(present)) * len(x2_values)
    flags = tuple(bool(v < model.dose_min or v > model.dose_max) for v in x2_values)
    return CateSurface(x1_bins, x2_values, grid, model.dose_min, model.dose_max, flags, n_missing)
