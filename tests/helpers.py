"""Cohort construction shortcuts shared across test modules."""

import numpy as np

from catebench.dataset import AUX_FIELDS, Cohort
from catebench.synth import (
    DoseModel,
    LogisticSelection,
    ResponseFn,
    Scenario,
    generate,
)


def cohort_from_arrays(x1, x2, y, precision=1.0):
    """A cohort of the given columns, ids r0, r1, ... and zero aux counts."""
    ids = tuple(f"r{i}" for i in range(len(x1)))
    return Cohort(ids, x1, x2, y, np.zeros((len(ids), len(AUX_FIELDS)), dtype=np.int64), precision)


def cohort_columns(cohort):
    """The cohort's ids and data columns as Python values, for == comparisons."""
    return cohort.ids, *(column.tolist() for column in (cohort.x1, cohort.x2, cohort.y, cohort.aux))


def mirrored_cohort(points, dose=1):
    """Treated and control arms holding identical (x1, y) rows."""
    x1 = [p[0] for p in points] * 2
    y = [p[1] for p in points] * 2
    x2 = [dose] * len(points) + [0] * len(points)
    return cohort_from_arrays(x1, x2, y)


def random_scenario(seed, n=160):
    """A small, moderately varied scenario; both arms near-surely populated."""
    rng = np.random.default_rng(seed)
    effect_kind = ["constant", "linear_dose"][seed % 2]
    effect = (
        ResponseFn("constant", float(rng.uniform(1.0, 4.0)))
        if effect_kind == "constant"
        else ResponseFn("linear_dose", float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 0.6)))
    )
    return Scenario(
        n=n,
        x1_mean=50.0,
        x1_sd=float(rng.uniform(6.0, 10.0)),
        selection=LogisticSelection(
            intercept=float(rng.uniform(-0.6, 0.2)), slope=float(rng.uniform(-0.08, 0.0))
        ),
        dose=DoseModel(p=float(rng.uniform(0.25, 0.5)), max_dose=int(rng.integers(6, 15))),
        mu0_true=ResponseFn("linear_x1", float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.3, 1.0))),
        effect_true=effect,
        noise_sd=float(rng.uniform(1.0, 4.0)),
    )


def random_cohort(seed, n=160):
    """Generated cohort guaranteed to have both arms populated."""
    for attempt in range(10):
        cohort, truth = generate(random_scenario(seed + 1000 * attempt, n), seed=seed + attempt)
        if cohort.treated.any() and not cohort.treated.all():
            return cohort, truth
    raise AssertionError("could not draw a cohort with both arms populated")
