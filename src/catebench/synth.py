"""Synthetic cohorts with dial-a-bias selection and known ground truth.

Every estimator in the package is verified against cohorts drawn here: the
generator keeps the per-record potential outcomes, the noise draws, and the
latent session count each student would use if treated, so tests can compare
estimates against exact truths instead of re-deriving them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .dataset import AUX_FIELDS, Cohort, save_cohort
from .errors import InvalidScenario, OutOfSupport

_SEED_SPACE = 2**64


@dataclass(frozen=True)
class ResponseFn:
    """Named parametric function of (x1, x2).

    kinds: 'constant' -> a; 'linear_x1' -> a + b*x1; 'linear_dose' -> a + b*x2.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    KINDS: ClassVar[tuple] = ("constant", "linear_x1", "linear_dose")

    def __call__(self, x1, x2=0.0):
        if self.kind == "constant":
            return self.a + 0.0 * np.asarray(x1, dtype=float)
        if self.kind == "linear_x1":
            return self.a + self.b * np.asarray(x1, dtype=float)
        if self.kind == "linear_dose":
            return self.a + self.b * np.asarray(x2, dtype=float) + 0.0 * np.asarray(x1, dtype=float)
        raise InvalidScenario("kind", f"unknown function kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class LogisticSelection:
    """Treatment probability p(x1) = sigmoid(intercept + slope * (x1 - center)).

    A negative slope sends weaker students into treatment, the bias dial;
    slope 0 is unconfounded assignment at a fixed rate.
    """

    intercept: float = -2.0
    slope: float = 0.0
    center: float = 50.0

    def probability(self, x1):
        z = self.intercept + self.slope * (np.asarray(x1, dtype=float) - self.center)
        return 1.0 / (1.0 + np.exp(-z))

    def to_dict(self) -> dict:
        return {"intercept": self.intercept, "slope": self.slope, "center": self.center}


@dataclass(frozen=True)
class DoseModel:
    """Session count among the treated, supported on 1..max_dose.

    ``kind`` picks the base distribution: 'truncated_geometric' (success
    probability ``p``) or 'uniform'.  ``x1_slope`` > 0 adds
    floor((x1_ref - x1) * x1_slope) extra sessions below the reference
    covariate (weaker students attend more), clipped to the support.
    """

    p: float = 0.35
    max_dose: int = 14
    x1_slope: float = 0.0
    x1_ref: float = 50.0
    kind: str = "truncated_geometric"

    KINDS: ClassVar[tuple] = ("truncated_geometric", "uniform")

    def base_probabilities(self) -> np.ndarray:
        doses = np.arange(1, self.max_dose + 1)
        if self.kind == "uniform":
            weights = np.ones(self.max_dose)
        elif self.p >= 1.0:
            weights = (doses == 1).astype(float)
        else:
            weights = (1.0 - self.p) ** (doses - 1) * self.p
        return weights / weights.sum()

    def shift(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        if self.x1_slope == 0.0:
            return np.zeros(x1.shape, dtype=int)
        return np.floor(np.maximum(0.0, (self.x1_ref - x1) * self.x1_slope)).astype(int)

    def sample(self, x1, rng: np.random.Generator) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        cdf = np.cumsum(self.base_probabilities())
        base = 1 + np.searchsorted(cdf, rng.random(x1.size), side="right")
        base = np.minimum(base, self.max_dose)
        return np.minimum(self.max_dose, base + self.shift(x1)).astype(int)

    def expected_dose(self, x1) -> float:
        """Exact E[sessions | treated, x1] by enumerating the support."""
        shift = int(self.shift(np.asarray([x1]))[0])
        doses = np.minimum(self.max_dose, np.arange(1, self.max_dose + 1) + shift)
        return float(np.sum(self.base_probabilities() * doses))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "max_dose": self.max_dose,
            "x1_slope": self.x1_slope,
            "x1_ref": self.x1_ref,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class Scenario:
    """Everything the generator needs: cohort size, covariate distribution,
    selection into treatment, session-count distribution, true response
    surfaces, and outcome noise."""

    n: int
    x1_mean: float = 50.0
    x1_sd: float = 10.0
    round_x1: bool = True
    selection: LogisticSelection = LogisticSelection()
    dose: DoseModel = DoseModel()
    mu0_true: ResponseFn = ResponseFn("constant", 50.0)
    effect_true: ResponseFn = ResponseFn("constant", 3.0)
    noise_sd: float = 0.0

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidScenario("n", "cohort size must be >= 1")
        if self.x1_sd < 0:
            raise InvalidScenario("x1_sd", "must be >= 0")
        if self.dose.kind not in DoseModel.KINDS:
            raise InvalidScenario("dose.kind", f"unknown kind {self.dose.kind!r}")
        if not (0.0 < self.dose.p <= 1.0):
            raise InvalidScenario("dose.p", "must be in (0, 1]")
        if self.dose.max_dose < 1:
            raise InvalidScenario("dose.max_dose", "must be >= 1")
        if self.noise_sd < 0:
            raise InvalidScenario("noise_sd", "must be >= 0")
        if self.mu0_true.kind not in ("constant", "linear_x1"):
            raise InvalidScenario("mu0_true", "base response cannot depend on the session count")
        if self.effect_true.kind not in ResponseFn.KINDS:
            raise InvalidScenario("effect_true", f"unknown kind {self.effect_true.kind!r}")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "x1_mean": self.x1_mean,
            "x1_sd": self.x1_sd,
            "round_x1": self.round_x1,
            "selection": self.selection.to_dict(),
            "dose": self.dose.to_dict(),
            "mu0_true": self.mu0_true.to_dict(),
            "effect_true": self.effect_true.to_dict(),
            "noise_sd": self.noise_sd,
        }


@dataclass(frozen=True)
class GroundTruth:
    """Per-record truths kept beside a generated cohort.

    ``latent_dose`` is the session count each student would use if treated
    (drawn for everyone, observed only for the treated), so the individual
    effect y1 - y0 is defined for every record.  The observed outcome equals
    the assigned-arm potential outcome plus the stored noise, exactly.
    The scalar truths are finite-cohort means of the per-record effects.
    """

    scenario: Scenario
    y0: np.ndarray
    y1: np.ndarray
    latent_dose: np.ndarray
    noise: np.ndarray
    treated: np.ndarray
    true_ate: float
    true_att: float | None
    true_atu: float | None

    def to_json_dict(self) -> dict:
        return {
            "true_ate": self.true_ate,
            "true_att": self.true_att,
            "true_atu": self.true_atu,
            "treated": [int(t) for t in self.treated],
            "latent_dose": [int(d) for d in self.latent_dose],
            "y0": [float(v) for v in self.y0],
            "y1": [float(v) for v in self.y1],
            "noise": [float(v) for v in self.noise],
            "scenario": self.scenario.to_dict(),
        }

    def to_json(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )


def generate(scenario: Scenario, seed: int = 0):
    """Draw one cohort plus its ground truth; bitwise-deterministic per seed."""
    scenario.validate()
    rng = np.random.default_rng(seed % _SEED_SPACE)
    x1 = rng.normal(scenario.x1_mean, scenario.x1_sd, scenario.n)
    if scenario.round_x1:
        x1 = np.rint(x1)
    treated = rng.random(scenario.n) < scenario.selection.probability(x1)
    latent_dose = scenario.dose.sample(x1, rng)
    noise = rng.normal(0.0, scenario.noise_sd, scenario.n)

    y0 = np.asarray(scenario.mu0_true(x1, 0.0), dtype=float)
    effect = np.asarray(scenario.effect_true(x1, latent_dose.astype(float)), dtype=float)
    y1 = y0 + effect
    x2 = np.where(treated, latent_dose, 0)
    y = np.where(treated, y1, y0) + noise

    ids = tuple(f"s{i:05d}" for i in range(scenario.n))
    cohort = Cohort(ids, x1, x2, y, np.zeros((scenario.n, len(AUX_FIELDS)), dtype=np.int64))
    true_att = float(np.mean(effect[treated])) if treated.any() else None
    true_atu = float(np.mean(effect[~treated])) if (~treated).any() else None
    truth = GroundTruth(
        scenario,
        y0,
        y1,
        latent_dose,
        noise,
        treated,
        float(np.mean(effect)),
        true_att,
        true_atu,
    )
    return cohort, truth


def true_effects(truth: GroundTruth, kind: str, x1=None, x2=None) -> float:
    """Closed-form true effect queries against a generated cohort.

    kinds: 'ate' / 'att' / 'atu' (finite-cohort means), 'tau' at (x1, x2),
    'tau_x1' at x1 (dose-dependent effects average over the session-count
    distribution at that covariate).
    """
    scenario = truth.scenario
    if kind == "ate":
        return truth.true_ate
    if kind == "att":
        if truth.true_att is None:
            raise OutOfSupport("no treated records in this cohort")
        return truth.true_att
    if kind == "atu":
        if truth.true_atu is None:
            raise OutOfSupport("no control records in this cohort")
        return truth.true_atu
    if kind == "tau":
        if x1 is None or x2 is None:
            raise ValueError("tau queries need x1 and x2")
        if not (1 <= x2 <= scenario.dose.max_dose):
            raise OutOfSupport(f"x2={x2} outside 1..{scenario.dose.max_dose}")
        return float(scenario.effect_true(float(x1), float(x2)))
    if kind == "tau_x1":
        if x1 is None:
            raise ValueError("tau_x1 queries need x1")
        if scenario.effect_true.kind == "linear_dose":
            return float(
                scenario.effect_true.a
                + scenario.effect_true.b * scenario.dose.expected_dose(float(x1))
            )
        return float(scenario.effect_true(float(x1), 0.0))
    raise ValueError(f"unknown query kind {kind!r}")


def save_synthetic(cohort: Cohort, truth: GroundTruth, csv_path) -> Path:
    """Write the cohort CSV plus a sibling .truth.json; returns the truth path."""
    csv_path = Path(csv_path)
    save_cohort(cohort, csv_path)
    truth_path = csv_path.with_suffix(csv_path.suffix + ".truth.json")
    if csv_path.suffix == ".csv":
        truth_path = csv_path.with_name(csv_path.stem + ".truth.json")
    truth.to_json(truth_path)
    return truth_path


# ---------------------------------------------------------------------------
# Presets


def standard_biased_scenario(n: int = 10_000) -> Scenario:
    """Weaker students self-select into treatment; true effect is +3.

    The naive treated-vs-control outcome gap comes out negative even though
    every individual effect is positive.
    """
    return Scenario(
        n=n,
        x1_mean=50.0,
        x1_sd=10.0,
        round_x1=True,
        selection=LogisticSelection(intercept=-0.6, slope=-0.12),
        dose=DoseModel(p=0.35, max_dose=14),
        mu0_true=ResponseFn("linear_x1", 0.0, 1.0),
        effect_true=ResponseFn("constant", 3.0),
        noise_sd=5.0,
    )


def dose_recovery_scenario(n: int = 20_000) -> Scenario:
    """Noiseless dose-linear effect 1 + 0.5*x2 on a flat base response.

    The session-count distribution is uniform, which puts symmetric split
    candidates in an exact expected tie so bootstrap resampling diversifies
    the fitted thresholds across trees.
    """
    return Scenario(
        n=n,
        x1_mean=50.0,
        x1_sd=10.0,
        round_x1=True,
        selection=LogisticSelection(intercept=0.0, slope=0.0),
        dose=DoseModel(max_dose=14, kind="uniform"),
        mu0_true=ResponseFn("constant", 50.0),
        effect_true=ResponseFn("linear_dose", 1.0, 0.5),
        noise_sd=0.0,
    )


def biased_dose_scenario(n: int = 6_000) -> Scenario:
    """Dose-linear effect with weaker students attending more sessions.

    Both selection and the session count lean on the covariate, so students
    with larger observed counts sit where the estimated effect is larger.
    """
    return Scenario(
        n=n,
        x1_mean=50.0,
        x1_sd=10.0,
        round_x1=True,
        selection=LogisticSelection(intercept=-0.4, slope=-0.08),
        dose=DoseModel(p=0.35, max_dose=14, x1_slope=0.4, x1_ref=50.0),
        mu0_true=ResponseFn("linear_x1", 0.0, 0.3),
        effect_true=ResponseFn("linear_dose", 1.0, 0.5),
        noise_sd=2.0,
    )


PRESETS = {
    "standard_biased": standard_biased_scenario,
    "dose_recovery": dose_recovery_scenario,
    "biased_dose": biased_dose_scenario,
}


# ---------------------------------------------------------------------------
# Scenario config files (JSON, or flat key=value)

_FLAT_KEYS = {
    "preset": str,
    "n": int,
    "x1_mean": float,
    "x1_sd": float,
    "round_x1": bool,
    "selection_intercept": float,
    "selection_slope": float,
    "selection_center": float,
    "dose_p": float,
    "dose_max": int,
    "dose_kind": str,
    "dose_x1_slope": float,
    "dose_x1_ref": float,
    "mu0_kind": str,
    "mu0_a": float,
    "mu0_b": float,
    "effect_kind": str,
    "effect_a": float,
    "effect_b": float,
    "noise_sd": float,
}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise InvalidScenario(key, f"expected a boolean, got {raw!r}")


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from the nested dict form (as written by to_dict)."""
    data = dict(data)
    preset = data.pop("preset", None)
    base = PRESETS[preset]() if preset in PRESETS else None
    if preset is not None and base is None:
        raise InvalidScenario("preset", f"unknown preset {preset!r}")
    known = {"n", "x1_mean", "x1_sd", "round_x1", "selection", "dose",
             "mu0_true", "effect_true", "noise_sd"}
    unknown = set(data) - known
    if unknown:
        raise InvalidScenario(sorted(unknown)[0], "unknown scenario field")
    kwargs = {}
    for key in ("n", "x1_mean", "x1_sd", "round_x1", "noise_sd"):
        if key in data:
            kwargs[key] = data[key]
    if "selection" in data:
        kwargs["selection"] = LogisticSelection(**data["selection"])
    if "dose" in data:
        kwargs["dose"] = DoseModel(**data["dose"])
    if "mu0_true" in data:
        kwargs["mu0_true"] = ResponseFn(**data["mu0_true"])
    if "effect_true" in data:
        kwargs["effect_true"] = ResponseFn(**data["effect_true"])
    if base is not None:
        scenario = replace(base, **kwargs)
    else:
        if "n" not in kwargs:
            raise InvalidScenario("n", "required when no preset is named")
        scenario = Scenario(**kwargs)
    scenario.validate()
    return scenario


def _scenario_from_flat(pairs: dict) -> Scenario:
    preset = pairs.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise InvalidScenario("preset", f"unknown preset {preset!r}")
    base = PRESETS[preset]() if preset else Scenario(n=1)
    selection = base.selection
    dose = base.dose
    mu0 = base.mu0_true
    effect = base.effect_true
    scalars: dict = {}
    for key, raw in pairs.items():
        if key not in _FLAT_KEYS:
            raise InvalidScenario(key, "unknown scenario key")
        caster = _FLAT_KEYS[key]
        try:
            value = _parse_bool(raw, key) if caster is bool else caster(raw)
        except ValueError:
            raise InvalidScenario(key, f"could not parse {raw!r}") from None
        if key.startswith("selection_"):
            selection = replace(selection, **{key.removeprefix("selection_"): value})
        elif key == "dose_max":
            dose = replace(dose, max_dose=value)
        elif key == "dose_kind":
            dose = replace(dose, kind=value)
        elif key.startswith("dose_"):
            dose = replace(dose, **{key.removeprefix("dose_"): value})
        elif key.startswith("mu0_"):
            mu0 = replace(mu0, **{key.removeprefix("mu0_"): value})
        elif key.startswith("effect_"):
            effect = replace(effect, **{key.removeprefix("effect_"): value})
        else:
            scalars[key] = value
    if not preset and "n" not in scalars:
        raise InvalidScenario("n", "required when no preset is named")
    scenario = replace(
        base, selection=selection, dose=dose, mu0_true=mu0, effect_true=effect, **scalars
    )
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    """Read a scenario config: JSON if the file starts with '{', else key=value."""
    text = Path(path).read_text(encoding="utf-8-sig")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidScenario("json", str(exc)) from None
        return scenario_from_dict(data)
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidScenario("line", f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return _scenario_from_flat(pairs)
