"""Synthetic cohorts with dial-a-bias selection and known ground truth.

Every estimator in the package is verified against cohorts drawn here: the
generator keeps the per-record potential outcomes, the noise draws, and the
latent session count each student would use if treated, so tests can compare
estimates against exact truths instead of re-deriving them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .dataset import AUX_FIELDS, DECIMAL_RANGE, Cohort, config_lines, in_decimal_range
from .dataset import read_text, save_cohort, write_json
from .errors import InvalidScenario, OutOfSupport

_SEED_SPACE = 2**64
# size caps, checked before anything is allocated: a cohort ten times the
# largest benchmarked one, and a session-count support far past any schedule
MAX_N = 1_000_000
MAX_DOSE = 1_000


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
        else:  # at p = 1 this is one weight on dose 1, since 0.0 ** 0 == 1.0
            weights = (1.0 - self.p) ** (doses - 1) * self.p
        return weights / weights.sum()

    def shift(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        if self.x1_slope == 0.0:
            return np.zeros(x1.shape, dtype=int)
        # no shift adds more than max_dose, and the clip keeps the cast in range
        return np.floor(np.clip((self.x1_ref - x1) * self.x1_slope, 0.0, self.max_dose)).astype(int)

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
        _require_finite(self)
        if not (1 <= self.n <= MAX_N):
            raise InvalidScenario("n", f"cohort size must be in 1..{MAX_N}")
        if self.x1_sd < 0:
            raise InvalidScenario("x1_sd", "must be >= 0")
        if self.dose.kind not in DoseModel.KINDS:
            raise InvalidScenario("dose.kind", f"unknown kind {self.dose.kind!r}")
        if not (0.0 < self.dose.p <= 1.0):
            raise InvalidScenario("dose.p", "must be in (0, 1]")
        if not (1 <= self.dose.max_dose <= MAX_DOSE):
            raise InvalidScenario("dose.max_dose", f"must be in 1..{MAX_DOSE}")
        if self.noise_sd < 0:
            raise InvalidScenario("noise_sd", "must be >= 0")
        if self.mu0_true.kind not in ("constant", "linear_x1"):
            raise InvalidScenario("mu0_true", "base response cannot depend on the session count")
        if self.effect_true.kind not in ResponseFn.KINDS:
            raise InvalidScenario("effect_true", f"unknown kind {self.effect_true.kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
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

    def to_json(self, path) -> None:
        """The truth file; ``write_json`` formats the number arrays as lists."""
        write_json(path, {
            "true_ate": self.true_ate,
            "true_att": self.true_att,
            "true_atu": self.true_atu,
            "treated": self.treated.astype(int),
            "latent_dose": self.latent_dose,
            "y0": self.y0,
            "y1": self.y1,
            "noise": self.noise,
            "scenario": self.scenario.to_dict(),
        })


def generate(scenario: Scenario, seed: int = 0):
    """Draw one cohort plus its ground truth; bitwise-deterministic per seed.
    Row i's id is "s%05d" % i.  A draw outside [-1e100, 1e100] raises
    InvalidScenario naming its field, so every mean effect is finite."""
    scenario.validate()
    rng = np.random.default_rng(seed % _SEED_SPACE)
    # extreme but finite fields can overflow a draw; that is checked below
    with np.errstate(over="ignore", invalid="ignore"):
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
    for name, values in (("x1_sd", x1), ("mu0_true", y0), ("effect_true", y1), ("noise_sd", y)):
        if not in_decimal_range(values):
            raise InvalidScenario(name, f"a drawn value is not in {DECIMAL_RANGE}")

    true_ate = float(np.mean(effect))
    true_att = float(np.mean(effect[treated])) if treated.any() else None
    true_atu = float(np.mean(effect[~treated])) if (~treated).any() else None

    ids = tuple(("s%05d\n" * scenario.n % tuple(range(scenario.n))).splitlines())
    cohort = Cohort(ids, x1, x2, y, np.zeros((scenario.n, len(AUX_FIELDS)), dtype=np.int64))
    truth = GroundTruth(
        scenario, y0, y1, latent_dose, noise, treated, true_ate, true_att, true_atu
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

# A flat file names each section field as section_field, with mu0 and effect
# for mu0_true and effect_true, and dose_max for dose.max_dose.
_SECTIONS = {"selection": "selection", "dose": "dose", "mu0": "mu0_true", "effect": "effect_true"}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# keyed by a field's annotation, which is text here (annotations are postponed)
_TEXT_PARSERS = {"int": int, "float": float, "bool": lambda text: _BOOLS[text.lower()], "str": str}
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _cast(kind: str, value):
    """A field value of type ``kind`` from a JSON value or the text of a flat
    file; raises TypeError, ValueError, KeyError or OverflowError if it is neither."""
    if isinstance(value, str):
        value = _TEXT_PARSERS[kind](value)
    # bool is a subclass of int, so it is told apart first
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise TypeError
    return float(value) if kind == "float" else value


def _require_finite(obj, prefix="") -> None:
    """Raise InvalidScenario naming the first non-finite float field, sections included."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _require_finite(value, f"{prefix}{f.name}.")
        elif f.type == "float" and not math.isfinite(value):
            raise InvalidScenario(prefix + f.name, "must be finite")


def _overlay(base, data: dict, path: str = ""):
    """``base`` with each field named in ``data`` replaced by its value, cast
    by the field's type; a section (a nested dataclass) is overlaid field by
    field, so its fields that ``data`` leaves out keep the base's values."""
    types = {f.name: f.type for f in fields(base)}
    changes = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in types:
            raise InvalidScenario(where, "unknown scenario field")
        if types[key] not in _JSON_TYPES:  # a section
            if not isinstance(value, dict):
                raise InvalidScenario(where, "expected a section of fields")
            changes[key] = _overlay(getattr(base, key), value, where)
            continue
        try:
            changes[key] = _cast(types[key], value)
        except (TypeError, ValueError, KeyError, OverflowError):
            raise InvalidScenario(where, f"expected {types[key]}, got {value!r}") from None
    return replace(base, **changes)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from the nested form that ``to_dict`` writes.

    The given fields are laid over the named ``preset``, or over the defaults
    when none is named (then ``n`` is required).  A partial section keeps the
    base's other fields.
    """
    data = dict(data)
    preset = data.pop("preset", None)
    if preset is not None and not (isinstance(preset, str) and preset in PRESETS):
        raise InvalidScenario("preset", f"unknown preset {preset!r}")
    scenario = _overlay(PRESETS[preset]() if preset else Scenario(n=1), data)
    if preset is None and "n" not in data:
        raise InvalidScenario("n", "required when no preset is named")
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    """Read a scenario config: JSON if the file starts with '{', else key=value."""
    text = read_text(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise InvalidScenario("json", str(exc)) from None
        return scenario_from_dict(data)
    data = {}
    for lineno, key, value in config_lines(text):
        if value is None:
            raise InvalidScenario("line", f"{path}: line {lineno}: expected key=value")
        # reshape section_field keys into the nested form of to_dict
        prefix, _, field = ("dose_max_dose" if key == "dose_max" else key).partition("_")
        if prefix in _SECTIONS:
            data.setdefault(_SECTIONS[prefix], {})[field] = value
        else:
            data[key] = value
    return scenario_from_dict(data)
