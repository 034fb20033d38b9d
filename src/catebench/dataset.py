"""Cohort ingestion, validation, partitioning, and naive group summaries.

The on-disk format is a headered, comma-separated, UTF-8 CSV (a leading byte
order mark is skipped on reading; files are written without one):

    id,proficiency,f2f,remote,basic_class,exercises,videos,references,diff_deviation

``proficiency`` (admission-test deviation score, the covariate) and
``diff_deviation`` (regular-exam deviation score, the outcome) are decimals in
[-1e100, 1e100]; the remaining columns are nonnegative session/participation
counts.  An empty cell means missing: rows missing the covariate or the
outcome are dropped and counted, while a missing count reads as zero sessions.
A sidecar config of ``canonical = actual`` lines may rename columns, each to
its own header.

A record is treated iff its ``f2f`` count is at least 1; the treated/control
partition is always derived from that count, never stored separately.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyInput, EmptyOrSingleton, ParseError, SchemaError, ZeroVariance

CANONICAL_COLUMNS = (
    "id",
    "proficiency",
    "f2f",
    "remote",
    "basic_class",
    "exercises",
    "videos",
    "references",
    "diff_deviation",
)
AUX_FIELDS = ("remote", "basic_class", "exercises", "videos", "references")
COUNT_COLUMNS = ("f2f",) + AUX_FIELDS
_COUNT_MAX = 2**63 - 1  # counts are stored as int64
_DECIMAL_MAX = 1e100  # keeps squared sums over any feasible row count finite


def to_deviation(raw_scores) -> list[float]:
    """Standardize scores to deviation values: 10 * (x - mean) / sd + 50.

    Uses the population standard deviation (divisor n).  The output has
    mean 50 and population sd 10.
    """
    scores = np.asarray(list(raw_scores), dtype=float)
    if scores.size < 2:
        raise EmptyOrSingleton("need at least two scores to standardize")
    mean = float(scores.mean())
    sd = float(scores.std())
    if sd == 0.0:
        raise ZeroVariance("all scores are equal; deviation values are undefined")
    return [10.0 * (s - mean) / sd + 50.0 for s in scores.tolist()]


def _bin_error(v, precision) -> DomainError:
    return DomainError(f"covariate {v!r} has no finite bin key at bin width {precision!r}")


def bin_value(v, precision=1.0) -> float:
    """The bin key of one covariate value: the one-element view of the rule
    that keys ``Cohort.bins`` (see ``_bin_keys``)."""
    return _bin_keys(np.array([v], dtype=np.float64), float(precision)).item()


@dataclass(frozen=True)
class StudentRecord:
    """One student: covariate x1, session count x2, outcome y, extra counts."""

    id: str
    x1: float
    x2: int
    y: float
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.y)):
            raise ValueError("x1 and y must be finite")
        if self.x2 < 0 or int(self.x2) != self.x2:
            raise ValueError("x2 must be a nonnegative integer")

    @property
    def treated(self) -> bool:
        return self.x2 >= 1


@dataclass(frozen=True, eq=False)
class Cohort:
    """Immutable columns, one entry per student in input row order.

    ``x1`` (float64) is the covariate, ``x2`` (int64) the session count, ``y``
    (float64) the outcome and ``aux`` (int64, n x 5) the other counts in
    ``AUX_FIELDS`` order.  ``bins`` holds each key ``bin_value(x1, precision)``:
    the nearest whole number of widths, as an exact decimal (11.6 at 0.1).
    A student is treated iff x2 >= 1; that mask is derived on demand.

    ``records``, ``r1``, ``r0`` and ``groups`` are record-level views for
    callers that want Python objects; each is built on first access.
    """

    ids: tuple
    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    aux: np.ndarray
    precision: float = 1.0
    bins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.precision < math.inf:
            raise ValueError("precision must be finite and positive")
        n = len(self.ids)
        x1 = np.array(self.x1, dtype=np.float64).reshape(n)
        y = np.array(self.y, dtype=np.float64).reshape(n)
        x2 = np.array(self.x2, dtype=np.int64).reshape(n)
        if not (np.isfinite(x1).all() and np.isfinite(y).all()):
            raise ValueError("x1 and y must be finite")
        if (x2 < 0).any():
            raise ValueError("x2 must be nonnegative")
        aux = np.array(self.aux, dtype=np.int64).reshape(n, len(AUX_FIELDS))
        bins = _bin_keys(x1, float(self.precision))
        for name, column in zip(("x1", "x2", "y", "aux", "bins"), (x1, x2, y, aux, bins)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "precision", float(self.precision))

    @property
    def n(self) -> int:
        return self.x1.size

    @property
    def treated(self) -> np.ndarray:
        return self.x2 >= 1

    @cached_property
    def bin_members(self) -> dict:
        """Each bin key, ascending, mapped to its member rows in ascending order."""
        keys, inverse = np.unique(self.bins, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        order.flags.writeable = False  # the split views below inherit this
        return dict(zip(keys.tolist(), np.split(order, np.cumsum(np.bincount(inverse))[:-1])))

    # --- record-level views ---------------------------------------------------

    @cached_property
    def records(self) -> tuple:
        aux = (dict(zip(AUX_FIELDS, row)) for row in self.aux.tolist())
        columns = zip(self.ids, self.x1.tolist(), self.x2.tolist(), self.y.tolist(), aux)
        return tuple(StudentRecord(*fields) for fields in columns)

    @cached_property
    def r1(self) -> tuple:
        return tuple(np.flatnonzero(self.treated).tolist())

    @cached_property
    def r0(self) -> tuple:
        return tuple(np.flatnonzero(~self.treated).tolist())

    @cached_property
    def groups(self) -> dict:
        return {b: tuple(rows.tolist()) for b, rows in self.bin_members.items()}

    def x2_values(self) -> np.ndarray:
        return self.x2.astype(float)

    def y_values(self) -> np.ndarray:
        return self.y.copy()


def _bin_keys(x1, precision) -> np.ndarray:
    # code rint(x1 / w) times w's shortest decimal p / q: the exact decimal while
    # |code * p| and q are below 2**53.  A p or q above that (w = 1e-300) or an
    # overflowing code * p keys as code * w.  rint breaks ties to even like
    # round(); + 0.0 turns a -0.0 key into 0.0
    p, q = Fraction(repr(precision)).as_integer_ratio()
    if max(p, q) > 2**53:
        p, q = precision, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        codes = np.rint(x1 / precision)
        keys = codes * p / q
        keys = np.where(np.isinf(keys), codes * precision, keys) + 0.0
    finite = np.isfinite(keys)
    if not finite.all():
        raise _bin_error(float(x1[np.argmin(finite)]), precision)
    return keys


def build_cohort(records, precision=1.0) -> Cohort:
    """Columns from StudentRecord objects; a missing aux count reads as zero."""
    records = tuple(records)
    return Cohort(
        tuple(rec.id for rec in records),
        [rec.x1 for rec in records],
        [rec.x2 for rec in records],
        [rec.y for rec in records],
        [[rec.aux.get(name, 0) for name in AUX_FIELDS] for rec in records],
        precision,
    )


def group_by_covariate(cohort: Cohort, precision=None) -> dict:
    """Index sets per covariate bin; precision defaults to the cohort's own."""
    if precision is None:
        precision = cohort.precision
    return Cohort(cohort.ids, cohort.x1, cohort.x2, cohort.y, cohort.aux, precision).groups


@dataclass(frozen=True)
class GroupSummary:
    """Naive treated-vs-control comparison; means are None for empty groups."""

    n_treated: int
    n_control: int
    mean_y_treated: float | None
    mean_y_control: float | None
    mean_x1_treated: float | None
    mean_x1_control: float | None


def summarize(cohort: Cohort) -> GroupSummary:
    if cohort.n == 0:
        raise EmptyInput("cohort is empty")
    treated = cohort.treated

    def means(rows):
        if not rows.any():
            return None, None
        return float(cohort.y[rows].mean()), float(cohort.x1[rows].mean())

    my1, mx1 = means(treated)
    my0, mx0 = means(~treated)
    n_treated = int(treated.sum())
    return GroupSummary(n_treated, cohort.n - n_treated, my1, my0, mx1, mx0)


@dataclass(frozen=True)
class SchemaConfig:
    """Column renames for the cohort CSV: canonical name -> actual header."""

    columns: dict

    @classmethod
    def default(cls) -> "SchemaConfig":
        return cls({name: name for name in CANONICAL_COLUMNS})

    @classmethod
    def from_file(cls, path) -> "SchemaConfig":
        columns = {name: name for name in CANONICAL_COLUMNS}
        for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1
        ):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}: line {lineno}: expected 'canonical = actual'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in columns:
                raise SchemaError(f"{path}: line {lineno}: unknown column key {key!r}")
            if not value:
                raise SchemaError(f"{path}: line {lineno}: empty column name for {key!r}")
            columns[key] = value
        return cls(columns)


@dataclass(frozen=True)
class LoadReport:
    """What loading did: rows read, rows dropped, resolved column names."""

    n_rows: int
    n_dropped: int
    columns: dict


def _parse_float(cell, path, rownum, column) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: row {rownum}, column {column!r}: not a number: {cell!r}"
        ) from None
    if not abs(value) <= _DECIMAL_MAX:
        bound = f"[-{_DECIMAL_MAX:g}, {_DECIMAL_MAX:g}]"
        raise ParseError(f"{path}: row {rownum}, column {column!r}: {cell!r} is not in {bound}")
    return value


def _parse_count(cell, path, rownum, column) -> int:
    if cell == "":
        return 0
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(
            f"{path}: row {rownum}, column {column!r}: not an integer count: {cell!r}"
        ) from None
    if value < 0:
        raise ParseError(f"{path}: row {rownum}, column {column!r}: negative count")
    if value > _COUNT_MAX:
        raise ParseError(f"{path}: row {rownum}, column {column!r}: count above {_COUNT_MAX}")
    return value


def load_cohort(path, config: SchemaConfig | None = None, precision=1.0):
    """Read a cohort CSV.  Returns (Cohort, LoadReport).

    Rows missing the covariate or outcome are dropped and counted in the
    report; empty count cells default to 0 (no sessions recorded).
    """
    cfg = config or SchemaConfig.default()
    path = Path(path)
    names = [cfg.columns[c] for c in CANONICAL_COLUMNS]
    for k, name in enumerate(names):
        if name in names[:k]:
            keys = CANONICAL_COLUMNS[names.index(name)], CANONICAL_COLUMNS[k]
            raise SchemaError(f"{path}: {keys[0]!r} and {keys[1]!r} both map to {name!r}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        missing = [name for name in names if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")
        positions = [header.index(name) for name in names]  # CANONICAL_COLUMNS order

        ids, x1, y, counts = [], [], [], []
        n_rows = 0
        n_dropped = 0
        for rownum, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            n_rows += 1
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}"
                )
            cells = [row[pos].strip() for pos in positions]
            if cells[1] == "" or cells[8] == "":
                n_dropped += 1
                continue
            x1.append(_parse_float(cells[1], path, rownum, names[1]))
            y.append(_parse_float(cells[8], path, rownum, names[8]))
            counts.append([_parse_count(cells[k], path, rownum, names[k]) for k in range(2, 8)])
            ids.append(cells[0])
    counts = np.array(counts, dtype=np.int64).reshape(-1, len(COUNT_COLUMNS))
    cohort = Cohort(tuple(ids), x1, counts[:, 0], y, counts[:, 1:], precision)
    return cohort, LoadReport(n_rows, n_dropped, dict(cfg.columns))


def write_json(path, payload) -> None:
    """The JSON format of every output file: indent 2, a final newline, UTF-8."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """The CSV format of every output file: a header row, "\\n" line ends, UTF-8."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_cohort(cohort: Cohort, path) -> None:
    """Write a cohort in the canonical CSV schema (floats keep full precision)."""
    x1, y = (list(map(repr, column.tolist())) for column in (cohort.x1, cohort.y))
    rows = zip(cohort.ids, x1, cohort.x2.tolist(), *cohort.aux.T.tolist(), y)
    write_csv(path, CANONICAL_COLUMNS, rows)
