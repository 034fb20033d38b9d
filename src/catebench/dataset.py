"""Cohort ingestion, validation, partitioning, and naive group summaries.

The on-disk format is a headered, comma-separated, UTF-8 CSV (a leading byte
order mark is skipped on reading; files are written without one):

    id,proficiency,f2f,remote,basic_class,exercises,videos,references,diff_deviation

``proficiency`` (admission-test deviation score, the covariate) and
``diff_deviation`` (regular-exam deviation score, the outcome) are decimals;
the remaining columns are nonnegative session/participation counts.  An empty
cell means missing: rows missing the covariate or the outcome are dropped and
counted, while a missing count reads as zero sessions.  A sidecar config of
``canonical = actual`` lines may rename columns.

A record is treated iff its ``f2f`` count is at least 1; the treated/control
partition is always derived from that count, never stored separately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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


def bin_value(v, precision=1.0):
    """Snap a covariate value to its bin: round(v / precision) * precision."""
    try:
        return round(v / precision) * precision
    except (OverflowError, ValueError):  # the quotient is infinite or NaN
        raise DomainError(
            f"covariate {v!r} / bin width {precision!r} is not finite; use a wider bin"
        ) from None


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


@dataclass(frozen=True)
class Cohort:
    """Immutable record collection with treated/control and covariate-bin indexes.

    ``r1``/``r0`` are the (sorted) record indices of treated and control
    students; ``groups`` maps each covariate bin to its member indices and
    always partitions the record set.
    """

    records: tuple
    r1: tuple
    r0: tuple
    groups: dict
    precision: float = 1.0

    @property
    def n(self) -> int:
        return len(self.records)

    def x1_values(self) -> np.ndarray:
        return np.asarray([rec.x1 for rec in self.records], dtype=float)

    def x2_values(self) -> np.ndarray:
        return np.asarray([rec.x2 for rec in self.records], dtype=float)

    def y_values(self) -> np.ndarray:
        return np.asarray([rec.y for rec in self.records], dtype=float)


def _group_indices(records, precision) -> dict:
    buckets: dict = {}
    for i, rec in enumerate(records):
        buckets.setdefault(bin_value(rec.x1, precision), []).append(i)
    return {b: tuple(buckets[b]) for b in sorted(buckets)}


def build_cohort(records, precision=1.0) -> Cohort:
    if precision <= 0:
        raise ValueError("precision must be positive")
    records = tuple(records)
    r1 = tuple(i for i, rec in enumerate(records) if rec.treated)
    r0 = tuple(i for i, rec in enumerate(records) if not rec.treated)
    return Cohort(records, r1, r0, _group_indices(records, precision), float(precision))


def group_by_covariate(cohort: Cohort, precision=None) -> dict:
    """Index sets per covariate bin; precision defaults to the cohort's own."""
    if precision is None:
        precision = cohort.precision
    if precision <= 0:
        raise ValueError("precision must be positive")
    return _group_indices(cohort.records, precision)


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

    def means(indices):
        if not indices:
            return None, None
        ys = np.asarray([cohort.records[i].y for i in indices], dtype=float)
        xs = np.asarray([cohort.records[i].x1 for i in indices], dtype=float)
        return float(ys.mean()), float(xs.mean())

    my1, mx1 = means(cohort.r1)
    my0, mx0 = means(cohort.r0)
    return GroupSummary(len(cohort.r1), len(cohort.r0), my1, my0, mx1, mx0)


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
    if not math.isfinite(value):
        raise ParseError(f"{path}: row {rownum}, column {column!r}: non-finite value")
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
    return value


def load_cohort(path, config: SchemaConfig | None = None, precision=1.0):
    """Read a cohort CSV.  Returns (Cohort, LoadReport).

    Rows missing the covariate or outcome are dropped and counted in the
    report; empty count cells default to 0 (no sessions recorded).
    """
    cfg = config or SchemaConfig.default()
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None

        positions = {}
        missing = []
        for canonical in CANONICAL_COLUMNS:
            actual = cfg.columns[canonical]
            if actual in header:
                positions[canonical] = header.index(actual)
            else:
                missing.append(actual)
        if missing:
            raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")

        records = []
        n_rows = 0
        n_dropped = 0
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            n_rows += 1
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}"
                )
            cells = {canonical: row[pos].strip() for canonical, pos in positions.items()}
            if cells["proficiency"] == "" or cells["diff_deviation"] == "":
                n_dropped += 1
                continue
            x1 = _parse_float(cells["proficiency"], path, rownum, cfg.columns["proficiency"])
            y = _parse_float(cells["diff_deviation"], path, rownum, cfg.columns["diff_deviation"])
            counts = {
                name: _parse_count(cells[name], path, rownum, cfg.columns[name])
                for name in COUNT_COLUMNS
            }
            records.append(
                StudentRecord(
                    id=cells["id"],
                    x1=x1,
                    x2=counts["f2f"],
                    y=y,
                    aux={name: counts[name] for name in AUX_FIELDS},
                )
            )
    return build_cohort(records, precision), LoadReport(n_rows, n_dropped, dict(cfg.columns))


def save_cohort(cohort: Cohort, path, config: SchemaConfig | None = None) -> None:
    """Write a cohort back to the CSV schema (floats keep full precision)."""
    cfg = config or SchemaConfig.default()
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([cfg.columns[c] for c in CANONICAL_COLUMNS])
        for rec in cohort.records:
            writer.writerow(
                [
                    rec.id,
                    repr(float(rec.x1)),
                    rec.x2,
                    rec.aux.get("remote", 0),
                    rec.aux.get("basic_class", 0),
                    rec.aux.get("exercises", 0),
                    rec.aux.get("videos", 0),
                    rec.aux.get("references", 0),
                    repr(float(rec.y)),
                ]
            )
