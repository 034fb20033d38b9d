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

A record is one CSV record as the csv module reads it.  In a file with no '"'
and no NUL, that is one line (ended by "\\n", "\\r\\n" or a lone "\\r") split
at every ",", and the loader splits such a file's lines itself; any other
file, with quoted records, goes through ``csv.reader``.

A record is treated iff its ``f2f`` count is at least 1; the treated/control
partition is always derived from that count, never stored separately.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, islice
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
DECIMAL_RANGE = f"[-{_DECIMAL_MAX:g}, {_DECIMAL_MAX:g}]"
_CHUNK_ROWS = 1024  # records converted per bulk step: bounds the reader's and writer's memory


def to_deviation(raw_scores) -> list[float]:
    """Standardize scores to deviation values: 10 * (x - mean) / sd + 50.

    Uses the population standard deviation (divisor n).  The output has
    mean 50 and population sd 10.  Every score must pass the cohort's value
    rule (``in_decimal_range``), which keeps every intermediate finite;
    any other score, NaN or an infinity included, raises DomainError.
    ZeroVariance is raised exactly when every score is equal; the deviations
    are scaled by the largest before squaring, so no tiny spread underflows.
    Scores below 1 in magnitude are first multiplied, exactly, by the power
    of two that puts the largest in [0.5, 1), so a mean of subnormal scores
    is not rounded away.
    """
    scores = np.asarray(list(raw_scores), dtype=float)
    if scores.size < 2:
        raise EmptyOrSingleton("need at least two scores to standardize")
    if not in_decimal_range(scores):
        raise DomainError(f"scores must be decimals in {DECIMAL_RANGE}")
    if scores.min() == scores.max():
        raise ZeroVariance("all scores are equal; deviation values are undefined")
    largest = float(np.abs(scores).max())
    if largest < 1.0:
        scores = np.ldexp(scores, -np.frexp(largest)[1])
    deviations = scores - scores.mean()
    unit = deviations / np.abs(deviations).max()  # in [-1, 1], one entry at +-1
    rms = float(np.sqrt(np.mean(unit * unit)))  # in [1 / sqrt(n), 1]: sd / largest deviation
    return [10.0 * u / rms + 50.0 for u in unit.tolist()]


def _bin_error(v, precision) -> DomainError:
    return DomainError(f"covariate {v!r} has no finite bin key at bin width {precision!r}")


def bin_value(v, precision=1.0) -> float:
    """The bin key of one covariate value: the one-element view of the rule
    that keys ``Cohort.bins`` (see ``_bin_keys``)."""
    return _bin_keys(np.array([v], dtype=np.float64), float(precision)).item()


@dataclass(frozen=True, eq=False)
class Cohort:
    """Immutable columns, one entry per student in input row order.

    ``x1`` (float64) is the covariate, ``x2`` (int64) the session count, ``y``
    (float64) the outcome and ``aux`` (int64, n x 5) the other counts in
    ``AUX_FIELDS`` order.  ``bins`` holds each key ``bin_value(x1, precision)``:
    the nearest whole number of widths, as an exact decimal (11.6 at 0.1).
    ``Cohort(ids, x1, x2, y, aux, precision)`` is the one constructor; it holds
    the loader's value rule (``in_decimal_range`` for x1 and y, ``_counts`` for
    the counts) and its id rule (``_ids_ok``: a str equal to its own strip(),
    with no "\\r" and no NUL, that encodes as UTF-8), so a saved cohort loads
    back equal; it raises ValueError otherwise.  Its two derived views are
    ``treated`` (x2 >= 1) and ``bin_members`` (each bin key's rows).
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
        x1, y = (np.array(column, dtype=np.float64).reshape(n) for column in (self.x1, self.y))
        if not (in_decimal_range(x1) and in_decimal_range(y)):
            raise ValueError(f"x1 and y must be decimals in {DECIMAL_RANGE}")
        x2 = _counts(self.x2, "x2").reshape(n)
        aux = _counts(self.aux, "aux").reshape(n, len(AUX_FIELDS))
        ids = tuple(self.ids)
        if not _ids_ok(ids):
            bad = next(i for i in ids if not _ids_ok((i,)))
            raise ValueError(f"id {bad!r} is not a UTF-8 str without edge whitespace, '\\r' or NUL")
        bins = _bin_keys(x1, float(self.precision))
        for name, column in zip(("x1", "x2", "y", "aux", "bins"), (x1, x2, y, aux, bins)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", ids)
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


def in_decimal_range(values) -> bool:
    """Whether every value is a decimal in [-1e100, 1e100]; NaN is not."""
    values = np.asarray(values)
    return values.size == 0 or bool(-_DECIMAL_MAX <= values.min() and values.max() <= _DECIMAL_MAX)


def _ids_ok(ids: tuple) -> bool:
    """Whether every id is a str that equals its own strip(), holds no "\\r" and
    no NUL, and encodes as UTF-8: what a cohort CSV reads back unchanged (csv
    writes a "\\r" bare; Python 3.10's reader refuses NUL).  Checked joined."""
    try:
        text = "\r".join(ids)  # TypeError for an id that is not a str
        text.encode("utf-8")  # UnicodeEncodeError for a lone surrogate
    except (TypeError, UnicodeEncodeError):
        return False
    no_cr = text.count("\r") == max(len(ids) - 1, 0)  # only the separators
    return no_cr and "\0" not in text and tuple(map(str.strip, ids)) == ids


def _counts(values, name) -> np.ndarray:
    """``values`` as a new int64 array; a value that is not a nonnegative whole
    number in int64's range (a negative, a fraction, NaN, an infinity, a uint64
    above 2**63 - 1) raises ValueError, where a cast would truncate, wrap or
    warn.  Integer columns never pass through float64, so each value is exact."""
    column = np.asarray(values)
    if column.dtype.kind in "bi":
        valid = column >= 0
    elif column.dtype.kind == "u":
        valid = column <= _COUNT_MAX
    else:
        column = column.astype(np.float64)
        valid = (column >= 0) & (column < 2.0**63) & (column == np.trunc(column))  # False at NaN
    if not valid.all():
        bad = column[~valid][0].item()
        raise ValueError(f"{name} must hold nonnegative int64 whole numbers, got {bad!r}")
    return np.array(column, dtype=np.int64)


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
        for lineno, key, value in config_lines(read_text(path)):
            if value is None:
                raise SchemaError(f"{path}: line {lineno}: expected 'canonical = actual'")
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


def _chunks(records):
    """The records (csv rows, or a file's lines) in lists of up to
    ``_CHUNK_ROWS``.  A csv.Error (a record the csv module refuses) is raised
    after the records before it have been yielded and checked, so errors in
    those rows are reported first."""
    while True:
        chunk = []
        try:
            chunk.extend(islice(records, _CHUNK_ROWS))
        except csv.Error:
            yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _split_lines(lines, width):
    """Lines of a file with no '"' and no NUL, each one record, as (cells,
    width + 1) for ``_bulk_columns``: one ``split(",")`` of the chunk, each
    line's cells followed by one "\\n" cell for its line end.  None unless
    every line holds ``width`` cells, each within the csv module's field size
    limit: only then are these csv's rows."""
    text = _newlines("".join(lines))
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    cells = text.replace("\n", ",\n,").split(",")
    cells.pop()  # the empty cell after the last line end
    n, stride = len(lines), width + 1
    if len(cells) != n * stride or cells[width::stride].count("\n") != n:
        return None  # a blank or ragged line
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, cells)) > limit:
        return None
    return cells, stride


def _convert(records, plain, width, positions, names):
    """One chunk's records, lines of a file with no '"' and no NUL when
    ``plain`` and csv rows otherwise, through ``_bulk_columns``; or the message
    tail of the first rule broken.  Lines that ``_split_lines`` cannot take
    whole are split by csv.reader; a record csv refuses is a broken rule, and
    so is a row of another width that is not blank, before any cell rule."""
    flat = _split_lines(records, width) if plain else None
    if flat is None:
        if plain:
            try:
                records = list(csv.reader(records))
            except csv.Error as exc:  # a field above the csv module's size limit
                return f": {exc}"
        for row in records:
            if len(row) != width and "".join(row).strip():
                return f": expected {width} fields, got {len(row)}"
        flat = [cell for row in records if len(row) == width for cell in row], width
    return _bulk_columns(*flat, positions, names)


def _bulk_columns(cells, stride, positions, names):
    """The one copy of each cell rule.  One chunk's records, each a run of
    ``stride`` cells in ``cells``, converted column by column: (ids, x1, y,
    counts, rows read, rows dropped); or, when a record breaks a rule, the
    message tail (", column 'f2f': not an integer count: 'x'") of the first
    rule broken, in the order id, covariate, outcome, counts.  Only the id,
    covariate and outcome columns are stripped; a record is blank when those
    three are empty and all its cells strip to nothing.  Blank and dropped
    records break no rule.  A tail quotes the column's first cell, so it is
    exact only for one record, the only call whose tail is shown (see
    ``load_cohort``)."""
    columns = [cells[pos::stride] for pos in positions]
    ids, x1, y = (tuple(map(str.strip, columns[k])) for k in (0, 1, 8))
    n_read = len(ids)
    if "" in x1 or "" in y:
        empty = [i for i, cell in enumerate(map("".join, zip(ids, x1, y))) if not cell]
        n_read -= sum(not "".join(cells[i * stride:(i + 1) * stride]).strip() for i in empty)
        keep = [a != "" and b != "" for a, b in zip(x1, y)]
        ids, x1, y = (tuple(compress(column, keep)) for column in (ids, x1, y))
        columns = [list(compress(column, keep)) for column in columns]
    if not _ids_ok(ids):  # a stripped cell of UTF-8 text can only break it with "\r" or NUL
        return f", column {names[0]!r}: an id may not hold '\\r' or NUL: {ids[0]!r}"
    n = len(ids)
    decimals = []  # x1, y
    for k, column in ((1, x1), (8, y)):
        try:
            decimals.append(np.fromiter(map(float, column), np.float64, n))
        except ValueError:
            return f", column {names[k]!r}: not a number: {column[0]!r}"
        if not in_decimal_range(decimals[-1]):
            return f", column {names[k]!r}: {column[0]!r} is not in {DECIMAL_RANGE}"
    counts = np.empty((len(COUNT_COLUMNS), n), dtype=np.int64)
    for k, out in enumerate(counts, start=2):
        try:  # counts repeat, so each distinct raw cell is parsed once; "" reads as 0
            parsed = {cell: int(cell.strip() or "0") for cell in set(columns[k])}
        except ValueError:
            return f", column {names[k]!r}: not an integer count: {columns[k][0].strip()!r}"
        if min(parsed.values(), default=0) < 0:
            return f", column {names[k]!r}: negative count"
        if max(parsed.values(), default=0) > _COUNT_MAX:
            return f", column {names[k]!r}: count above {_COUNT_MAX}"
        if len(parsed) == 1:  # one value, as most auxiliary counts hold
            out[:] = parsed.popitem()[1]
        else:
            out[:] = np.fromiter(map(parsed.__getitem__, columns[k]), np.int64, n)
    return ids, *decimals, counts.T, n_read, n_read - n


def config_lines(text):
    """(line number, key, value) for each ``key = value`` line of ``read_text``'s
    text, stripped, past "#" comments and blank lines; value is None without "="."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, equals, value = line.partition("=")
            yield lineno, key.strip(), value.strip() if equals else None


def read_text(path) -> str:
    """A UTF-8 text file's contents, a byte order mark skipped, lines ended by
    "\\n".  The one byte check of every input file, whole, before it is parsed:
    a byte that is not UTF-8 raises ParseError naming the path and the byte's
    physical line (1-based; a line ends at "\\n", "\\r\\n" or a lone "\\r", as in csv)."""
    path = Path(path)
    try:
        # decoded whole: the incremental utf-8-sig decoder of a text stream
        # reads a file that is only a truncated BOM (b"\xef", b"\xef\xbb") as "",
        # and counts its error offsets from the start of one decode block
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the whole file past any BOM
        lineno = len(exc.object[: exc.start + 1].splitlines())  # the bad byte ends no line
        reason = f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ParseError(f"{path}: line {lineno}: {reason}") from None
    return _newlines(text)


def _newlines(text) -> str:
    """``text`` with each "\\r\\n" and lone "\\r" line end as "\\n", as csv reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_cohort(path, config: SchemaConfig | None = None, precision=1.0):
    """Read a cohort CSV.  Returns (Cohort, LoadReport).

    Rows missing the covariate or outcome are dropped and counted in the
    report; empty count cells default to 0 (no sessions recorded).  The file
    is read in chunks of ``_CHUNK_ROWS`` records, each checked and converted
    column by column by ``_bulk_columns``; a chunk that fails is checked again
    a row at a time.  A file with no '"' and no NUL is read a chunk of lines at
    a time, each line one record: one ``split(",")`` per chunk, columns by
    stride (``_split_lines``).  Any other file is read by ``csv.reader``, the
    one reader of quoted records (and, on Python 3.10, the one that refuses
    NUL), so both give csv's records.
    The bytes are checked whole first (``read_text``), so a byte that is not
    UTF-8 is named by its physical line before any header or row is checked.
    Otherwise an error names the first bad row (rows count CSV records, blank
    ones included) and column, or only the row for a record csv cannot read.
    """
    cfg = config or SchemaConfig.default()
    path = Path(path)
    names = [cfg.columns[c] for c in CANONICAL_COLUMNS]
    for k, name in enumerate(names):
        if name in names[:k]:
            keys = CANONICAL_COLUMNS[names.index(name)], CANONICAL_COLUMNS[k]
            raise SchemaError(f"{path}: {keys[0]!r} and {keys[1]!r} both map to {name!r}")
    text = read_text(path)  # the byte check, first: a bad byte is named before any header or row
    plain = '"' not in text and "\0" not in text  # so each line is one record
    del text  # not held while parsing
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rownum = 1  # the header, then the first record of the chunk being read
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, header row required")
            header = [h.strip() for h in header]
            missing = [name for name in names if name not in header]
            if missing:
                raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")
            repeated = [name for name in names if header.count(name) > 1]
            if repeated:
                raise SchemaError(f"{path}: column {repeated[0]!r} appears twice in the header")
            positions = [header.index(name) for name in names]  # CANONICAL_COLUMNS order

            convert = partial(
                _convert, plain=plain, width=len(header), positions=positions, names=names
            )
            parts = [_bulk_columns([], 1, positions, names)]  # empty columns to start from
            rownum = 2
            for records in _chunks(fh if plain else reader):
                part = convert(records)
                if isinstance(part, str):  # the same check, a row at a time, finds the bad row
                    for k, record in enumerate(records, start=rownum):
                        if isinstance(why := convert([record]), str):
                            raise ParseError(f"{path}: row {k}{why}")
                parts.append(part)
                rownum += len(records)
        except csv.Error as exc:
            # a record the csv module refuses, such as a field above its size limit
            raise ParseError(f"{path}: row {rownum}: {exc}") from None
    ids, x1, y, counts, n_rows, n_dropped = zip(*parts)
    x1, y, counts = (np.concatenate(column) for column in (x1, y, counts))
    cohort = Cohort(tuple(chain.from_iterable(ids)), x1, counts[:, 0], y, counts[:, 1:], precision)
    return cohort, LoadReport(sum(n_rows), sum(n_dropped), dict(cfg.columns))


def _json_member(value) -> str:
    """``value`` as ``json.dumps(payload, indent=2)`` writes it; a number array by ``_cells``."""
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iuf":
        cells = ",\n    ".join(_cells(value, json.dumps))
        return f"[\n    {cells}\n  ]" if cells else "[]"
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def write_json(path, payload) -> None:
    """The JSON format of every output file: indent 2, a final newline, UTF-8;
    the bytes of ``json.dumps(payload, indent=2)``, a dict's 1-D numeric arrays
    read as their ``tolist()``."""
    if isinstance(payload, dict) and payload and set(map(type, payload)) == {str}:
        members = (f"{json.dumps(key)}: {_json_member(value)}" for key, value in payload.items())
        text = "{\n  " + ",\n  ".join(members) + "\n}"
    else:
        text = json.dumps(payload, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _cells(column, special=lambda value: "" if math.isnan(value) else repr(value)) -> list:
    """One column's cells, by the rule in ``write_csv``; ``special`` writes NaN
    and ±inf.  A numeric array goes value by value unless its first 1,024 values
    repeat one (a 0.1 ms check) or it is not all finite; then each distinct bit
    pattern or integer is formatted once, through a sort.  Of 50k floats, 5k
    distinct take 29 ms by value and 5 ms sorted, 50k distinct 29 ms and 33 ms."""
    if not isinstance(column, np.ndarray):  # text, quoted as by the csv module
        quoted = lambda text: "," in text or '"' in text or "\n" in text
        if not quoted("".join(column)):  # checked whole first: most text columns need no quotes
            return column
        return ['"' + cell.replace('"', '""') + '"' if quoted(cell) else cell for cell in column]
    floats = column.dtype.kind == "f"  # keyed by bit pattern: np.unique holds -0.0 == 0.0
    bits = column.astype(np.float64, copy=False).view(np.int64) if floats else column
    if np.unique(bits[:1024]).size == bits[:1024].size and np.isfinite(column).all():
        return list(map(repr, column.tolist()))  # an int's repr is its str
    keys, inverse = np.unique(bits, return_inverse=True)
    values = (keys.view(np.float64) if floats else keys).tolist()
    text = np.array([repr(v) if math.isfinite(v) else special(v) for v in values], dtype=object)
    return text[inverse].tolist()


def write_csv(path, header, columns) -> None:
    """The CSV format of every output file, and the one formatter of its cells:
    the header, then row i of every column; "\\n" line ends, UTF-8.

    A float array is written with ``repr``, NaN as an empty cell, and an
    integer array with ``str``.  Any other column (ids) and the header are
    text, quoted as the csv module quotes (QUOTE_MINIMAL): a cell holding ",",
    '"' or "\\n" goes in double quotes, each '"' doubled.  For a table of two or
    more columns, as every output is, these are the bytes of ``csv.writer``.
    """
    lines = map(",".join, chain([_cells(header)], zip(*map(_cells, columns))))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        while block := list(islice(lines, _CHUNK_ROWS)):  # a block at a time bounds the text
            fh.write("\n".join(block) + "\n")


def save_cohort(cohort: Cohort, path) -> None:
    """Write a cohort in the canonical CSV schema; it loads back equal."""
    write_csv(path, CANONICAL_COLUMNS, (cohort.ids, cohort.x1, cohort.x2, *cohort.aux.T, cohort.y))
