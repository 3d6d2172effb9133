"""Run-record data model, competition manifest, and the file formats.

The runs file is a CSV whose header is exactly the fields of
:class:`RunRecord`, in their order (``RUNS_HEADER``)::

    planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length

where ``solved`` is 0/1 and an empty string encodes an absent optional
field; fields are stripped of surrounding blanks.  The manifest is a JSON
document declaring planners (with category and entered levels) and problem
sets (domain, level, size class, quality direction, ordered problem ids);
as a record can name none that is padded, it refuses a padded name.

A missing (planner, problem) row means "did not attempt"; a row with
solved=0 means "attempted, no solution".  Downstream tests treat both as
unsolved; the distinction is kept for reporting only.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import operator
from dataclasses import dataclass, field, fields
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

class DataError(ValueError):
    """Base class for all data-file format errors."""


class MissingHeader(DataError):
    pass


class BadField(DataError):
    def __init__(self, row: int, column: str, reason: str):
        super().__init__(f"row {row}, column {column!r}: {reason}")
        self.row = row
        self.column = column
        self.reason = reason


class DuplicateKey(DataError):
    def __init__(self, row: int, key: tuple):
        super().__init__(f"row {row}: duplicate record key {key}")
        self.row = row
        self.key = key


class ParseError(DataError):
    pass


class UnknownLevel(DataError):
    pass


class EmptyProblemList(DataError):
    pass


class DuplicateProblem(DataError):
    pass


class NoProblems(ValueError):
    """No problem set exists for the requested level, size class or domain."""


class Level(enum.Enum):
    STRIPS = "strips"
    NUMERIC = "numeric"
    HARD_NUMERIC = "hardnumeric"
    SIMPLE_TIME = "simpletime"
    TIME = "time"
    COMPLEX = "complex"

    # members are singletons compared by identity; Enum's hash of the name
    # runs in Python on every dict and set lookup keyed by a level
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "Level":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise UnknownLevel(f"unknown level {text!r}") from None


class Category(enum.Enum):
    FULLY_AUTOMATED = "fully-automated"
    HAND_CODED = "hand-coded"


class SizeClass(enum.Enum):
    SMALL = "small"
    LARGE = "large"


class QualityDirection(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


def sizes_faced(category: Category) -> tuple[SizeClass, ...]:
    """The problem size classes a category's planners face: hand-coded
    planners face the small and the large collections, the rest the small."""
    if category is Category.HAND_CODED:
        return (SizeClass.SMALL, SizeClass.LARGE)
    return (SizeClass.SMALL,)


@dataclass(frozen=True)
class RunRecord:
    """One planner's result on one problem instance."""

    planner: str
    domain: str
    level: Level
    problem: str
    solved: bool
    time_ms: int | None = None
    metric_value: float | None = None
    seq_length: int | None = None
    conc_length: int | None = None

    @property
    def key(self) -> tuple[str, str, Level, str]:
        return (self.planner, self.domain, self.level, self.problem)


# the runs CSV's columns; a RunTable holds one column per record field
RUNS_HEADER = tuple(f.name for f in fields(RunRecord))


@dataclass(frozen=True)
class PlannerEntry:
    name: str
    category: Category
    levels_entered: frozenset[Level]


@dataclass(frozen=True)
class ProblemSet:
    domain: str
    level: Level
    size_class: SizeClass
    quality_direction: QualityDirection
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Manifest:
    """Declares the planners and problem sets a dataset may reference.

    Planner names, (domain, level, size class) sets and each (domain,
    level)'s problems are unique: a repeat raises the error
    :func:`parse_manifest` reports for it, however the manifest is built.
    Each (level, size class) grid's columns are the problems of its sets,
    in set and problem order.  Laid side by side, grids in the order of
    their first set, every column has a code; ``_by_problem`` gives each
    (domain, level, problem) the code of its column, and ``_layouts`` each
    grid's codes ``range(start, stop)`` and each domain's columns in it.
    """

    planners: tuple[PlannerEntry, ...]
    problem_sets: tuple[ProblemSet, ...]
    # lookup indexes
    _by_name: dict[str, PlannerEntry] = field(init=False, repr=False, compare=False)
    _by_problem: dict[tuple[str, Level, str], int] = field(init=False, repr=False, compare=False)
    # the problem set of each column code
    _column_sets: tuple[ProblemSet, ...] = field(init=False, repr=False, compare=False)
    _layouts: dict[tuple[Level, SizeClass], tuple[int, int, dict[str, slice]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_name: dict[str, PlannerEntry] = {}
        for p in self.planners:
            if p.name in by_name:
                raise ParseError(f"duplicate planner name {p.name!r}")
            by_name[p.name] = p
        members = {(s.level, s.size_class): [] for s in self.problem_sets}
        for k, s in enumerate(self.problem_sets):
            members[s.level, s.size_class].append(k)
        starts = [0] * len(self.problem_sets)
        column_sets: list[ProblemSet] = []
        layouts = {}
        for key, sets in members.items():
            start = len(column_sets)
            spans: dict[str, slice] = {}
            for k in sets:
                s = self.problem_sets[k]
                starts[k] = len(column_sets)
                column_sets += [s] * len(s.problems)
                spans[s.domain] = slice(starts[k] - start, len(column_sets) - start)
            layouts[key] = (start, len(column_sets), spans)
        # checked in set order, as parse_manifest reads the sets
        cells: set[tuple[str, Level, SizeClass]] = set()
        by_problem: dict[tuple[str, Level, str], int] = {}
        for s, start in zip(self.problem_sets, starts):
            where = f"{s.domain}/{s.level.value}"
            if (s.domain, s.level, s.size_class) in cells:
                raise ParseError(f"duplicate problem set for {where}/{s.size_class.value}")
            cells.add((s.domain, s.level, s.size_class))
            for code, problem in enumerate(s.problems, start):
                if (s.domain, s.level, problem) in by_problem:
                    raise DuplicateProblem(f"duplicate problem {problem!r} in {where}")
                by_problem[s.domain, s.level, problem] = code
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_problem", by_problem)
        object.__setattr__(self, "_column_sets", tuple(column_sets))
        object.__setattr__(self, "_layouts", layouts)

    def planner(self, name: str) -> PlannerEntry | None:
        return self._by_name.get(name)

    def entered(self, name: str, level: Level) -> bool:
        """Whether planner ``name`` entered ``level``; False for an
        undeclared name."""
        entry = self._by_name.get(name)
        return entry is not None and level in entry.levels_entered

    def planners_in(self, category: Category, level: Level) -> list[PlannerEntry]:
        """The category's planners that entered ``level``, in name order."""
        ps = [p for p in self.planners if p.category == category and level in p.levels_entered]
        return sorted(ps, key=lambda p: p.name)

    def sets_at(
        self,
        level: Level | None = None,
        size_class: SizeClass | None = None,
        domain: str | None = None,
    ) -> list[ProblemSet]:
        out = list(self.problem_sets)
        if level is not None:
            out = [s for s in out if s.level == level]
        if size_class is not None:
            out = [s for s in out if s.size_class == size_class]
        if domain is not None:
            out = [s for s in out if s.domain == domain]
        return out

    def levels(self) -> list[Level]:
        seen = []
        for s in self.problem_sets:
            if s.level not in seen:
                seen.append(s.level)
        return seen


# the value fields of a record, each laid out as a float array in a RunGrid
VALUE_FIELDS = ("time_ms", "metric_value", "seq_length", "conc_length")


class _CellArrays(dict):
    """A table's solved column and value columns as read-only arrays, each
    with one trailing unsolved entry, each made the first time it is read;
    a value column's floats are NaN where absent or unsolved.  It holds the
    table's columns, not the table, so the grids that share it keep no
    reference to the table."""

    def __init__(self, columns: dict[str, Sequence]):
        super().__init__()
        self.columns = columns

    def __missing__(self, name: str) -> np.ndarray:
        if name == "solved":
            array = np.array([*self.columns["solved"], False], dtype=bool)
        else:
            array = np.array([*self.columns[name], None], dtype=float)
            array[~self["solved"]] = math.nan
        array.flags.writeable = False
        self[name] = array
        return array


class _GridValues(Mapping[str, np.ndarray]):
    """A grid's value fields by name, each indexed into the grid's cells
    from the table's arrays the first time it is read, and kept read-only."""

    def __init__(self, arrays: _CellArrays, index: np.ndarray):
        self._arrays = arrays
        self._index = index
        self._laid_out: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        values = self._laid_out.get(name)
        if values is None:
            if name not in VALUE_FIELDS:
                raise KeyError(name)
            values = self._laid_out[name] = self._arrays[name][self._index]
            values.flags.writeable = False
        return values

    def __iter__(self) -> Iterator[str]:
        return iter(VALUE_FIELDS)

    def __len__(self) -> int:
        return len(VALUE_FIELDS)


@dataclass(frozen=True, eq=False)
class RunGrid:
    """The records at one (level, size class) as planner × problem arrays.

    Columns are the problems of the level's sets of that size class, in
    manifest set and problem order; ``spans`` gives each domain's columns
    and :meth:`span` one domain's.
    Rows are planner names in name order: the manifest's planners and every
    planner with a record at the level.  ``index`` holds the table row of
    each cell's record, -1 where there is none, and ``values`` each value
    field as floats, NaN where the cell has no record, is unsolved or
    lacks the field.  A value field is converted and laid out the first
    time an analysis reads it, so a command that reads only solve times
    converts no other field.  Every analysis that reads the table shares
    the grid, so its arrays are read-only.
    """

    level: Level
    size_class: SizeClass
    names: tuple[str, ...]
    rows: dict[str, int]
    spans: dict[str, slice]
    # per column: its set maximizes the metric
    maximize: np.ndarray
    index: np.ndarray
    present: np.ndarray
    solved: np.ndarray
    values: Mapping[str, np.ndarray]

    def span(self, domain: str) -> slice:
        """The columns of ``domain``'s problem set.

        Raises:
            NoProblems: if the domain has no problem set at the grid's
                level and size class.
        """
        span = self.spans.get(domain)
        if span is None:
            raise NoProblems(f"no {self.size_class.value} problem set for "
                             f"{domain}/{self.level.value}")
        return span

    def attempted(self, span: slice) -> list[str]:
        """Planners with a record in the columns ``span``, in name order."""
        hits = self.present[:, span].any(axis=1)
        return [name for name, hit in zip(self.names, hits.tolist()) if hit]


class RunTable(Sequence[RunRecord]):
    """The run records as columns, one list per field of ``RUNS_HEADER``, in
    their order.

    The analyses read records through :meth:`grid`, which lays out one
    (level, size class) the first time an analysis asks for it and keeps
    it for the manifest it was laid out by; validation lays out none.
    A value column is converted to floats once, the first time an analysis
    reads its field in any grid, and a grid indexes it into its cells on
    its own first read of the field.
    Each record is numbered by its planner when the table is built
    (``planner_ids``, a position in ``planner_names``) and placed once per
    manifest (:meth:`codes`); a grid selects its cells and rows from those
    numbers.  A record object is built only when one is asked for, by
    indexing or iterating.  No two records share a (planner, domain, level,
    problem) key: the loader and :meth:`of` refuse a repeat.
    """

    def __init__(self, columns: Sequence[Sequence]):
        self.columns: dict[str, Sequence] = dict(zip(RUNS_HEADER, columns))
        planner = self.columns["planner"]
        # the distinct (planner, level) pairs; the distinct planners in name
        # order, and each record's position among them
        self.planner_levels = set(zip(planner, self.columns["level"]))
        self.planner_names = tuple(sorted({name for name, _ in self.planner_levels}))
        at = {name: k for k, name in enumerate(self.planner_names)}
        self.planner_ids = np.fromiter(map(at.__getitem__, planner), dtype=np.intp,
                                       count=len(planner))
        # the cell arrays and, for one manifest, the records' codes and the
        # grids, made on first use
        self._arrays = _CellArrays(self.columns)
        self._manifest: Manifest | None = None
        self._codes: np.ndarray | None = None
        self._grids: dict[tuple[Level, SizeClass], RunGrid] = {}

    @classmethod
    def of(cls, runs: Sequence[RunRecord]) -> "RunTable":
        """``runs`` itself if it is a table, else a table over it.

        Raises:
            DuplicateKey: if a record's key repeats, citing the 1-based
                position of its second record.
        """
        if isinstance(runs, RunTable):
            return runs
        columns = [[getattr(r, name) for r in runs] for name in RUNS_HEADER]
        k = _first_repeat(columns)
        if k is not None:
            raise DuplicateKey(k + 1, runs[k].key)
        return cls(columns)

    def __len__(self) -> int:
        return len(self.columns["planner"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        return RunRecord(*(column[index] for column in self.columns.values()))

    def __iter__(self):
        return map(RunRecord, *self.columns.values())

    def codes(self, manifest: Manifest) -> np.ndarray:
        """Each record's column code under ``manifest`` (see :class:`Manifest`),
        -1 where the manifest declares no such problem."""
        self._use(manifest)
        if self._codes is None:
            keys = zip(*(self.columns[k] for k in ("domain", "level", "problem")))
            codes = map(manifest._by_problem.get, keys, repeat(-1))
            self._codes = np.fromiter(codes, dtype=np.intp, count=len(self))
        return self._codes

    def grid(self, manifest: Manifest, level: Level, size_class: SizeClass) -> RunGrid:
        """The (level, size class) grid under ``manifest``, laid out once."""
        self._use(manifest)
        key = (level, size_class)
        grid = self._grids.get(key)
        if grid is None:
            grid = self._grids[key] = self._lay_out(manifest, level, size_class)
        return grid

    def _use(self, manifest: Manifest) -> None:
        """Forget the codes and grids of any other manifest."""
        if manifest is not self._manifest:
            self._manifest, self._codes, self._grids = manifest, None, {}

    def _lay_out(self, manifest: Manifest, level: Level, size_class: SizeClass) -> RunGrid:
        start, stop, spans = manifest._layouts.get((level, size_class), (0, 0, {}))
        entrants = {p.name for p in manifest.planners}
        names = tuple(sorted(entrants.union(p for p, lv in self.planner_levels if lv is level)))
        rows = {name: r for r, name in enumerate(names)}
        codes = self.codes(manifest)
        # the table rows of the grid's records and each one's planner row;
        # every planner with a record at the level has a row
        at = np.flatnonzero((codes >= start) & (codes < stop))
        row_of = np.array([rows.get(name, -1) for name in self.planner_names], dtype=np.intp)
        cell_rows = row_of[self.planner_ids[at]]
        index = np.full((len(names), stop - start), -1, dtype=np.intp)
        index[cell_rows, codes[at] - start] = at
        maximize = [s.quality_direction is QualityDirection.MAXIMIZE
                    for s in manifest._column_sets[start:stop]]
        # index -1 reads the arrays' trailing entry: unsolved, no values
        grid = RunGrid(
            level=level,
            size_class=size_class,
            names=names,
            rows=rows,
            spans=spans,
            maximize=np.array(maximize, dtype=bool),
            index=index,
            present=index >= 0,
            solved=self._arrays["solved"][index],
            values=_GridValues(self._arrays, index),
        )
        for array in (grid.maximize, grid.index, grid.present, grid.solved):
            array.flags.writeable = False
        return grid


class _Broken(Exception):
    """A rule broken in a column: ``args`` are the column and the reason."""


def _numbers(column: Sequence[str], name: str, parse: type) -> list:
    """The column parsed by ``int`` or ``float``, None where a field is
    empty or blank; stripped only if a field fails to parse as it is."""
    try:
        return [parse(value) if value else None for value in column]
    except ValueError:
        values = []
    for value in map(str.strip, column):
        try:
            values.append(parse(value) if value else None)
        except ValueError:
            raise _Broken(name, f"not {'a number' if parse is float else 'an integer'}: "
                                f"{value!r}") from None
    return values


def _convert(columns: Sequence[Sequence[str]]) -> list[list]:
    """The field columns of a runs CSV converted by one rule per column, in
    column order, then checked by the rules on solved and unsolved rows.
    Raises ``_Broken`` for the first rule a row breaks, which on a single
    row is that row's error.  Names, levels and flags convert once per value."""
    if len(columns) != len(RUNS_HEADER):
        raise _Broken("<row>", f"expected {len(RUNS_HEADER)} fields, got {len(columns)}")
    raw = dict(zip(RUNS_HEADER, columns))
    out = {}
    for name in ("planner", "domain", "problem"):
        stripped = {value: value.strip() for value in set(raw[name])}
        if "" in stripped.values():
            raise _Broken(name, "must be non-empty")
        out[name] = (raw[name] if list(stripped) == list(stripped.values())
                     else list(map(stripped.__getitem__, raw[name])))
    try:
        levels = {value: Level.parse(value.strip()) for value in set(raw["level"])}
    except UnknownLevel as exc:
        raise _Broken("level", str(exc)) from None
    out["level"] = list(map(levels.__getitem__, raw["level"]))
    flags = {value: value.strip() for value in set(raw["solved"])}
    for flag in flags.values():
        if flag not in ("0", "1"):
            raise _Broken("solved", f"must be 0 or 1, got {flag!r}")
    solved = out["solved"] = list(map({v: f == "1" for v, f in flags.items()}.__getitem__,
                                      raw["solved"]))
    for name in VALUE_FIELDS:
        parse = float if name == "metric_value" else int
        values = out[name] = _numbers(raw[name], name, parse)
        # filter(None) drops 0 too, which breaks neither rule
        if parse is float and not all(map(math.isfinite, filter(None, values))):
            raise _Broken(name, "must be finite")
        # a negative integer's field holds a minus sign
        if parse is int and "-" in "".join(raw[name]) and min(filter(None, values), default=0) < 0:
            raise _Broken(name, f"must be nonnegative, got {min(filter(None, values))}")
    # a row breaks at most one of the rules below, as it is solved or not
    unsolved = list(map(operator.not_, solved))
    n_unsolved = sum(unsolved)
    for name in VALUE_FIELDS:
        if list(compress(out[name], unsolved)).count(None) != n_unsolved:
            raise _Broken(name, "must be empty when solved=0")
    # no unsolved row has a time, so any other missing time is a solved row's
    if out["time_ms"].count(None) != n_unsolved:
        raise _Broken("time_ms", "required when solved=1")
    return [out[name] for name in RUNS_HEADER]


def _first_repeat(columns: Sequence[Sequence]) -> int | None:
    """The index of the first record whose key, in the first four columns,
    equals an earlier one's; None if none does."""
    if len(set(zip(*columns[:4]))) == len(columns[0]):
        return None
    first: dict[tuple, int] = {}
    for k, key in enumerate(zip(*columns[:4])):
        if first.setdefault(key, k) != k:
            return k
    return None


def _split(text: str) -> list[list[str]] | None:
    """The field columns of a runs CSV, split into fields at once; None
    when it has quotes, lone carriage returns, another header, or a line
    without nine fields, blank lines included."""
    if '"' in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    header, _, body = (text.replace("\r\n", "\n") if "\r" in text else text).partition("\n")
    if header != ",".join(RUNS_HEADER):
        return None
    body = body.removesuffix("\n")
    # unquoted: csv would split each line at its commas.  Each line end
    # becomes a field of its own, so rows of nine fields put the line ends
    # at every tenth field and nowhere else.
    rows = body.count("\n") + 1
    width = len(RUNS_HEADER) + 1
    fields = body.replace("\n", ",\n,").split(",")
    del body  # lower the peak: the columns share the field strings
    if len(fields) != width * rows - 1 or fields[width - 1::width].count("\n") != rows - 1:
        return None
    return [fields[k::width] for k in range(width - 1)]


def _columns_of(rows: Sequence[Sequence[str]]) -> list[list[str]]:
    """The columns of ``rows``; none, which ``_convert`` refuses, if a row
    is not as wide as the header."""
    if any(len(fields) != len(RUNS_HEADER) for fields in rows):
        return []
    return list(map(list, zip(*rows))) or [[] for _ in RUNS_HEADER]


def load_runs(path: str | Path) -> RunTable:
    """Load and validate a runs CSV: :func:`runs_from_bytes` of its bytes."""
    return runs_from_bytes(Path(path).read_bytes())


def runs_from_bytes(data: bytes) -> RunTable:
    """Parse and validate the bytes of a runs CSV, keeping the row order.

    The file is split into fields at once unless it has quotes, lone
    carriage returns, blank or ragged lines or another header, when
    ``csv.reader`` reads it.  Its fields are converted a column at a time,
    by one rule per column; if that fails, the rows are converted one at a
    time by the same rules, and the first bad row aborts the load with a
    row-numbered error unless a key repeats before it.

    Raises:
        MissingHeader: if the first line is not the exact expected header.
        BadField: on any malformed field, citing row and column, or on
            the first byte that is not UTF-8, citing its line and the
            column the commas before it on that line give.
        DuplicateKey: if a (planner, domain, level, problem) key repeats.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        k = data.count(b",", line_start, exc.start)
        raise BadField(
            data.count(b"\n", 0, exc.start) + 1,
            RUNS_HEADER[k] if k < len(RUNS_HEADER) else "<row>",
            f"not UTF-8: byte 0x{data[exc.start]:02x}",
        ) from None
    columns = _split(text)
    if columns is not None:
        numbers, rows = range(2, len(columns[0]) + 2), None
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise MissingHeader("empty file")
        if tuple(h.strip() for h in header) != RUNS_HEADER:
            raise MissingHeader(f"expected header {','.join(RUNS_HEADER)!r}, "
                                f"got {','.join(header)!r}")
        # skip blank lines, keeping each row's line number
        numbered = [(row, fields) for row, fields in enumerate(reader, start=2)
                    if fields and not (len(fields) == 1 and fields[0].strip() == "")]
        numbers, rows = [row for row, _ in numbered], [fields for _, fields in numbered]
        columns = _columns_of(rows)
    try:
        columns, error = _convert(columns), None
    except _Broken:
        good, error = [], None
        for row, fields in zip(numbers, rows or list(zip(*columns))):
            try:
                _convert([[value] for value in fields])
            except _Broken as exc:
                error = BadField(row, *exc.args)
                break
            good.append(fields)
        columns = _convert(_columns_of(good))
    k = _first_repeat(columns)
    if k is not None:
        raise DuplicateKey(numbers[k], RunRecord(*(column[k] for column in columns)).key)
    if error is not None:
        raise error
    return RunTable(columns)


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest JSON document: :func:`manifest_from_bytes`
    of its bytes."""
    return manifest_from_bytes(Path(path).read_bytes())


def manifest_from_bytes(data: bytes) -> Manifest:
    """Parse and validate the bytes of a manifest JSON document, decoded as
    a file opened in text mode reads them.

    Raises:
        ParseError: on malformed JSON, text that is not UTF-8,
            missing/ill-typed structure, or a repeated planner name or
            (domain, level, size class) set.
        UnknownLevel: on an unrecognized level name.
        EmptyProblemList: if a problem set has no problems.
        DuplicateProblem: if a problem id repeats within a (domain, level).
    """
    try:
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return parse_manifest(doc)


def _text(value: object, what: str) -> str:
    """``value`` if it is a name as a runs file can give it."""
    if not isinstance(value, str) or not value or value != value.strip():
        raise ParseError(f"{what} must be a non-empty string without padding, got {value!r}")
    return value


def parse_manifest(doc: object) -> Manifest:
    if not isinstance(doc, dict):
        raise ParseError("manifest must be a JSON object")
    try:
        planners_raw = doc["planners"]
        sets_raw = doc["problem_sets"]
    except KeyError as exc:
        raise ParseError(f"manifest missing key {exc}") from None
    if not isinstance(planners_raw, list) or not isinstance(sets_raw, list):
        raise ParseError("'planners' and 'problem_sets' must be lists")

    planners = []
    for entry in planners_raw:
        try:
            name = _text(entry["name"], "planner name")
            category = Category(entry["category"])
            level_names = entry["levels"]
        except DataError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad planner entry {entry!r}: {exc}") from None
        if not isinstance(level_names, list):
            raise ParseError(f"levels of planner {name!r} must be a list, got {level_names!r}")
        levels = frozenset(Level.parse(_text(lv, "level")) for lv in level_names)
        planners.append(PlannerEntry(name=name, category=category, levels_entered=levels))

    sets = []
    for entry in sets_raw:
        try:
            domain = _text(entry["domain"], "domain")
            level_name = _text(entry["level"], "level")
            size_class = SizeClass(entry["size_class"])
            direction = QualityDirection(entry["quality_direction"])
            problems = entry["problems"]
        except DataError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad problem set entry: {exc}") from None
        level = Level.parse(level_name)
        if not isinstance(problems, list):
            raise ParseError(f"problems must be a list in set {domain}/{level.value}")
        problems = list(map(_text, problems, repeat(f"problem id in {domain}/{level.value}")))
        if not problems:
            raise EmptyProblemList(f"problem set {domain}/{level.value} has no problems")
        sets.append(
            ProblemSet(
                domain=domain,
                level=level,
                size_class=size_class,
                quality_direction=direction,
                problems=tuple(problems),
            )
        )
    return Manifest(planners=tuple(planners), problem_sets=tuple(sets))


@dataclass(frozen=True)
class Diagnostic:
    """One dataset consistency finding: kind, severity and message."""

    kind: str
    severity: str  # "error" | "info"
    message: str


def validate_dataset(runs: Sequence[RunRecord], manifest: Manifest) -> list[Diagnostic]:
    """Cross-check runs against the manifest.

    Reports records referencing unknown planners or problems, planners
    with records at levels they did not enter, and per-planner coverage
    (missing (planner, problem) cells are legal: they mean "did not
    attempt" and are reported informationally).  Planners and levels are
    checked once per distinct (planner, level) pair and problems on the
    records' codes; only when a check fails are the records walked one by
    one, to report each error in record order.  Coverage is counted on the
    codes too, tallied per (planner, grid), so no grid is laid out.
    """
    runs = RunTable.of(runs)
    diagnostics: list[Diagnostic] = []
    codes = runs.codes(manifest)
    entered = all(manifest.entered(name, level) for name, level in runs.planner_levels)
    if not entered or codes.min(initial=0) < 0:
        # walk the records to report each error in record order
        keys = zip(*(runs.columns[name] for name in RUNS_HEADER[:4]))
        for key, code in zip(keys, codes.tolist()):
            planner, _, level, _ = key
            if manifest.planner(planner) is None:
                diagnostics.append(
                    Diagnostic(
                        "UnknownPlanner",
                        "error",
                        f"record {key} references planner {planner!r} "
                        "not declared in the manifest",
                    )
                )
                continue
            if code < 0:
                diagnostics.append(
                    Diagnostic(
                        "UnknownProblem",
                        "error",
                        f"record {key} references a problem not in any problem set",
                    )
                )
            if not manifest.entered(planner, level):
                diagnostics.append(
                    Diagnostic(
                        "LevelNotEntered",
                        "error",
                        f"planner {planner!r} has a record at level "
                        f"{level.value} it did not enter",
                    )
                )

    # each (planner, grid)'s attempted and solved columns, counted on the codes
    names, ids = runs.planner_names, runs.planner_ids
    known = np.flatnonzero(codes >= 0)
    grid_of = np.empty(len(manifest._column_sets), dtype=np.intp)
    for g, (start, stop, _) in enumerate(manifest._layouts.values()):
        grid_of[start:stop] = g
    cells = ids[known] * len(manifest._layouts) + grid_of[codes[known]]
    known_solved = np.fromiter(runs.columns["solved"], dtype=bool, count=len(runs))[known]
    shape = (len(names), len(manifest._layouts))
    attempted = np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape).tolist()
    solved = np.bincount(cells[known_solved], minlength=shape[0] * shape[1]).reshape(shape).tolist()
    rows = {name: r for r, name in enumerate(names)}
    for entry in manifest.planners:
        row = rows.get(entry.name)
        faced = sizes_faced(entry.category)
        n_available = n_attempted = n_solved = 0
        for g, ((level, size_class), (start, stop, _)) in enumerate(manifest._layouts.items()):
            if level in entry.levels_entered and size_class in faced:
                n_available += stop - start
                if row is not None:
                    n_attempted += attempted[row][g]
                    n_solved += solved[row][g]
        if not n_available:
            continue
        diagnostics.append(
            Diagnostic(
                "Coverage",
                "info",
                f"planner {entry.name} attempted {n_attempted} and solved {n_solved} "
                f"of {n_available} available problems",
            )
        )
    return diagnostics
