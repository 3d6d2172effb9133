"""Run-record data model, competition manifest, and the file formats.

The runs file is a CSV whose header is exactly the fields of
:class:`RunRecord`, in their order (``RUNS_HEADER``)::

    planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length

where ``solved`` is 0/1 and an empty string encodes an absent optional
field.  The manifest is a JSON document declaring planners (with category
and entered levels) and problem sets (domain, level, size class, quality
direction, ordered problem ids).

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
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Sequence

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

    def resolve(self, domain: str, level: Level, problem: str) -> ProblemSet | None:
        """The unique problem set containing (domain, level, problem), if any."""
        code = self._by_problem.get((domain, level, problem))
        return None if code is None else self._column_sets[code]

    def levels(self) -> list[Level]:
        seen = []
        for s in self.problem_sets:
            if s.level not in seen:
                seen.append(s.level)
        return seen


# the value fields of a record, each laid out as a float array in a RunGrid
VALUE_FIELDS = ("time_ms", "metric_value", "seq_length", "conc_length")


@dataclass(frozen=True, eq=False)
class RunGrid:
    """The records at one (level, size class) as planner × problem arrays.

    Columns are the problems of the level's sets of that size class, in
    manifest set and problem order; ``spans`` gives each domain's columns.
    Rows are planner names in name order: the manifest's planners and every
    planner with a record at the level.  ``index`` holds the table row of
    each cell's record, -1 where there is none, and ``values`` each value
    field as floats, NaN where the cell has no record, is unsolved or
    lacks the field.  Every analysis that reads the table shares the grid,
    so its arrays are read-only.
    """

    names: tuple[str, ...]
    rows: dict[str, int]
    spans: dict[str, slice]
    # per column: its set maximizes the metric
    maximize: np.ndarray
    index: np.ndarray
    present: np.ndarray
    solved: np.ndarray
    values: dict[str, np.ndarray]

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
    Each record is placed once per manifest (:meth:`codes`) and numbered
    once by its planner (:meth:`planner_ids`); a grid selects its cells
    and rows from those numbers.  A record object is built only when one
    is asked for, by indexing or iterating.  No two records share a
    (planner, domain, level, problem) key: the loader and :meth:`of`
    refuse a repeat.
    """

    def __init__(self, columns: Sequence[Sequence]):
        self.columns: dict[str, Sequence] = dict(zip(RUNS_HEADER, columns))
        # the (planner, level) pairs, the planner numbers, the cell arrays
        # and, for one manifest, the records' codes and the grids, made on
        # first use
        self._planner_levels: set[tuple[str, Level]] | None = None
        self._planner_ids: tuple[tuple[str, ...], np.ndarray] | None = None
        self._arrays: dict[str, np.ndarray] | None = None
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
        seen: set[tuple] = set()
        for row, key in enumerate(zip(*columns[:4]), start=1):
            if key in seen:
                raise DuplicateKey(row, key)
            seen.add(key)
        return cls(columns)

    def __len__(self) -> int:
        return len(self.columns["planner"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        return RunRecord(*(column[index] for column in self.columns.values()))

    def __iter__(self):
        return map(RunRecord, *self.columns.values())

    def planner_levels(self) -> set[tuple[str, Level]]:
        """The distinct (planner, level) pairs of the records."""
        if self._planner_levels is None:
            self._planner_levels = set(zip(self.columns["planner"], self.columns["level"]))
        return self._planner_levels

    def planner_ids(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The records' distinct planners in name order, and each record's
        position among them."""
        if self._planner_ids is None:
            planner = self.columns["planner"]
            names = sorted(set(planner))
            at = {name: k for k, name in enumerate(names)}
            ids = np.fromiter(map(at.__getitem__, planner), dtype=np.intp, count=len(self))
            self._planner_ids = (tuple(names), ids)
        return self._planner_ids

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
        names = tuple(sorted(entrants.union(p for p, lv in self.planner_levels() if lv is level)))
        rows = {name: r for r, name in enumerate(names)}
        codes = self.codes(manifest)
        # the table rows of the grid's records and each one's planner row;
        # every planner with a record at the level has a row
        at = np.flatnonzero((codes >= start) & (codes < stop))
        planners, ids = self.planner_ids()
        row_of = np.array([rows.get(name, -1) for name in planners], dtype=np.intp)
        cell_rows = row_of[ids[at]]
        index = np.full((len(names), stop - start), -1, dtype=np.intp)
        index[cell_rows, codes[at] - start] = at
        maximize = [s.quality_direction is QualityDirection.MAXIMIZE
                    for s in manifest._column_sets[start:stop]]
        # index -1 reads the arrays' trailing entry: unsolved, no values
        arrays = self._cell_arrays()
        grid = RunGrid(
            names=names,
            rows=rows,
            spans=spans,
            maximize=np.array(maximize, dtype=bool),
            index=index,
            present=index >= 0,
            solved=arrays["solved"][index],
            values={name: arrays[name][index] for name in VALUE_FIELDS},
        )
        for array in (grid.maximize, grid.index, grid.present, grid.solved,
                      *grid.values.values()):
            array.flags.writeable = False
        return grid

    def _cell_arrays(self) -> dict[str, np.ndarray]:
        """The solved column and the value columns as arrays (values NaN where
        absent or unsolved), each with one trailing unsolved entry."""
        if self._arrays is None:
            solved = np.array([*self.columns["solved"], False], dtype=bool)
            self._arrays = {"solved": solved}
            for name in VALUE_FIELDS:
                values = np.array([*self.columns[name], None], dtype=float)
                values[~solved] = math.nan
                self._arrays[name] = values
        return self._arrays


def _parse_optional_int(raw: str, row: int, column: str) -> int | None:
    if raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise BadField(row, column, f"not an integer: {raw!r}") from None
    if value < 0:
        raise BadField(row, column, f"must be nonnegative, got {value}")
    return value


def _parse_optional_float(raw: str, row: int, column: str) -> float | None:
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise BadField(row, column, f"not a number: {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise BadField(row, column, "must be finite")
    return value


def _parse_row(fields: Sequence[str], row: int) -> tuple:
    """Validate and convert one data row (1-based file line number ``row``)
    into its nine values, checking fields in column order."""
    if len(fields) != len(RUNS_HEADER):
        raise BadField(row, "<row>", f"expected {len(RUNS_HEADER)} fields, got {len(fields)}")
    planner, domain, level_raw, problem = (f.strip() for f in fields[:4])
    for column, value in (("planner", planner), ("domain", domain), ("problem", problem)):
        if not value:
            raise BadField(row, column, "must be non-empty")
    try:
        level = Level.parse(level_raw)
    except UnknownLevel as exc:
        raise BadField(row, "level", str(exc)) from None
    solved_raw = fields[4].strip()
    if solved_raw not in ("0", "1"):
        raise BadField(row, "solved", f"must be 0 or 1, got {solved_raw!r}")
    solved = solved_raw == "1"
    time_ms = _parse_optional_int(fields[5].strip(), row, "time_ms")
    metric_value = _parse_optional_float(fields[6].strip(), row, "metric_value")
    seq_length = _parse_optional_int(fields[7].strip(), row, "seq_length")
    conc_length = _parse_optional_int(fields[8].strip(), row, "conc_length")
    values = (time_ms, metric_value, seq_length, conc_length)
    if solved and time_ms is None:
        raise BadField(row, "time_ms", "required when solved=1")
    if not solved:
        for column, value in zip(VALUE_FIELDS, values):
            if value is not None:
                raise BadField(row, column, "must be empty when solved=0")
    return (planner, domain, level, problem, solved, *values)


def _columns_by_row(rows: Sequence[Sequence[str]], numbers: Sequence[int]) -> list[Sequence]:
    """The columns of ``rows`` parsed a row at a time; raises the first bad
    row's error."""
    parsed = []
    seen: set[tuple] = set()
    for fields, row in zip(rows, numbers):
        values = _parse_row(fields, row)
        key = values[:4]
        if key in seen:
            raise DuplicateKey(row, key)
        seen.add(key)
        parsed.append(values)
    return [list(column) for column in zip(*parsed)] or [[] for _ in RUNS_HEADER]


def _columns(text: str) -> list[Sequence] | None:
    """The columns of a runs CSV without quotes, split into fields once and
    converted a column at a time; None when it has quotes, lone carriage
    returns, another header, a line without nine fields, or a row that
    breaks a rule ``_parse_row`` checks or pads a field."""
    if '"' in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    header, _, body = text.partition("\n")
    if header != ",".join(RUNS_HEADER):
        return None
    if not body:
        return [[] for _ in RUNS_HEADER]
    if body[-1] == "\n":
        body = body[:-1]
    # unquoted: csv would split each line at its commas.  Each line end
    # becomes a field of its own, so rows of nine fields put the line ends
    # at every tenth field and nowhere else.
    rows = body.count("\n") + 1
    width = len(RUNS_HEADER) + 1
    fields = body.replace("\n", ",\n,").split(",")
    del body  # lower the peak: the columns below share the field strings
    if len(fields) != width * rows - 1 or fields[width - 1::width].count("\n") != rows - 1:
        return None
    planner, domain, level_raw, problem, solved_raw, *raw = (
        fields[k::width] for k in range(width - 1)
    )
    del fields
    for column in (planner, domain, level_raw, problem):
        distinct = set(column)
        if "" in distinct or any(value != value.strip() for value in distinct):
            return None
    if not set(solved_raw) <= {"0", "1"}:
        return None
    solved = [value == "1" for value in solved_raw]
    # a time on exactly the solved rows, other values on solved rows only
    if list(map(bool, raw[0])) != solved or not all(all(compress(solved, c)) for c in raw[1:]):
        return None
    try:
        levels = {value: Level.parse(value) for value in set(level_raw)}
        time_ms, seq_length, conc_length = (
            [int(value) if value else None for value in column]
            for column in (raw[0], raw[2], raw[3])
        )
        metric_value = [float(value) if value else None for value in raw[1]]
    except (UnknownLevel, ValueError):
        return None
    if min(filter(None, chain(time_ms, seq_length, conc_length)), default=0) < 0:
        return None
    if not all(map(math.isfinite, filter(None, metric_value))):
        return None
    # keys hold the parsed level: "strips" and "STRIPS" are one level
    level = list(map(levels.__getitem__, level_raw))
    if len(set(zip(planner, domain, level, problem))) < len(planner):
        return None
    return [planner, domain, level, problem, solved, time_ms, metric_value, seq_length, conc_length]


def load_runs(path: str | Path) -> RunTable:
    """Load and validate a runs CSV: :func:`runs_from_bytes` of its bytes."""
    return runs_from_bytes(Path(path).read_bytes())


def runs_from_bytes(data: bytes) -> RunTable:
    """Parse and validate the bytes of a runs CSV.

    Order-preserving and deterministic; the first malformed row aborts
    the load with a row-numbered error.

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
    return _parse_runs(text)


def _parse_runs(text: str) -> RunTable:
    columns = _columns(text)
    if columns is not None:
        return RunTable(columns)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingHeader("empty file") from None
    if tuple(h.strip() for h in header) != RUNS_HEADER:
        raise MissingHeader(f"expected header {','.join(RUNS_HEADER)!r}, got {','.join(header)!r}")
    # skip blank lines, keeping each row's line number
    numbered = [
        (row, fields)
        for row, fields in enumerate(reader, start=2)
        if fields and not (len(fields) == 1 and fields[0].strip() == "")
    ]
    return RunTable(_columns_by_row([f for _, f in numbered], [row for row, _ in numbered]))


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
    if not isinstance(value, str) or not value:
        raise ParseError(f"{what} must be a non-empty string, got {value!r}")
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad problem set entry: {exc}") from None
        level = Level.parse(level_name)
        if not isinstance(problems, list) or not all(isinstance(p, str) for p in problems):
            raise ParseError(f"problems must be a list of strings in set {domain}/{level.value}")
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
    entered = all(manifest.entered(name, level) for name, level in runs.planner_levels())
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
    names, ids = runs.planner_ids()
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
