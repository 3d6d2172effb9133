"""Run-record data model, competition manifest, and the file formats.

The runs file is a CSV with the exact header::

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

RUNS_HEADER = (
    "planner",
    "domain",
    "level",
    "problem",
    "solved",
    "time_ms",
    "metric_value",
    "seq_length",
    "conc_length",
)


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


class RunTable(tuple):
    """The run records in their order, indexed once by (planner, domain, level, problem).

    The analyses look records up here instead of scanning them.  Where a
    key repeats, the last record with it wins.
    """

    def __init__(self, records: Iterable[RunRecord]):
        # tuple.__new__ has already stored ``records`` in self
        self._by_key: dict[tuple[str, str, Level, str], RunRecord] = {}
        planners: dict[tuple[str, Level], set[str]] = {}
        for r in self:
            self._by_key[r.key] = r
            planners.setdefault((r.domain, r.level), set()).add(r.planner)
        self._planners = {cell: frozenset(names) for cell, names in planners.items()}

    @classmethod
    def of(cls, runs: Sequence[RunRecord]) -> "RunTable":
        """``runs`` itself if it is a table, else a table over it."""
        return runs if isinstance(runs, RunTable) else cls(runs)

    def get(self, planner: str, domain: str, level: Level, problem: str) -> RunRecord | None:
        return self._by_key.get((planner, domain, level, problem))

    def solve_time(self, planner: str, domain: str, level: Level, problem: str) -> float | None:
        """Solve time in ms, or None when the problem is unsolved or unattempted."""
        rec = self._by_key.get((planner, domain, level, problem))
        return float(rec.time_ms) if rec is not None and rec.solved else None

    def planners_at(self, domain: str, level: Level) -> frozenset[str]:
        """Planners with any record at (domain, level)."""
        return self._planners.get((domain, level), frozenset())


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
    """Declares the planners and problem sets a dataset may reference."""

    planners: tuple[PlannerEntry, ...]
    problem_sets: tuple[ProblemSet, ...]
    # lookup indexes; where a name or problem repeats, the first entry wins
    _by_name: dict[str, PlannerEntry] = field(init=False, repr=False, compare=False)
    _by_problem: dict[tuple[str, Level, str], ProblemSet] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_name: dict[str, PlannerEntry] = {}
        for p in self.planners:
            by_name.setdefault(p.name, p)
        by_problem: dict[tuple[str, Level, str], ProblemSet] = {}
        for s in self.problem_sets:
            for problem in s.problems:
                by_problem.setdefault((s.domain, s.level, problem), s)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_problem", by_problem)

    def planner(self, name: str) -> PlannerEntry | None:
        return self._by_name.get(name)

    def planners_in(self, category: Category, level: Level | None = None) -> list[PlannerEntry]:
        out = [p for p in self.planners if p.category == category]
        if level is not None:
            out = [p for p in out if level in p.levels_entered]
        return out

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
        return self._by_problem.get((domain, level, problem))

    def levels(self) -> list[Level]:
        seen = []
        for s in self.problem_sets:
            if s.level not in seen:
                seen.append(s.level)
        return seen


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


def parse_run_row(fields: Sequence[str], row: int) -> RunRecord:
    """Validate and convert one data row (1-based file line number ``row``)."""
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
    if solved and time_ms is None:
        raise BadField(row, "time_ms", "required when solved=1")
    if not solved:
        for column, value in (
            ("time_ms", time_ms),
            ("metric_value", metric_value),
            ("seq_length", seq_length),
            ("conc_length", conc_length),
        ):
            if value is not None:
                raise BadField(row, column, "must be empty when solved=0")
    return RunRecord(
        planner=planner,
        domain=domain,
        level=level,
        problem=problem,
        solved=solved,
        time_ms=time_ms,
        metric_value=metric_value,
        seq_length=seq_length,
        conc_length=conc_length,
    )


def load_runs(path: str | Path) -> list[RunRecord]:
    """Load and validate a runs CSV.

    Order-preserving and deterministic; the first malformed row aborts
    the load with a row-numbered error.

    Raises:
        MissingHeader: if the first line is not the exact expected header.
        BadField: on any malformed field, citing row and column.
        DuplicateKey: if a (planner, domain, level, problem) key repeats.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_runs(fh)


def read_runs(fh: io.TextIOBase) -> list[RunRecord]:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingHeader("empty file") from None
    if tuple(h.strip() for h in header) != RUNS_HEADER:
        raise MissingHeader(f"expected header {','.join(RUNS_HEADER)!r}, got {','.join(header)!r}")
    records: list[RunRecord] = []
    seen: set[tuple] = set()
    for row_number, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and fields[0].strip() == ""):
            continue  # tolerate blank lines
        record = parse_run_row(fields, row_number)
        if record.key in seen:
            raise DuplicateKey(row_number, record.key)
        seen.add(record.key)
        records.append(record)
    return records


def save_runs(records: Iterable[RunRecord], path: str | Path) -> None:
    """Write records in the runs CSV format (inverse of :func:`load_runs`)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUNS_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.planner,
                    r.domain,
                    r.level.value,
                    r.problem,
                    "1" if r.solved else "0",
                    "" if r.time_ms is None else str(r.time_ms),
                    "" if r.metric_value is None else repr(r.metric_value),
                    "" if r.seq_length is None else str(r.seq_length),
                    "" if r.conc_length is None else str(r.conc_length),
                ]
            )


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest JSON document.

    Raises:
        ParseError: on malformed JSON or missing/ill-typed structure.
        UnknownLevel: on an unrecognized level name.
        EmptyProblemList: if a problem set has no problems.
        DuplicateProblem: if a problem id repeats within a (domain, level).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return parse_manifest(doc)


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
    seen_names = set()
    for entry in planners_raw:
        try:
            name = entry["name"]
            category = Category(entry["category"])
            levels = frozenset(Level.parse(lv) for lv in entry["levels"])
        except UnknownLevel:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad planner entry {entry!r}: {exc}") from None
        if not isinstance(name, str) or not name:
            raise ParseError(f"planner name must be a non-empty string, got {name!r}")
        if name in seen_names:
            raise ParseError(f"duplicate planner name {name!r}")
        seen_names.add(name)
        planners.append(PlannerEntry(name=name, category=category, levels_entered=levels))

    sets = []
    problems_by_cell: dict[tuple[str, Level], set[str]] = {}
    seen_cells: set[tuple[str, Level, SizeClass]] = set()
    for entry in sets_raw:
        try:
            domain = entry["domain"]
            level = Level.parse(entry["level"])
            size_class = SizeClass(entry["size_class"])
            direction = QualityDirection(entry["quality_direction"])
            problems = entry["problems"]
        except UnknownLevel:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad problem set entry: {exc}") from None
        if not isinstance(problems, list) or not all(isinstance(p, str) for p in problems):
            raise ParseError(f"problems must be a list of strings in set {domain}/{level.value}")
        if not problems:
            raise EmptyProblemList(f"problem set {domain}/{level.value} has no problems")
        cell_key = (domain, level, size_class)
        if cell_key in seen_cells:
            raise ParseError(
                f"duplicate problem set for {domain}/{level.value}/{size_class.value}"
            )
        seen_cells.add(cell_key)
        cell = problems_by_cell.setdefault((domain, level), set())
        for p in problems:
            if p in cell:
                raise DuplicateProblem(f"duplicate problem {p!r} in {domain}/{level.value}")
            cell.add(p)
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
    attempt" and are reported informationally).
    """
    runs = RunTable.of(runs)
    diagnostics: list[Diagnostic] = []
    for record in runs:
        entry = manifest.planner(record.planner)
        if entry is None:
            diagnostics.append(
                Diagnostic(
                    "UnknownPlanner",
                    "error",
                    f"record {record.key} references planner {record.planner!r} "
                    "not declared in the manifest",
                )
            )
            continue
        if manifest.resolve(record.domain, record.level, record.problem) is None:
            diagnostics.append(
                Diagnostic(
                    "UnknownProblem",
                    "error",
                    f"record {record.key} references a problem not in any problem set",
                )
            )
        if record.level not in entry.levels_entered:
            diagnostics.append(
                Diagnostic(
                    "LevelNotEntered",
                    "error",
                    f"planner {record.planner!r} has a record at level "
                    f"{record.level.value} it did not enter",
                )
            )

    for entry in manifest.planners:
        sizes = sizes_faced(entry.category)
        available = {
            (ps.domain, ps.level, p)
            for ps in manifest.problem_sets
            if ps.level in entry.levels_entered and ps.size_class in sizes
            for p in ps.problems
        }
        if not available:
            continue
        records = [runs.get(entry.name, *key) for key in available]
        n_attempted = sum(r is not None for r in records)
        n_solved = sum(r is not None and r.solved for r in records)
        diagnostics.append(
            Diagnostic(
                "Coverage",
                "info",
                f"planner {entry.name} attempted {n_attempted} and solved {n_solved} "
                f"of {len(available)} available problems",
            )
        )
    return diagnostics
