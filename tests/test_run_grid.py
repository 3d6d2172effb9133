"""The grid-based analyses equal a per-key scan of the records.

Each reference below walks the manifest's problems a record at a time and
looks every (planner, domain, level, problem) key up in a dict.  Generated
datasets hold each key once, as a table requires, name planners missing
from the manifest, leave quality fields out of solved rows, keep values on
unsolved rows, mix maximize and minimize sets and use metric 0.0.
"""

import csv
import io
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pset, run, simple_manifest
from planstats.agreement import agreement_test, judge_rank_rows, judge_ranks
from planstats.dataio import (
    Category,
    Diagnostic,
    Level,
    Manifest,
    ProblemSet,
    QualityDirection,
    RunRecord,
    RunTable,
    SizeClass,
    parse_manifest,
    sizes_faced,
    validate_dataset,
)
from planstats.pairwise import (
    MEASURE_FIELDS,
    Measure,
    NoProblems,
    PairingMode,
    PlannerNotInLevel,
    build_pairs,
)
from planstats.hardness import subject_areas
from planstats.ranking import WORST
from planstats.report import fmt_float, series_csv
from planstats.scaling import agreed_difficulty, scaling_comparisons
from test_ranking import reference_ranks

PLANNERS = ("a", "b", "c")
DOMAINS = ("d1", "d2")
LEVELS = (Level.STRIPS, Level.NUMERIC)
PREFIX = {"small": "p", "large": "L"}


def index(runs):
    return {r.key: r for r in runs}


def solve_time(by_key, planner, domain, level, problem):
    rec = by_key.get((planner, domain, level, problem))
    return float(rec.time_ms) if rec is not None and rec.solved else None


def measure_value(record, measure):
    if record is None or not record.solved:
        return WORST
    field = getattr(record, MEASURE_FIELDS[measure])
    return WORST if field is None else float(field)


def check_entered(manifest, name, level):
    entry = manifest.planner(name)
    if entry is None or level not in entry.levels_entered:
        raise PlannerNotInLevel(name)


def reference_pairs(runs, manifest, a, b, level, measure, mode, size_class):
    check_entered(manifest, a, level)
    check_entered(manifest, b, level)
    sets = manifest.sets_at(level=level, size_class=size_class)
    if not sets:
        raise NoProblems(level)
    by_key = index(runs)
    pairs = []
    for ps in sets:
        for problem in ps.problems:
            rec_a = by_key.get((a, ps.domain, level, problem))
            rec_b = by_key.get((b, ps.domain, level, problem))
            solved_a = rec_a is not None and rec_a.solved
            solved_b = rec_b is not None and rec_b.solved
            if not (solved_a or solved_b):
                continue
            va = measure_value(rec_a, measure)
            vb = measure_value(rec_b, measure)
            if mode is PairingMode.DOUBLE_HITS and (va == WORST or vb == WORST):
                continue
            pairs.append((va, vb))
    return pairs


def reference_judge_ranks(runs, manifest, planner, domain, level, size_class):
    check_entered(manifest, planner, level)
    (ps,) = manifest.sets_at(level=level, size_class=size_class, domain=domain)
    by_key = index(runs)
    times = [solve_time(by_key, planner, domain, level, p) for p in ps.problems]
    return tuple(reference_ranks([WORST if t is None else t for t in times]))


def reference_series(runs, manifest, domain, level, measure, size_class):
    (ps,) = manifest.sets_at(level=level, size_class=size_class, domain=domain)
    by_key = index(runs)
    at_cell = {r.planner for r in runs if (r.domain, r.level) == (domain, level)}
    planners = sorted(
        p for p in at_cell if any((p, domain, level, q) in by_key for q in ps.problems)
    )

    def value(rec):
        if rec is None or not rec.solved:
            return ""
        field = getattr(rec, MEASURE_FIELDS[measure])
        if field is None:
            return ""
        return str(field) if measure is Measure.SPEED else fmt_float(float(field))

    direction = ps.quality_direction.value if measure is Measure.QUALITY_METRIC else "minimize"
    out = io.StringIO()
    out.write(f"# direction={direction}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["problem"] + planners)
    for problem in ps.problems:
        writer.writerow(
            [problem] + [value(by_key.get((p, domain, level, problem))) for p in planners]
        )
    return out.getvalue()


def reference_validate(runs, manifest):
    diagnostics = []
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
        if not any(record.problem in s.problems
                   for s in manifest.sets_at(level=record.level, domain=record.domain)):
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
    by_key = index(runs)
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
        records = [by_key.get((entry.name, *key)) for key in available]
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


def outcome(f, *args, **kwargs):
    """repr of a call's result, or the type of what it raised."""
    try:
        return repr(f(*args, **kwargs))
    except Exception as exc:  # both sides must fail alike
        return type(exc)


KEYS = list(itertools.product(PLANNERS + ("ghost",), DOMAINS, LEVELS,
                               ["p0", "p1", "p2", "p3", "L0", "L1", "L4"]))


# a planner enters both levels half the time
LEVEL_CHOICES = [[], ["strips"], ["numeric"]] + [["strips", "numeric"]] * 3
SMALL = [None, 0, 1, 2, 3, 5, 6]
METRICS = [None, 0.0, -0.0, 1.5, 2.0, -3.25]
CODES = 2 * len(SMALL) ** 3 * len(METRICS)


def record(key, code):
    """The record a key and a code in range(CODES) stand for: one draw, not
    six.  A solved record has a time, as the loader requires."""
    code, solved = divmod(code, 2)
    code, time_ms = divmod(code, len(SMALL))
    code, metric = divmod(code, len(METRICS))
    conc, seq = divmod(code, len(SMALL))
    time_ms = SMALL[time_ms]
    return RunRecord(*key, bool(solved) and time_ms is not None, time_ms, METRICS[metric],
                     SMALL[seq], SMALL[conc])


@st.composite
def manifests(draw):
    often = st.integers(0, 4).map(bool)
    planners = [
        {
            "name": name,
            "category": draw(st.sampled_from(["fully-automated", "hand-coded"])),
            "levels": draw(st.sampled_from(LEVEL_CHOICES)),
        }
        for name in PLANNERS
        if draw(often)
    ]
    sets = [
        {
            "domain": domain,
            "level": level.value,
            "size_class": size,
            "quality_direction": draw(st.sampled_from(["minimize", "maximize"])),
            "problems": [f"{PREFIX[size]}{i}" for i in range(draw(st.integers(1, 4)))],
        }
        for domain, level, size in itertools.product(DOMAINS, LEVELS, PREFIX)
        if draw(often)
    ]
    return parse_manifest({"planners": planners, "problem_sets": sets})


@st.composite
def datasets(draw):
    manifest = draw(manifests())
    codes = st.tuples(st.sampled_from(KEYS), st.integers(0, CODES - 1))
    drawn = draw(st.lists(codes, min_size=20, max_size=100, unique_by=lambda c: c[0]))
    records = [record(*c) for c in drawn]
    return records, manifest


@st.composite
def clean_datasets(draw):
    """Records only on problems the manifest declares, each by a planner at
    a level it entered."""
    manifest = draw(manifests())
    keys = [
        (entry.name, ps.domain, ps.level, problem)
        for entry in manifest.planners
        for ps in manifest.problem_sets
        if ps.level in entry.levels_entered
        for problem in ps.problems
    ]
    if not keys:
        return [], manifest
    codes = st.tuples(st.sampled_from(keys), st.integers(0, CODES - 1))
    drawn = draw(st.lists(codes, max_size=100, unique_by=lambda c: c[0]))
    return [record(*c) for c in drawn], manifest


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_build_pairs_equals_per_key_scan(dataset):
    runs, manifest = dataset
    table = RunTable.of(runs)
    for a, b in itertools.permutations(PLANNERS, 2):
        for level, size, measure, mode in itertools.product(LEVELS, SizeClass, Measure, PairingMode):
            args = (manifest, a, b, level, measure, mode, size)
            assert outcome(build_pairs, table, *args) == outcome(reference_pairs, runs, *args), args


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_judge_ranks_and_series_equal_per_key_scan(dataset):
    runs, manifest = dataset
    table = RunTable.of(runs)
    for ps in manifest.problem_sets:
        cell = (ps.domain, ps.level, ps.size_class)
        for planner in PLANNERS:
            assert outcome(judge_ranks, table, manifest, planner, *cell) == outcome(
                reference_judge_ranks, runs, manifest, planner, *cell
            )
        for measure in Measure:
            got = series_csv(table, manifest, ps.domain, ps.level, measure, ps.size_class)
            assert got == reference_series(runs, manifest, ps.domain, ps.level, measure,
                                           ps.size_class)
    assert outcome(series_csv, table, manifest, "nowhere", Level.STRIPS, Measure.SPEED) \
        is NoProblems


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_validate_dataset_equals_per_key_scan(dataset):
    runs, manifest = dataset
    assert validate_dataset(runs, manifest) == reference_validate(runs, manifest)


@settings(max_examples=100, deadline=None)
@given(clean_datasets())
def test_validate_clean_dataset_equals_per_key_scan(dataset):
    runs, manifest = dataset
    diagnostics = validate_dataset(runs, manifest)
    assert diagnostics == reference_validate(runs, manifest)
    assert all(d.severity == "info" for d in diagnostics)


@pytest.mark.parametrize("bad, kinds", [
    (("ghost", "d1", Level.STRIPS, "p0"), ["UnknownPlanner"]),
    (("a", "d1", Level.STRIPS, "p9"), ["UnknownProblem"]),
    (("a", "d1", Level.NUMERIC, "p1"), ["LevelNotEntered"]),
    (("a", "d2", Level.NUMERIC, "p0"), ["UnknownProblem", "LevelNotEntered"]),
])
def test_one_bad_record_in_a_clean_table(bad, kinds):
    doc = {
        "planners": [{"name": "a", "category": "fully-automated", "levels": ["strips"]},
                     {"name": "b", "category": "hand-coded", "levels": ["strips", "numeric"]}],
        "problem_sets": [{"domain": "d1", "level": level, "size_class": "small",
                          "quality_direction": "minimize", "problems": ["p0", "p1", "p2"]}
                         for level in ("strips", "numeric")],
    }
    manifest = parse_manifest(doc)
    clean = [RunRecord(planner, "d1", level, f"p{i}", True, 10 + i)
             for planner, level in (("a", Level.STRIPS), ("b", Level.STRIPS), ("b", Level.NUMERIC))
             for i in range(3)]
    runs = clean[:4] + [RunRecord(*bad, False)] + clean[4:]
    diagnostics = validate_dataset(RunTable.of(runs), manifest)
    assert diagnostics == reference_validate(runs, manifest)
    assert [d.kind for d in diagnostics if d.severity == "error"] == kinds


def test_grid_follows_the_manifest_it_is_asked_for():
    doc = {
        "planners": [{"name": "a", "category": "fully-automated", "levels": ["strips"]}],
        "problem_sets": [{"domain": "d", "level": "strips", "size_class": "small",
                          "quality_direction": "minimize", "problems": ["p1", "p2"]}],
    }
    runs = RunTable.of([RunRecord("a", "d", Level.STRIPS, "p2", True, 7)])
    first = runs.grid(parse_manifest(doc), Level.STRIPS, SizeClass.SMALL)
    doc["problem_sets"][0]["problems"] = ["p2"]
    second = runs.grid(parse_manifest(doc), Level.STRIPS, SizeClass.SMALL)
    assert first.index.tolist() == [[-1, 0]]
    assert second.index.tolist() == [[0]]
    assert second.values["time_ms"].tolist() == [[7.0]]


def test_grid_arrays_are_read_only():
    """One table serves every command of a session, so a write into a grid
    would leak into the next command; every array refuses it."""
    manifest = Manifest(planners=(), problem_sets=(
        ProblemSet("d", Level.STRIPS, SizeClass.SMALL, QualityDirection.MINIMIZE, ("p1", "p2")),))
    runs = RunTable.of([RunRecord("a", "d", Level.STRIPS, "p2", True, 7)])
    grid = runs.grid(manifest, Level.STRIPS, SizeClass.SMALL)
    arrays = {"maximize": grid.maximize, "index": grid.index, "present": grid.present,
              "solved": grid.solved, **grid.values}
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


# each analysis that reads one problem set, asked for a domain with none;
# scaling reads only a verdict's classification, and both planners share
# one in "d" and "nowhere", so both domains are eligible
SHARED = {p: dict.fromkeys(("d", "nowhere"), SimpleNamespace(classification=None)) for p in "ab"}
MISSING_SET_CALLS = {
    "subject_areas": lambda runs, m: subject_areas(runs, m, ["a"], "nowhere", Level.STRIPS),
    "judge_rank_rows": lambda runs, m: judge_rank_rows(runs, m, ["a"], "nowhere", Level.STRIPS),
    "agreement_test": lambda runs, m: agreement_test(runs, m, "nowhere", Level.STRIPS),
    "scaling_comparisons": lambda runs, m: scaling_comparisons(
        runs, m, [("a", "b")], Level.STRIPS, SHARED,
        agreed_difficulty(runs, m, Level.STRIPS, Category.FULLY_AUTOMATED)),
    "series_csv": lambda runs, m: series_csv(runs, m, "nowhere", Level.STRIPS, Measure.SPEED),
}


@pytest.mark.parametrize("name", MISSING_SET_CALLS)
def test_missing_problem_set_is_one_error(name):
    manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 3)])
    runs = [run(p, "d", "strips", f"p{i:02d}", 10 * i) for p in ("a", "b") for i in (1, 2, 3)]
    with pytest.raises(NoProblems) as exc:
        MISSING_SET_CALLS[name](runs, manifest)
    assert str(exc.value) == "no small problem set for nowhere/strips"
