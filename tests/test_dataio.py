import csv
import importlib.util
import io
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import MALFORMED_MANIFEST_FIELDS, manifest_doc_with, pset, run, simple_manifest
from test_loader_fuzz import reference_read
from planstats import dataio
from planstats.dataio import (
    BadField,
    Category,
    DuplicateKey,
    DuplicateProblem,
    EmptyProblemList,
    Level,
    Manifest,
    MissingHeader,
    ParseError,
    PlannerEntry,
    ProblemSet,
    QualityDirection,
    RUNS_HEADER,
    RunRecord,
    RunTable,
    SizeClass,
    UnknownLevel,
    load_manifest,
    load_runs,
    parse_manifest,
    runs_from_bytes,
    validate_dataset,
)

ROOT = Path(__file__).resolve().parent.parent
HEADER = "planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length"


def load_text(text):
    return runs_from_bytes(text.encode("utf-8"))


def test_header_is_record_fields_in_file_order():
    assert ",".join(RUNS_HEADER) == HEADER


class TestLoadRuns:
    def test_solved_row(self):
        records = load_text(f"{HEADER}\nhermes,cargo,strips,p01,1,120,,14,9\n")
        assert list(records) == [
            RunRecord("hermes", "cargo", Level.STRIPS, "p01", True, 120, None, 14, 9)
        ]

    def test_unsolved_row(self):
        (rec,) = load_text(f"{HEADER}\nturtle,cargo,time,p07,0,,,,\n")
        assert not rec.solved
        assert rec.time_ms is None
        assert rec.metric_value is None
        assert rec.seq_length is None
        assert rec.conc_length is None

    def test_time_on_unsolved_rejected(self):
        with pytest.raises(BadField) as exc:
            load_text(f"{HEADER}\nhermes,cargo,strips,p01,0,120,,,\n")
        assert exc.value.row == 2
        assert exc.value.column == "time_ms"

    def test_missing_time_on_solved_rejected(self):
        with pytest.raises(BadField):
            load_text(f"{HEADER}\nhermes,cargo,strips,p01,1,,,,\n")

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            load_text("a,b,c\nhermes,cargo,strips,p01,1,120,,,\n")
        with pytest.raises(MissingHeader):
            load_text("")

    def test_duplicate_key(self):
        text = (
            f"{HEADER}\n"
            "hermes,cargo,strips,p01,1,120,,,\n"
            "hermes,cargo,strips,p01,1,130,,,\n"
        )
        with pytest.raises(DuplicateKey) as exc:
            load_text(text)
        assert exc.value.row == 3

    def test_bad_solved_flag(self):
        with pytest.raises(BadField):
            load_text(f"{HEADER}\nhermes,cargo,strips,p01,2,120,,,\n")

    def test_negative_time(self):
        with pytest.raises(BadField):
            load_text(f"{HEADER}\nhermes,cargo,strips,p01,1,-3,,,\n")

    def test_unknown_level(self):
        with pytest.raises(BadField):
            load_text(f"{HEADER}\nhermes,cargo,classical,p01,1,120,,,\n")

    def test_crlf_accepted(self):
        text = f"{HEADER}\r\nhermes,cargo,strips,p01,1,120,,,\r\n"
        assert len(load_text(text)) == 1

    def test_order_preserved(self):
        text = (
            f"{HEADER}\n"
            "B,cargo,strips,p02,1,10,,,\n"
            "A,cargo,strips,p01,0,,,,\n"
        )
        records = load_text(text)
        assert [r.planner for r in records] == ["B", "A"]

    def test_metric_parsing(self):
        (rec,) = load_text(f"{HEADER}\nhermes,cargo,numeric,p01,1,120,-4.25,,\n")
        assert rec.metric_value == -4.25

    def test_nonfinite_metric_rejected(self):
        with pytest.raises(BadField):
            load_text(f"{HEADER}\nhermes,cargo,numeric,p01,1,120,inf,,\n")

    @pytest.mark.parametrize("line, row, column", [
        (b"hermes,d\xe9pots,strips,p01,1,120,,,", 3, "domain"),
        (b"hermes,cargo,strips,p01,1,120,,,,\xff", 3, "<row>"),
    ])
    def test_byte_not_utf8_cites_row_and_column(self, tmp_path, line, row, column):
        path = tmp_path / "runs.csv"
        path.write_bytes(HEADER.encode() + b"\nhermes,cargo,strips,p02,0,,,,\n" + line + b"\n")
        with pytest.raises(BadField) as exc:
            load_runs(path)
        assert (exc.value.row, exc.value.column) == (row, column)
        assert "not UTF-8" in exc.value.reason


names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters='",'),
    min_size=1,
    max_size=8,
)


@st.composite
def records_strategy(draw):
    keys = draw(
        st.lists(
            st.tuples(names, names, st.sampled_from(list(Level)), names),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    out = []
    for planner, domain, level, problem in keys:
        if draw(st.booleans()):
            out.append(
                RunRecord(
                    planner,
                    domain,
                    level,
                    problem,
                    True,
                    draw(st.integers(0, 10**9)),
                    draw(st.none() | st.floats(-1e6, 1e6)),
                    draw(st.none() | st.integers(0, 10**6)),
                    draw(st.none() | st.integers(0, 10**6)),
                )
            )
        else:
            out.append(RunRecord(planner, domain, level, problem, False))
    return out


def write_runs(records, path):
    """Write records as a runs CSV, an absent field empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUNS_HEADER)
        for r in records:
            values = (r.time_ms, r.metric_value, r.seq_length, r.conc_length)
            writer.writerow([r.planner, r.domain, r.level.value, r.problem, int(r.solved),
                             *("" if v is None else repr(v) for v in values)])


@given(records_strategy())
def test_save_load_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "runs.csv"
    write_runs(records, path)
    assert list(load_runs(path)) == records


@given(records_strategy())
def test_loaded_records_satisfy_invariants(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("inv") / "runs.csv"
    write_runs(records, path)
    seen = set()
    for rec in load_runs(path):
        if not rec.solved:
            assert rec.time_ms is None
            assert rec.metric_value is None
            assert rec.seq_length is None
            assert rec.conc_length is None
        else:
            assert rec.time_ms is not None and rec.time_ms >= 0
        assert rec.key not in seen
        seen.add(rec.key)


class TestManifest:
    def test_minimal(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '{"planners":[{"name":"FF","category":"fully-automated","levels":["strips"]}],'
            '"problem_sets":[{"domain":"cargo","level":"strips","size_class":"small",'
            '"quality_direction":"minimize","problems":["p01","p02"]}]}'
        )
        manifest = load_manifest(path)
        assert len(manifest.planners) == 1
        assert manifest.planners[0].category is Category.FULLY_AUTOMATED
        assert manifest.problem_sets[0].problems == ("p01", "p02")

    def test_planners_in_name_order(self):
        doc = {
            "planners": [
                {"name": "zeta", "category": "fully-automated", "levels": ["strips"]},
                {"name": "hand", "category": "hand-coded", "levels": ["strips"]},
                {"name": "alpha", "category": "fully-automated", "levels": ["strips"]},
                {"name": "absent", "category": "fully-automated", "levels": ["time"]},
                {"name": "mid", "category": "fully-automated", "levels": ["strips", "time"]},
            ],
            "problem_sets": [pset("d", "strips", 2), pset("d", "time", 2)],
        }
        manifest = parse_manifest(doc)
        names = [p.name for p in manifest.planners_in(Category.FULLY_AUTOMATED, Level.STRIPS)]
        assert names == ["alpha", "mid", "zeta"]

    def test_case_insensitive_level(self):
        manifest = simple_manifest({"a": ["SimpleTime"]}, [pset("d", "SIMPLETIME", 2)])
        assert manifest.problem_sets[0].level is Level.SIMPLE_TIME

    def test_duplicate_problem(self):
        bad = pset("d", "strips", 3)
        bad["problems"][1] = bad["problems"][0]
        with pytest.raises(DuplicateProblem):
            simple_manifest({"a": ["strips"]}, [bad])

    def test_duplicate_across_size_classes(self):
        with pytest.raises(DuplicateProblem):
            simple_manifest(
                {"a": ["strips"]},
                [pset("d", "strips", 2), pset("d", "strips", 2, size="large")],
            )

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ParseError):
            simple_manifest(
                {"a": ["strips"]},
                [pset("d", "strips", 2), pset("d", "strips", 2, prefix="q")],
            )

    def test_empty_problem_list(self):
        bad = pset("d", "strips", 1)
        bad["problems"] = []
        with pytest.raises(EmptyProblemList):
            simple_manifest({"a": ["strips"]}, [bad])

    def test_unknown_level(self):
        with pytest.raises(UnknownLevel):
            simple_manifest({"a": ["classical"]}, [pset("d", "strips", 2)])

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(path)
        path.write_bytes(b"\xff")
        with pytest.raises(ParseError):
            load_manifest(path)
        with pytest.raises(ParseError):
            parse_manifest([])
        with pytest.raises(ParseError):
            parse_manifest({"planners": []})

    @pytest.mark.parametrize("entry, key, value", MALFORMED_MANIFEST_FIELDS)
    def test_malformed_level_or_domain(self, entry, key, value):
        with pytest.raises(ParseError):
            parse_manifest(manifest_doc_with(entry, key, value))

    def test_duplicate_planner(self):
        with pytest.raises(ParseError):
            parse_manifest(
                {
                    "planners": [
                        {"name": "a", "category": "fully-automated", "levels": ["strips"]},
                        {"name": "a", "category": "hand-coded", "levels": ["strips"]},
                    ],
                    "problem_sets": [pset("d", "strips", 2)],
                }
            )

    def test_lookups_indexed_outside_eq_and_repr(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["numeric"]}, [pset("d", "strips", 2)])
        assert manifest.planner("b") is manifest.planners[1]
        assert manifest.planner("zz") is None
        twin = Manifest(planners=manifest.planners, problem_sets=manifest.problem_sets)
        assert twin == manifest and hash(twin) == hash(manifest)
        assert "_by" not in repr(manifest)


class TestValidateDataset:
    def _manifest(self):
        return simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 4)])

    def test_consistent_dataset(self):
        manifest = self._manifest()
        runs = [run("a", "d", "strips", "p01", 5)]
        diags = validate_dataset(runs, manifest)
        assert all(d.severity == "info" for d in diags)

    def test_unknown_planner(self):
        diags = validate_dataset([run("zz", "d", "strips", "p01", 5)], self._manifest())
        assert any(d.kind == "UnknownPlanner" and d.severity == "error" for d in diags)

    def test_unknown_problem(self):
        diags = validate_dataset([run("a", "d", "strips", "p99", 5)], self._manifest())
        assert any(d.kind == "UnknownProblem" for d in diags)

    def test_level_not_entered(self):
        manifest = simple_manifest(
            {"a": ["strips"]}, [pset("d", "strips", 2), pset("d", "numeric", 2, prefix="n")]
        )
        diags = validate_dataset([run("a", "d", "numeric", "n01", 5)], manifest)
        assert any(d.kind == "LevelNotEntered" for d in diags)

    def test_diagnostics_in_record_order(self):
        manifest = simple_manifest(
            {"a": ["strips"]}, [pset("d", "strips", 2), pset("d", "numeric", 2, prefix="n")]
        )
        runs = [
            run("a", "d", "numeric", "n01", 5),
            run("zz", "d", "strips", "p01", 5),
            run("a", "d", "strips", "p99", 5),
            run("a", "d", "numeric", "p99", 5),
        ]
        kinds = [d.kind for d in validate_dataset(runs, manifest) if d.severity == "error"]
        assert kinds == [
            "LevelNotEntered",
            "UnknownPlanner",
            "UnknownProblem",
            "UnknownProblem",
            "LevelNotEntered",
        ]

    def test_coverage_note_is_informational(self):
        manifest = self._manifest()
        runs = [run("a", "d", "strips", "p01", 5), run("a", "d", "strips", "p02")]
        diags = validate_dataset(runs, manifest)
        notes = [d for d in diags if d.kind == "Coverage" and "planner a" in d.message]
        assert len(notes) == 1
        assert notes[0].severity == "info"
        assert "attempted 2" in notes[0].message
        assert "solved 1" in notes[0].message
        assert "of 4" in notes[0].message

    def test_coverage_counts_large_sets_for_hand_coded_only(self):
        doc = {
            "planners": [
                {"name": "auto", "category": "fully-automated", "levels": ["strips"]},
                {"name": "hand", "category": "hand-coded", "levels": ["strips"]},
            ],
            "problem_sets": [pset("d", "strips", 4), pset("d", "strips", 3, size="large", prefix="L")],
        }
        runs = [run(p, "d", "strips", problem, 5) for p in ("auto", "hand")
                for problem in ("p01", "L01", "L02")]
        notes = [d.message for d in validate_dataset(runs, parse_manifest(doc))
                 if d.kind == "Coverage"]
        assert notes == [
            "planner auto attempted 1 and solved 1 of 4 available problems",
            "planner hand attempted 3 and solved 3 of 7 available problems",
        ]


def written(text, form):
    """A runs CSV written again in ``form``: with the line end ``form``,
    every field quoted, every data field padded, or a blank line added."""
    if form in ("\n", "\r\n"):
        return text.replace("\n", form)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if form == "quote-all":
        out = io.StringIO()
        csv.writer(out, quoting=csv.QUOTE_ALL).writerows(rows)
        return out.getvalue()
    if form == "padded":
        header, *rows = rows
        return ",".join(header) + "\n" + "".join(",".join(f" {f} " for f in row) + "\n"
                                               for row in rows)
    return text + "\n"  # a trailing blank line


class TestColumnPath:
    """Every valid file is converted a column at a time, in one call of
    ``_convert``; converting one row at a time is only how a bad file's
    first bad row is found."""

    @pytest.fixture()
    def runs_text(self, request, tmp_path):
        if request.param == "sample":
            return (ROOT / "data" / "sample" / "runs.csv").read_text(encoding="utf-8")
        spec = importlib.util.spec_from_file_location(
            "_gridgen_under_test", ROOT / "perfbench" / "gridgen.py")
        gridgen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gridgen)
        runs, _ = gridgen.write_grid(1, tmp_path / "grid", gridgen.SHAPE)
        return runs.read_text(encoding="utf-8")

    @pytest.mark.parametrize("runs_text", ["sample", "grid"], indirect=True)
    @pytest.mark.parametrize("form", ["\n", "\r\n", "quote-all", "padded", "blank-line"])
    def test_valid_file_is_not_parsed_row_by_row(self, runs_text, form, tmp_path, monkeypatch):
        text = written(runs_text, form)
        expected = reference_read(text)
        path = tmp_path / "runs.csv"
        path.write_bytes(text.encode("utf-8"))
        calls = []

        def convert(columns):
            calls.append(len(columns[0]))
            return real_convert(columns)

        real_convert = dataio._convert
        monkeypatch.setattr(dataio, "_convert", convert)
        loaded = list(load_runs(path))
        assert len(loaded) > 100
        assert loaded == expected
        assert calls == [len(loaded)]

    @pytest.mark.parametrize("runs_text", ["sample", "grid"], indirect=True)
    @pytest.mark.parametrize("form", ["\n", "quote-all"])
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_bad_row_is_refused_by_row(self, runs_text, form, at):
        header, *lines = runs_text.splitlines()
        k = {"first": 0, "middle": len(lines) // 2, "last": len(lines) - 1}[at]
        fields = lines[k].split(",")
        fields[RUNS_HEADER.index("time_ms")] = "x"
        lines[k] = ",".join(fields)
        text = written("\n".join([header, *lines]) + "\n", form)
        with pytest.raises(BadField) as expected:
            reference_read(text)
        with pytest.raises(BadField) as exc:
            load_text(text)
        assert (exc.value.row, str(exc.value)) == (expected.value.row, str(expected.value))
        assert (exc.value.row, exc.value.column) == (k + 2, "time_ms")

    def test_short_row_before_a_long_one_is_refused_by_row(self):
        # eight fields, then ten: the file's field count is that of two
        # good rows, but its line ends are out of step with the columns
        text = (f"{HEADER}\n"
                "hermes,cargo,strips,p01,1,120,,14\n"
                "hermes,cargo,strips,p02,1,120,,14,9,9\n")
        with pytest.raises(BadField) as exc:
            load_text(text)
        assert (exc.value.row, exc.value.column) == (2, "<row>")
        assert exc.value.reason == "expected 9 fields, got 8"


@pytest.mark.parametrize("planner, domain, problems, message", [
    pytest.param(" apex", "d", ["", " p1"], "planner name must be a non-empty string without "
                 "padding, got ' apex'", id="padded-planner"),
    pytest.param("apex", "d", ["p0", "", " p1"], "problem id in d/strips must be a non-empty "
                 "string without padding, got ''", id="empty-problem"),
    pytest.param("apex", "d", [" p1"], "problem id in d/strips must be a non-empty string "
                 "without padding, got ' p1'", id="padded-problem"),
    pytest.param("apex", "d ", ["p1"], "domain must be a non-empty string without padding, "
                 "got 'd '", id="padded-domain"),
])
def test_manifest_refuses_a_name_no_record_can_give(planner, domain, problems, message):
    """The runs loader strips every field, so no record can name a padded
    planner, domain or problem, nor an empty problem: the manifest refuses
    such a name rather than report each record of it as undeclared."""
    doc = {"planners": [{"name": planner, "category": "fully-automated", "levels": ["strips"]}],
           "problem_sets": [{**pset(domain, "strips"), "problems": problems}]}
    with pytest.raises(ParseError) as exc:
        parse_manifest(doc)
    assert str(exc.value) == message


def hand_built(doc):
    """The manifest of a document, built from its entries without
    parse_manifest."""
    return Manifest(
        planners=tuple(
            PlannerEntry(p["name"], Category(p["category"]), frozenset(map(Level.parse, p["levels"])))
            for p in doc["planners"]
        ),
        problem_sets=tuple(
            ProblemSet(s["domain"], Level.parse(s["level"]), SizeClass(s["size_class"]),
                       QualityDirection(s["quality_direction"]), tuple(s["problems"]))
            for s in doc["problem_sets"]
        ),
    )


A = {"name": "a", "category": "fully-automated", "levels": ["strips"]}


@pytest.mark.parametrize("planners, sets, error, message", [
    pytest.param([A, {**A, "category": "hand-coded"}], [pset("d", "strips", 2)],
                 ParseError, "duplicate planner name 'a'", id="planner"),
    # the second set's problems are new: only the (domain, level, size
    # class) repeats, so both sets would claim the domain's columns
    pytest.param([A], [pset("d", "strips", 2), pset("d", "strips", 2, prefix="q")],
                 ParseError, "duplicate problem set for d/strips/small", id="set"),
    pytest.param([A], [pset("d", "strips", 2), pset("d", "strips", 1, size="large")],
                 DuplicateProblem, "duplicate problem 'p01' in d/strips", id="problem"),
])
def test_hand_built_manifest_refuses_a_repeat(planners, sets, error, message):
    """Every manifest holds the key rule: building one by hand raises what
    the loader raises for the same document."""
    doc = {"planners": planners, "problem_sets": sets}
    with pytest.raises(error) as parsed:
        parse_manifest(doc)
    with pytest.raises(error) as built:
        hand_built(doc)
    assert str(built.value) == str(parsed.value) == message


def test_table_of_a_list_refuses_a_repeated_key():
    runs = [run("a", "d", "strips", "p01", 5), run("b", "d", "strips", "p01", 6),
            run("a", "d", "strips", "p02"), run("a", "d", "strips", "p01")]
    with pytest.raises(DuplicateKey) as exc:
        RunTable.of(runs)
    assert exc.value.row == 4
    assert exc.value.key == ("a", "d", Level.STRIPS, "p01")
    assert str(exc.value) == "row 4: duplicate record key ('a', 'd', <Level.STRIPS: 'strips'>, 'p01')"
    # a loaded table passed the loader's check: it is used as it is
    loaded = load_text(f"{HEADER}\na,d,strips,p01,1,5,,,\nb,d,strips,p01,1,6,,,\n")
    assert RunTable.of(loaded) is loaded
    assert list(RunTable.of(runs[:3])) == runs[:3]
