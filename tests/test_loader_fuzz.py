"""Loader fuzzer: mutated runs CSVs load as a row-by-row parse loads them.

Hypothesis starts from a valid CSV and mutates fields and rows.  The
loader must raise only ``DataError`` subclasses, and exactly where the
reference below, which parses and checks one row at a time, does: the
same class, row, column and message for the first bad row, or the same
records when the file is valid.
"""

import csv
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from planstats.dataio import (
    RUNS_HEADER,
    BadField,
    DataError,
    DuplicateKey,
    Level,
    MissingHeader,
    RunRecord,
    UnknownLevel,
    runs_from_bytes,
)


def parse_optional_int(raw, row, column):
    if raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise BadField(row, column, f"not an integer: {raw!r}") from None
    if value < 0:
        raise BadField(row, column, f"must be nonnegative, got {value}")
    return value


def parse_optional_float(raw, row, column):
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise BadField(row, column, f"not a number: {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise BadField(row, column, "must be finite")
    return value


def parse_run_row(fields, row):
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
    time_ms = parse_optional_int(fields[5].strip(), row, "time_ms")
    metric_value = parse_optional_float(fields[6].strip(), row, "metric_value")
    seq_length = parse_optional_int(fields[7].strip(), row, "seq_length")
    conc_length = parse_optional_int(fields[8].strip(), row, "conc_length")
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
    return RunRecord(planner, domain, level, problem, solved, time_ms, metric_value,
                     seq_length, conc_length)


def reference_read(text):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingHeader("empty file") from None
    if tuple(h.strip() for h in header) != RUNS_HEADER:
        raise MissingHeader(f"expected header {','.join(RUNS_HEADER)!r}, got {','.join(header)!r}")
    records, seen = [], set()
    for row_number, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and fields[0].strip() == ""):
            continue
        record = parse_run_row(fields, row_number)
        if record.key in seen:
            raise DuplicateKey(row_number, record.key)
        seen.add(record.key)
        records.append(record)
    return records


def loaded(read, text):
    """("ok", records) or ("error", class, message, row, column)."""
    try:
        return ("ok", list(read(text)))
    except DataError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None))


VALID_ROWS = [
    ["apex", "d", "strips", "p1", "1", "120", "", "14", "9"],
    ["apex", "d", "strips", "p2", "0", "", "", "", ""],
    ["bolt", "d", "numeric", "p1", "1", "7", "-4.25", "", ""],
    ["bolt", "d", "numeric", "p2", "1", "0", "0.0", "3", "3"],
    ["crux", "e", "STRIPS", "p1", "1", "55", "12", "", "2"],
]
NAMES = ["", " ", " apex", "apex ", "\t", "a,b", '"q"', '"a,b"', "apex", "d", "p1"]
NUMBERS = ["", " ", "-1", "-0", "+5", " 5", "5 ", "1.5", "1_000", "٣", "0x10", "abc", "0", "7"]
# odd values for each column, in RUNS_HEADER order
ODD_FIELDS = [
    NAMES,
    NAMES,
    ["STRIPS", "Strips", " numeric ", "classical", "", "strips", "numeric"],
    NAMES,
    ["", "2", " 1", "1 ", "yes", "0", "1"],
    NUMBERS,
    ["", "nan", "inf", "-inf", "1e999", "1.5", " 2", "abc", "-0.0", "1_0.5", "0"],
    NUMBERS,
    NUMBERS,
]


@st.composite
def mutated_csv(draw):
    rows = [list(r) for r in VALID_ROWS]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["field", "field", "field", "copy", "drop", "blank",
                                     "width"]))
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "field" and len(rows[i]) == len(RUNS_HEADER):
            j = draw(st.integers(0, len(RUNS_HEADER) - 1))
            rows[i][j] = draw(st.sampled_from(ODD_FIELDS[j]))
        elif kind == "copy":
            copy = list(rows[i])
            if len(copy) > 2 and draw(st.booleans()):  # the same key, spelt otherwise
                copy[2] = copy[2].upper()
            rows.insert(draw(st.integers(0, len(rows))), copy)
        elif kind == "drop":
            del rows[i]
        elif kind == "blank":
            rows.insert(i, draw(st.sampled_from([[], ["  "]])))
        elif kind == "width" and draw(st.booleans()):
            rows[i].append("x")
        elif kind == "width" and rows[i]:
            rows[i].pop()
    header = draw(st.sampled_from([list(RUNS_HEADER)] * 4 + [
        [" planner ", *RUNS_HEADER[1:]], list(RUNS_HEADER[:-1]), []]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if draw(st.booleans()):
        out = io.StringIO()
        csv.writer(out, lineterminator=ending).writerows([header] + rows)
        return out.getvalue()
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


HEADER = ",".join(RUNS_HEADER)


@settings(max_examples=500, deadline=None)
@given(mutated_csv())
# an empty problem before a bad level in one row: the problem is reported
@example(f"{HEADER}\napex,d,classical,,1,5,,,\n")
# solved=1 with no time and a bad conc_length: the bad field is reported
@example(f"{HEADER}\napex,d,strips,p1,1,,,,x\n")
# a repeated key with a bad seq_length in the same row: the field is reported
@example(f"{HEADER}\napex,d,strips,p1,1,5,,,\napex,d,strips,p1,1,5,,x,\n")
# a bad field in row 2 before an empty planner in row 3: row 2 is reported
@example(f"{HEADER}\napex,d,strips,p1,1,x,,,\n,d,strips,p2,1,5,,,\n")
def test_loader_fails_like_the_row_by_row_parse(text):
    expected = loaded(reference_read, text)
    got = loaded(lambda t: runs_from_bytes(t.encode("utf-8")), text)
    assert got == expected
