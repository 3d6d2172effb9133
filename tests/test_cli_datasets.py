"""Every command on generated datasets: no traceback, no warning, a
documented exit code, and the same bytes in any row or planner order.

Each example draws a whole small dataset: 1-4 fully-automated and 0-2
hand-coded planners, each entering 1-3 levels, and 1-3 domains whose sets
hold 1-6 problems, small and large, minimize and maximize, with unsolved,
unattempted and metric-0.0 cells.  One session per dataset runs the
full-analysis commands of both categories plus the ``--level``,
``--size``, ``--cross`` and ``--reduce`` variants and one series per set;
a second session runs them on the same dataset with its rows shuffled and
its manifest's planners permuted.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pset
from planstats import cli
from planstats.dataio import RUNS_HEADER, Level

LEVELS = ("strips", "numeric", "time")
PREFIX = {"small": "p", "large": "L"}
# a small bootstrap keeps each hardness and scaling command quick
CONFIG = "bootstrap_B=200\n"


def optional(draw, values):
    return draw(st.none() | values)


@st.composite
def datasets(draw):
    """(runs CSV lines, manifest document) of one small dataset."""
    planners = [{"name": f"a{k}", "category": "fully-automated"}
                for k in range(draw(st.integers(1, 4)))]
    planners += [{"name": f"h{k}", "category": "hand-coded"}
                 for k in range(draw(st.integers(0, 2)))]
    for p in planners:
        p["levels"] = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True))
    sets = []
    for d in range(draw(st.integers(1, 3))):
        for level in draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True)):
            for size in draw(st.sampled_from([("small",), ("large",), ("small", "large")])):
                direction = draw(st.sampled_from(["minimize", "maximize"]))
                sets.append(pset(f"d{d}", level, draw(st.integers(1, 6)), direction, size,
                                 PREFIX[size]))
    lines = []
    for p in planners:
        for s in sets:
            if s["level"] not in p["levels"]:
                continue
            for problem in s["problems"]:
                cell = draw(st.sampled_from(["unattempted", "unsolved", "solved", "solved"]))
                if cell == "unattempted":
                    continue
                values = ["0", "", "", "", ""]
                if cell == "solved":
                    metric = optional(draw, st.sampled_from([0.0, 1.0, 2.5, 40.0]))
                    values = ["1", str(draw(st.integers(1, 60))),
                              "" if metric is None else repr(metric),
                              *("" if v is None else str(v)
                                for v in (optional(draw, st.integers(1, 9)) for _ in range(2)))]
                lines.append(",".join([p["name"], s["domain"], s["level"], problem, *values]))
    return lines, {"planners": planners, "problem_sets": sets}


def commands_for(doc):
    """The full-analysis commands of both categories, their filtered
    variants, and one series per set in its level's first quality channel."""
    level = doc["problem_sets"][0]["level"]
    commands = [["validate"]]
    for category in ("auto", "hand"):
        c = ["--category", category]
        commands += [["compare", *c], ["order", *c], ["order", "--cross", "--reduce", *c],
                     ["hardness", *c], ["agreement", *c], ["scaling", *c],
                     ["hardness", "--level", level, *c], ["agreement", "--size", "small", *c]]
    for s in doc["problem_sets"]:
        measure = cli.quality_channels(Level(s["level"]))[0].value
        commands.append(["series", "--domain", s["domain"], "--level", s["level"],
                         "--size", s["size_class"], "--measure", measure])
    return commands


def run_all(work: Path, lines, doc, commands):
    """Each command's exit code and the files it wrote, every
    ``dataset_sha256=`` header line dropped: it hashes the input bytes.
    A warning raised anywhere in the session fails the test, since it
    would reach the user's stderr."""
    work.mkdir()
    (work / "runs.csv").write_text("\n".join([",".join(RUNS_HEADER), *lines]) + "\n")
    (work / "manifest.json").write_text(json.dumps(doc))
    (work / "config.txt").write_text(CONFIG)
    base = ["--runs", str(work / "runs.csv"), "--manifest", str(work / "manifest.json"),
            "--config", str(work / "config.txt")]
    parser = cli.build_parser()
    codes, outputs = [], {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        session = cli.open_session(parser.parse_args(["validate", *base]))
        assert not isinstance(session, int)
        for k, command in enumerate(commands):
            out = work / f"c{k:02d}"
            args = parser.parse_args([*command, *base, "--out", str(out)])
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                codes.append(cli.run_command(session, args))
            for path in sorted(out.glob("*")):
                text = path.read_text(encoding="utf-8")
                outputs[k, path.name] = [line for line in text.splitlines(keepends=True)
                                         if "dataset_sha256=" not in line]
    return codes, outputs


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(datasets(), st.data())
def test_every_command_exits_cleanly_and_ignores_row_and_planner_order(dataset, data):
    lines, doc = dataset
    shuffled = {**doc, "planners": data.draw(st.permutations(doc["planners"]))}
    shuffled_lines = data.draw(st.permutations(lines))
    commands = commands_for(doc)
    with tempfile.TemporaryDirectory() as tmp:
        codes, outputs = run_all(Path(tmp) / "given", lines, doc, commands)
        assert set(codes) <= {0, 2, 3}
        assert run_all(Path(tmp) / "shuffled", shuffled_lines, shuffled, commands) == (
            codes, outputs)
