import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from planstats.dataio import Level, RunRecord, parse_manifest


def run(planner, domain, level, problem, time_ms=None, metric=None, seq=None, conc=None):
    """RunRecord shorthand: solved is inferred from time_ms presence."""
    if isinstance(level, str):
        level = Level.parse(level)
    return RunRecord(
        planner=planner,
        domain=domain,
        level=level,
        problem=problem,
        solved=time_ms is not None,
        time_ms=time_ms,
        metric_value=metric,
        seq_length=seq,
        conc_length=conc,
    )


def pset(domain, level, n=20, direction="minimize", size="small", prefix="p"):
    return {
        "domain": domain,
        "level": level,
        "size_class": size,
        "quality_direction": direction,
        "problems": [f"{prefix}{i:02d}" for i in range(1, n + 1)],
    }


def simple_manifest(planner_levels, problem_sets, category="fully-automated"):
    """Manifest from {planner: [level, ...]} plus pset() dicts."""
    doc = {
        "planners": [
            {"name": name, "category": category, "levels": levels}
            for name, levels in planner_levels.items()
        ],
        "problem_sets": problem_sets,
    }
    return parse_manifest(doc)


# (entry, key, value) that make a manifest malformed: a planner's levels
# that are not a list of level names, or a set's level or domain that is
# not a non-empty string
MALFORMED_MANIFEST_FIELDS = [
    pytest.param("planner", "levels", "strips", id="levels-not-a-list"),
    pytest.param("planner", "levels", [5], id="planner-level-int"),
    pytest.param("planner", "levels", [""], id="planner-level-empty"),
    pytest.param("set", "level", 5, id="set-level-int"),
    pytest.param("set", "level", "", id="set-level-empty"),
    pytest.param("set", "domain", 7, id="domain-int"),
    pytest.param("set", "domain", "", id="domain-empty"),
]


def manifest_doc_with(entry, key, value):
    """A one-planner, one-set manifest document with one field replaced."""
    doc = {
        "planners": [{"name": "a", "category": "fully-automated", "levels": ["strips"]}],
        "problem_sets": [pset("d", "strips", 2)],
    }
    target = doc["planners"][0] if entry == "planner" else doc["problem_sets"][0]
    target[key] = value
    return doc
