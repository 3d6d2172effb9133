"""Order invariance: shuffling the runs CSV or the manifest's planners
changes no analysis result."""

import functools
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from planstats.agreement import agreement_table, judge_ranks
from planstats.dataio import Category, Level, load_manifest, parse_manifest, runs_from_bytes
from planstats.hardness import hardness_table
from planstats.pairwise import Measure, PairingMode, all_pairs, compare
from planstats.report import series_csv
from planstats.scaling import agreed_difficulty, scaling_comparison

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample"
HEADER, *ROWS = (SAMPLE / "runs.csv").read_text(encoding="utf-8").splitlines(keepends=True)
MANIFEST = load_manifest(SAMPLE / "manifest.json")
AUTO = Category.FULLY_AUTOMATED
PLANNERS = [p.name for p in MANIFEST.planners]
LEVELS = (Level.STRIPS, Level.NUMERIC)


def analyses(runs, manifest=MANIFEST):
    specific = hardness_table(runs, manifest, AUTO, level_specific_pools=True, B=40, seed=5)
    difficulty = {level: agreed_difficulty(runs, manifest, level, AUTO) for level in LEVELS}
    return (
        [
            compare(runs, manifest, a, b, level, measure, mode)
            for a, b in all_pairs(PLANNERS)
            for level in LEVELS
            for measure in (Measure.SPEED, Measure.QUALITY_SEQ, Measure.QUALITY_METRIC)
            for mode in PairingMode
        ],
        [
            judge_ranks(runs, manifest, planner, ps.domain, ps.level)
            for planner in PLANNERS
            for ps in manifest.problem_sets
        ],
        agreement_table(runs, manifest, AUTO),
        [
            series_csv(runs, manifest, ps.domain, ps.level, measure)
            for ps in manifest.problem_sets
            for measure in Measure
        ],
        specific,
        hardness_table(runs, manifest, AUTO, level_specific_pools=False, B=40, seed=5),
        difficulty,
        [
            scaling_comparison(
                runs, manifest, a, b, level, specific.by_planner(level), difficulty[level]
            )
            for a, b in all_pairs(PLANNERS)
            for level in LEVELS
        ],
    )


def analyses_of(rows):
    return analyses(runs_from_bytes("".join([HEADER] + rows).encode("utf-8")))


@functools.cache
def expected():
    return analyses_of(ROWS)


# no shrink phase: minimising a 240-row permutation reruns every analysis
# for minutes, and any failing order already shows the fault
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.permutations(ROWS))
def test_shuffled_rows_give_equal_results(rows):
    assert analyses_of(rows) == expected()


@pytest.mark.parametrize("order", list(itertools.permutations(range(len(PLANNERS))))[1:])
def test_permuted_manifest_planners_give_equal_results(order):
    doc = json.loads((SAMPLE / "manifest.json").read_text(encoding="utf-8"))
    doc["planners"] = [doc["planners"][i] for i in order]
    runs = runs_from_bytes("".join([HEADER] + ROWS).encode("utf-8"))
    assert analyses(runs, parse_manifest(doc)) == expected()
