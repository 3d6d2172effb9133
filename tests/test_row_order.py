"""Row-order invariance: shuffling the runs CSV changes no analysis result."""

import functools
import io
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from planstats.agreement import agreement_table, judge_ranks
from planstats.dataio import Category, Level, load_manifest, read_runs
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


def analyses(runs):
    specific = hardness_table(runs, MANIFEST, AUTO, level_specific_pools=True, B=40, seed=5)
    difficulty = {level: agreed_difficulty(runs, MANIFEST, level, AUTO) for level in LEVELS}
    return (
        [
            compare(runs, MANIFEST, a, b, level, measure, mode)
            for a, b in all_pairs(PLANNERS)
            for level in LEVELS
            for measure in (Measure.SPEED, Measure.QUALITY_SEQ, Measure.QUALITY_METRIC)
            for mode in PairingMode
        ],
        [
            judge_ranks(runs, MANIFEST, planner, ps.domain, ps.level)
            for planner in PLANNERS
            for ps in MANIFEST.problem_sets
        ],
        agreement_table(runs, MANIFEST, AUTO),
        [
            series_csv(runs, MANIFEST, ps.domain, ps.level, measure)
            for ps in MANIFEST.problem_sets
            for measure in Measure
        ],
        specific,
        hardness_table(runs, MANIFEST, AUTO, level_specific_pools=False, B=40, seed=5),
        difficulty,
        [
            scaling_comparison(
                runs, MANIFEST, a, b, level, specific.by_planner(level), difficulty[level]
            )
            for a, b in all_pairs(PLANNERS)
            for level in LEVELS
        ],
    )


def analyses_of(rows):
    return analyses(read_runs(io.StringIO("".join([HEADER] + rows))))


@functools.cache
def expected():
    return analyses_of(ROWS)


# no shrink phase: minimising a 240-row permutation reruns every analysis
# for minutes, and any failing order already shows the fault
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.permutations(ROWS))
def test_shuffled_rows_give_equal_results(rows):
    assert analyses_of(rows) == expected()
