import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pset, run, simple_manifest
from planstats import cli
from planstats.agreement import (
    TooFewJudges,
    TooFewProblems,
    agreement_table,
    agreement_test,
    judge_rank_rows,
    judge_ranks,
)
from planstats.dataio import Category, Level, SizeClass
from planstats.pairwise import PlannerNotInLevel
from planstats.stattests import mrc_test

AUTO = Category.FULLY_AUTOMATED


def cell_dataset(times_by_planner, n=None, domain="d", level="strips"):
    """times_by_planner: {planner: [time or None per problem]}."""
    n = n or len(next(iter(times_by_planner.values())))
    manifest = simple_manifest(
        {name: [level] for name in times_by_planner}, [pset(domain, level, n)]
    )
    runs = []
    for name, times in times_by_planner.items():
        for i, t in enumerate(times, start=1):
            if t == "skip":
                continue
            runs.append(run(name, domain, level, f"p{i:02d}", t))
    return runs, manifest


class TestJudgeRanks:
    def test_times_to_ranks(self):
        runs, manifest = cell_dataset({"a": [5, 12, 9]})
        assert list(judge_ranks(runs, manifest, "a", "d", Level.STRIPS)) == [1, 3, 2]

    def test_unsolved_pushed_to_top(self):
        runs, manifest = cell_dataset({"a": [5, None, None]})
        assert list(judge_ranks(runs, manifest, "a", "d", Level.STRIPS)) == [1, 2.5, 2.5]

    def test_unattempted_same_as_unsolved(self):
        runs, manifest = cell_dataset({"a": [5, "skip", None]})
        assert list(judge_ranks(runs, manifest, "a", "d", Level.STRIPS)) == [1, 2.5, 2.5]

    def test_all_unsolved_total_tie(self):
        runs, manifest = cell_dataset({"a": [None, None, None]})
        assert list(judge_ranks(runs, manifest, "a", "d", Level.STRIPS)) == [2, 2, 2]

    def test_rank_sum_identity(self):
        runs, manifest = cell_dataset({"a": [7, 3, None, 3, 99]})
        ranks = judge_ranks(runs, manifest, "a", "d", Level.STRIPS)
        assert sum(ranks) == pytest.approx(5 * 6 / 2)

    def test_planner_not_in_level(self):
        runs, manifest = cell_dataset({"a": [5]})
        with pytest.raises(PlannerNotInLevel):
            judge_ranks(runs, manifest, "zz", "d", Level.STRIPS)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_are_the_one_planner_rankings(self, data):
        n = data.draw(st.integers(1, 8))
        cell = st.one_of(st.none(), st.just("skip"), st.integers(1, 5).map(lambda t: 10 * t))
        names = ["a", "b", "c", "d"][: data.draw(st.integers(1, 4))]
        runs, manifest = cell_dataset(
            {name: data.draw(st.lists(cell, min_size=n, max_size=n)) for name in names}
        )
        planners = data.draw(st.lists(st.sampled_from(names), max_size=5))
        rows = judge_rank_rows(runs, manifest, planners, "d", Level.STRIPS)
        assert rows.shape == (len(planners), n)
        assert [tuple(row) for row in rows.tolist()] == [
            judge_ranks(runs, manifest, planner, "d", Level.STRIPS) for planner in planners
        ]

    def test_rows_check_every_planner(self):
        runs, manifest = cell_dataset({"a": [5, 7]})
        with pytest.raises(PlannerNotInLevel, match="'zz'"):
            judge_rank_rows(runs, manifest, ["a", "zz"], "d", Level.STRIPS)


class TestAgreementTest:
    def test_identical_orderings_infinite_f(self):
        runs, manifest = cell_dataset({"a": [10, 20, 30], "b": [1, 2, 3]})
        r = agreement_test(runs, manifest, "d", Level.STRIPS)
        assert math.isinf(r.mrc.F)
        assert r.significant

    def test_opposite_orderings_zero_f(self):
        runs, manifest = cell_dataset({"a": [10, 20, 30], "b": [3, 2, 1]})
        r = agreement_test(runs, manifest, "d", Level.STRIPS)
        assert r.mrc.F == 0
        assert not r.significant

    def test_df_contract_22_problems_6_judges(self):
        rng = np.random.default_rng(2)
        times = {
            f"j{k}": [int(100 * i + rng.integers(0, 200)) for i in range(1, 23)]
            for k in range(6)
        }
        runs, manifest = cell_dataset(times, n=22)
        r = agreement_test(runs, manifest, "d", Level.STRIPS)
        assert r.mrc.df == (21, 110)
        assert r.k == 22
        assert len(r.judges) == 6

    def test_judge_below_half_attempts_excluded(self):
        runs, manifest = cell_dataset(
            {
                "a": [10, 20, 30, 40],
                "b": [12, 19, 31, 44],
                "c": [5, "skip", "skip", "skip"],
            }
        )
        r = agreement_test(runs, manifest, "d", Level.STRIPS)
        assert r.judges == ("a", "b")
        assert r.excluded_judges == ("c",)

    def test_too_few_judges(self):
        runs, manifest = cell_dataset({"a": [10, 20], "b": ["skip", "skip"]})
        with pytest.raises(TooFewJudges):
            agreement_test(runs, manifest, "d", Level.STRIPS)

    def test_one_problem_cell_is_refused_and_skipped(self, tmp_path):
        runs, manifest = cell_dataset({"a": [10], "b": [12]})
        with pytest.raises(TooFewProblems):
            agreement_test(runs, manifest, "d", Level.STRIPS)
        assert agreement_table(runs, manifest, AUTO) == []
        (tmp_path / "runs.csv").write_text(
            "planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length\n"
            "a,d,strips,p01,1,10,,,\nb,d,strips,p01,1,12,,,\n"
        )
        (tmp_path / "manifest.json").write_text(json.dumps({
            "planners": [{"name": name, "category": "fully-automated", "levels": ["strips"]}
                         for name in ("a", "b")],
            "problem_sets": [pset("d", "strips", 1)],
        }))
        args = ["--runs", str(tmp_path / "runs.csv"), "--manifest",
                str(tmp_path / "manifest.json"), "--out", str(tmp_path)]
        assert cli.main(["validate", *args]) == 0
        assert cli.main(["agreement", *args]) == 0

    def test_relabeling_problems_invariant(self):
        times = {"a": [10, 40, 20, 30], "b": [15, 35, 25, 28], "c": [40, 10, 35, 12]}
        runs, manifest = cell_dataset(times)
        base = agreement_test(runs, manifest, "d", Level.STRIPS)
        # consistently permute problem identities across all judges
        perm = {1: 3, 2: 1, 3: 4, 4: 2}
        permuted_runs = [
            run(r.planner, r.domain, r.level, f"p{perm[int(r.problem[1:])]:02d}", r.time_ms)
            for r in runs
        ]
        permuted = agreement_test(permuted_runs, manifest, "d", Level.STRIPS)
        assert permuted.mrc.F == pytest.approx(base.mrc.F)
        assert permuted.mrc.p == pytest.approx(base.mrc.p)

    def test_random_judge_does_not_increase_f_in_expectation(self):
        k = 8
        base_rows = [
            [1, 2, 3, 4, 5, 6, 7, 8],
            [2, 1, 3, 4, 5, 6, 8, 7],
            [1, 2, 4, 3, 5, 7, 6, 8],
        ]
        f_base = mrc_test(base_rows).F
        rng = np.random.default_rng(17)
        total = 0.0
        trials = 1000
        for _ in range(trials):
            extra = list(rng.permutation(k) + 1)
            total += mrc_test(base_rows + [extra]).F
        assert total / trials <= f_base


class TestAgreementTable:
    def test_grid_covers_populated_cells(self):
        manifest = simple_manifest(
            {"a": ["strips", "numeric"], "b": ["strips", "numeric"]},
            [
                pset("d1", "strips", 4),
                pset("d2", "strips", 4),
                pset("d1", "numeric", 4, prefix="n"),
            ],
        )
        runs = []
        for planner, offset in (("a", 0), ("b", 5)):
            for d, lv, prefix in (("d1", "strips", "p"), ("d2", "strips", "p"), ("d1", "numeric", "n")):
                for i in range(1, 5):
                    runs.append(run(planner, d, lv, f"{prefix}{i:02d}", 10 * i + offset + (i % 2)))
        results = agreement_table(runs, manifest, AUTO)
        cells = {(r.domain, r.level) for r in results}
        assert cells == {("d1", Level.STRIPS), ("d2", Level.STRIPS), ("d1", Level.NUMERIC)}

    def test_self_consistency_with_direct_calls(self):
        rng = np.random.default_rng(3)
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"], "c": ["strips"]},
            [pset("d1", "strips", 12), pset("d2", "strips", 12)],
        )
        runs = []
        for planner in ("a", "b", "c"):
            for d in ("d1", "d2"):
                perm = rng.permutation(12)
                for i in range(1, 13):
                    runs.append(run(planner, d, "strips", f"p{i:02d}", int(100 + perm[i - 1] * 7)))
        results = agreement_table(runs, manifest, AUTO)
        assert len(results) == 2
        for r in results:
            direct = agreement_test(runs, manifest, r.domain, r.level, r.size_class, AUTO)
            assert direct.mrc.F == pytest.approx(r.mrc.F)

    def test_empty_dataset_empty_grid(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 3)])
        assert agreement_table([], manifest, AUTO) == []

    def test_small_and_large_cells_reported_separately(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"]},
            [pset("d", "strips", 4), pset("d", "strips", 4, size="large", prefix="L")],
            category="hand-coded",
        )
        runs = []
        for planner, offset in (("a", 0), ("b", 3)):
            for prefix in ("p", "L"):
                for i in range(1, 5):
                    runs.append(run(planner, "d", "strips", f"{prefix}{i:02d}", 10 * i + offset))
        results = agreement_table(runs, manifest, Category.HAND_CODED)
        sizes = {r.size_class for r in results}
        assert sizes == {SizeClass.SMALL, SizeClass.LARGE}


@pytest.mark.parametrize(
    "k,n,df",
    [
        (22, 6, (21, 110)),
        (20, 6, (19, 100)),
        (22, 3, (21, 44)),
        (16, 4, (15, 48)),
        (6, 2, (5, 6)),
        (21, 4, (20, 63)),
    ],
)
def test_published_df_shapes(k, n, df):
    # degrees of freedom follow (k-1, k(n-1)) for k problems and n judges
    rng = np.random.default_rng(k * 100 + n)
    matrix = [list(rng.permutation(k) + 1) for _ in range(n)]
    assert mrc_test(matrix).df == df
