import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pset, run, simple_manifest
from planstats.dataio import Level, Manifest, QualityDirection, SizeClass, parse_manifest
from planstats.distributions import DomainError, two_sided_p_from_z
from planstats.pairwise import (
    ALPHA_LADDER,
    MIN_REPORTABLE_PAIRS,
    ComparisonResult,
    Measure,
    NoProblems,
    PairingMode,
    PlannerNotInLevel,
    build_pairs,
    compare,
    compare_pairs,
    magnitude,
    transitive_alpha,
)
from planstats.ranking import WORST
from planstats.stattests import (
    Favored,
    ProportionResult,
    TooFewPairs,
    WilcoxonResult,
    proportion_test,
)
from test_ranking import reference_ranks

STRIPS = Level.STRIPS
NUMERIC = Level.NUMERIC
ALO = PairingMode.AT_LEAST_ONE
DH = PairingMode.DOUBLE_HITS


def pair_difference(va, vb):
    """The signed difference of one pair, value_b - value_a, case by case
    so that WORST values never meet in arithmetic: the reference for the
    case rule :func:`compare_pairs` applies to a whole matrix."""
    worst_a = va == WORST
    worst_b = vb == WORST
    if worst_a and worst_b:
        return 0.0
    if worst_b:
        return math.inf
    if worst_a:
        return -math.inf
    return vb - va


class TestBuildPairs:
    def _manifest(self):
        return simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 2)])

    def _runs(self):
        return [
            run("a", "d", "strips", "p01", 10),
            run("a", "d", "strips", "p02", 20),
            run("b", "d", "strips", "p02", 15),
        ]

    def test_at_least_one(self):
        pairs = build_pairs(self._runs(), self._manifest(), "a", "b", STRIPS, Measure.SPEED, ALO)
        assert pairs == [(10.0, WORST), (20.0, 15.0)]

    def test_double_hits(self):
        pairs = build_pairs(self._runs(), self._manifest(), "a", "b", STRIPS, Measure.SPEED, DH)
        assert pairs == [(20.0, 15.0)]

    def test_maximize_values_as_recorded(self):
        manifest = simple_manifest(
            {"a": ["hardnumeric"], "b": ["hardnumeric"]},
            [pset("d", "hardnumeric", 2, direction="maximize")],
        )
        runs = [
            run("a", "d", "hardnumeric", "p01", 10, metric=52.0),
            run("b", "d", "hardnumeric", "p01", 12, metric=73.0),
        ]
        pairs = build_pairs(
            runs, manifest, "a", "b", Level.HARD_NUMERIC, Measure.QUALITY_METRIC, ALO
        )
        assert pairs == [(52.0, 73.0)]
        # 73 wins: compare orients the difference, so it favors the second planner
        result = compare(runs, manifest, "a", "b", Level.HARD_NUMERIC, Measure.QUALITY_METRIC, ALO)
        assert result.favored_planner == "b"

    def test_metricless_solved_run_is_worst(self):
        runs = [
            run("a", "d", "strips", "p01", 10, seq=4),
            run("b", "d", "strips", "p01", 12),
        ]
        pairs = build_pairs(
            runs, self._manifest(), "a", "b", STRIPS, Measure.QUALITY_SEQ, ALO
        )
        assert pairs == [(4.0, WORST)]

    def test_planner_not_in_level(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["numeric"]},
            [pset("d", "strips", 2), pset("d", "numeric", 2, prefix="n")],
        )
        with pytest.raises(PlannerNotInLevel):
            build_pairs([], manifest, "a", "b", STRIPS, Measure.SPEED, ALO)

    def test_no_problems(self):
        manifest = simple_manifest({"a": ["strips", "numeric"], "b": ["strips", "numeric"]},
                                   [pset("d", "strips", 2)])
        with pytest.raises(NoProblems):
            build_pairs([], manifest, "a", "b", NUMERIC, Measure.SPEED, ALO)


class TestPairDifference:
    def test_cases(self):
        assert pair_difference(10.0, 15.0) == 5.0
        assert pair_difference(10.0, WORST) == math.inf
        assert pair_difference(WORST, 15.0) == -math.inf
        assert pair_difference(WORST, WORST) == 0.0


class TestCompare:
    def test_identical_planners_tie(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 20)])
        runs = []
        for i in range(1, 21):
            runs.append(run("a", "d", "strips", f"p{i:02d}", 100 + i))
            runs.append(run("b", "d", "strips", f"p{i:02d}", 100 + i))
        r = compare(runs, manifest, "a", "b", STRIPS, Measure.SPEED, ALO)
        assert r.wilcoxon.favored is Favored.NONE
        assert r.wilcoxon.p_two_sided == 1.0
        assert r.proportion.n == 0

    def test_small_sample_flagged(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 5)])
        runs = []
        for i in range(1, 6):
            runs.append(run("a", "d", "strips", f"p{i:02d}", 10))
            runs.append(run("b", "d", "strips", f"p{i:02d}", 20 + i))
        r = compare(runs, manifest, "a", "b", STRIPS, Measure.SPEED, ALO)
        assert r.too_small
        assert r.significant_at is None

    def test_seven_small_wins_never_beat_three_big_losses(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 10)])
        for loss_scale in (1, 1000, 10**7):
            runs = []
            for i in range(1, 8):  # a wins by i ms
                runs.append(run("a", "d", "strips", f"p{i:02d}", 100))
                runs.append(run("b", "d", "strips", f"p{i:02d}", 100 + i))
            for i in range(8, 11):  # b wins big
                runs.append(run("a", "d", "strips", f"p{i:02d}", 100 + i * loss_scale))
                runs.append(run("b", "d", "strips", f"p{i:02d}", 100))
            r = compare(runs, manifest, "a", "b", STRIPS, Measure.SPEED, ALO)
            assert r.wilcoxon.rank_sum_pos == 28
            assert r.wilcoxon.rank_sum_neg == 27
            assert r.wilcoxon.p_two_sided > 0.05

    def test_symmetry(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 20)])
        runs = []
        for i in range(1, 21):
            runs.append(run("a", "d", "strips", f"p{i:02d}", 50 + 3 * i))
            if i % 4:
                runs.append(run("b", "d", "strips", f"p{i:02d}", 40 + 5 * i))
        ab = compare(runs, manifest, "a", "b", STRIPS, Measure.SPEED, ALO)
        ba = compare(runs, manifest, "b", "a", STRIPS, Measure.SPEED, ALO)
        assert ab.wilcoxon.z == pytest.approx(ba.wilcoxon.z)
        assert ab.wilcoxon.p_two_sided == pytest.approx(ba.wilcoxon.p_two_sided)
        assert ab.favored_planner == ba.favored_planner
        assert ab.proportion.z == pytest.approx(-ba.proportion.z)

    def test_direction_invariance_under_scaling(self):
        base_p = None
        for scale in (1.0, 7.5, 1000.0):
            manifest = simple_manifest(
                {"a": ["numeric"], "b": ["numeric"]},
                [pset("d", "numeric", 12, direction="maximize")],
            )
            runs = []
            for i in range(1, 13):
                runs.append(run("a", "d", "numeric", f"p{i:02d}", 10, metric=(50.0 + i) * scale))
                runs.append(run("b", "d", "numeric", f"p{i:02d}", 10, metric=(40.0 + i) * scale))
            r = compare(runs, manifest, "a", "b", NUMERIC, Measure.QUALITY_METRIC, ALO)
            assert r.favored_planner == "a"
            if base_p is None:
                base_p = r.wilcoxon.p_two_sided
            else:
                assert r.wilcoxon.p_two_sided == pytest.approx(base_p)


@st.composite
def random_datasets(draw):
    n = draw(st.integers(1, 15))
    manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", n)])
    runs = []
    for planner in ("a", "b"):
        for i in range(1, n + 1):
            state = draw(st.integers(0, 3))
            if state == 0:
                continue  # did not attempt
            if state == 1:
                runs.append(run(planner, "d", "strips", f"p{i:02d}"))
            else:
                runs.append(run(planner, "d", "strips", f"p{i:02d}", draw(st.integers(0, 1000))))
    return manifest, runs


@settings(max_examples=50)
@given(random_datasets())
def test_mode_monotonicity(dataset):
    manifest, runs = dataset
    alo = compare(runs, manifest, "a", "b", STRIPS, Measure.SPEED, ALO)
    dh = compare(runs, manifest, "a", "b", STRIPS, Measure.SPEED, DH)
    assert dh.n <= alo.n


@settings(max_examples=25)
@given(random_datasets())
def test_self_comparison_never_significant(dataset):
    manifest, runs = dataset
    r = compare(runs, manifest, "a", "a", STRIPS, Measure.SPEED, ALO)
    assert r.wilcoxon.p_two_sided > 0.5
    assert r.favored_planner is None


def _reference_wilcoxon(differences):
    """The matched-pairs rank-sum test one pair at a time, by the reference ranks."""
    nonzero = [d for d in differences if d != 0.0]
    m = len(nonzero)
    if m == 0:
        return WilcoxonResult(len(differences), 0, 0.0, 0.0, 0.0, 0.0, 1.0, Favored.NONE)
    ranks = reference_ranks([abs(d) for d in nonzero])
    w_pos = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_neg = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    t_stat = min(w_pos, w_neg)
    z = (m * (m + 1) / 4.0 - t_stat) / math.sqrt(m * (m + 1) * (2 * m + 1) / 24.0)
    if w_pos > w_neg:
        favored = Favored.FIRST
    elif w_neg > w_pos:
        favored = Favored.SECOND
    else:
        favored = Favored.NONE
    return WilcoxonResult(
        len(differences), m, w_pos, w_neg, t_stat, z, two_sided_p_from_z(z), favored
    )


def _reference_compare(runs, manifest, a, b, level, measure, mode):
    """One pair's consistency tests composed per pair: build_pairs over
    each set, its values negated where the set maximizes the metric so
    that lower is better, then pair_difference, the rank-sum test and the
    proportion test."""
    diffs = []
    for ps in manifest.sets_at(level=level, size_class=SizeClass.SMALL):
        one_set = Manifest(manifest.planners, (ps,))
        sign = -1.0 if (measure is Measure.QUALITY_METRIC
                        and ps.quality_direction is QualityDirection.MAXIMIZE) else 1.0
        for va, vb in build_pairs(runs, one_set, a, b, level, measure, mode):
            diffs.append(pair_difference(*(v if v == WORST else sign * v for v in (va, vb))))
    wins_a = sum(1 for d in diffs if d > 0)
    wins_b = sum(1 for d in diffs if d < 0)
    if wins_a + wins_b == 0:
        proportion = ProportionResult(wins=0, n=0, z=0.0, p_two_sided=1.0)
    else:
        proportion = proportion_test(wins_a, wins_a + wins_b)
    wilcoxon = _reference_wilcoxon(diffs)
    too_small = len(diffs) < MIN_REPORTABLE_PAIRS
    significant_at = None
    if not too_small:
        significant_at = next((x for x in ALPHA_LADDER if wilcoxon.p_two_sided <= x), None)
    return ComparisonResult(
        a, b, level, measure, mode, SizeClass.SMALL, len(diffs), wilcoxon, proportion,
        significant_at, too_small,
    )


def _reprs(value):
    """A result's fields, nested ones too, with every number as the repr of
    its float: -0.0 and 0.0 differ, as they do in the written tables."""
    if dataclasses.is_dataclass(value):
        return tuple(_reprs(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(float(value))
    return value


@st.composite
def random_cells(draw):
    """A numeric-level cell of fully-automated and hand-coded planners over
    minimize and maximize sets, with ties, unsolved and unattempted
    problems and solved runs without a metric; and pairs drawn from it in
    either name order."""
    names = ["a", "b", "c", "h1", "h2"][: draw(st.integers(2, 5))]
    planners = [
        {"name": name, "category": "hand-coded" if name.startswith("h") else
         "fully-automated", "levels": ["numeric"]}
        for name in names
    ]
    sets = [
        pset(domain, "numeric", draw(st.integers(1, 8)),
             direction=draw(st.sampled_from(["minimize", "maximize"])))
        for domain in ("d1", "d2")[: draw(st.integers(1, 2))]
    ]
    runs = []
    for name in names:
        for ps in sets:
            for problem in ps["problems"]:
                state = draw(st.integers(0, 3))
                if state == 0:
                    continue  # did not attempt
                if state == 1:
                    runs.append(run(name, ps["domain"], "numeric", problem))
                else:
                    metric = None if state == 2 else float(draw(st.integers(1, 4)))
                    runs.append(run(name, ps["domain"], "numeric", problem,
                                    draw(st.integers(1, 4)), metric=metric))
    manifest = parse_manifest({"planners": planners, "problem_sets": sets})
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          min_size=1, max_size=6))
    measure = draw(st.sampled_from([Measure.SPEED, Measure.QUALITY_METRIC]))
    return manifest, runs, pairs, measure


@settings(max_examples=150)
@given(random_cells())
def test_compare_pairs_matches_per_pair_composition(cell):
    manifest, runs, pairs, measure = cell
    by_mode = compare_pairs(runs, manifest, pairs, NUMERIC, measure)
    for mode, results in zip(PairingMode, by_mode, strict=True):
        expected = [
            _reference_compare(runs, manifest, a, b, NUMERIC, measure, mode) for a, b in pairs
        ]
        assert [_reprs(r) for r in results] == [_reprs(r) for r in expected]


class TestComparePairsErrors:
    def test_planner_not_in_level(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"], "c": ["numeric"]},
            [pset("d", "strips", 2), pset("d", "numeric", 2, prefix="n")],
        )
        with pytest.raises(PlannerNotInLevel, match="'c'"):
            compare_pairs([], manifest, [("a", "b"), ("b", "c")], STRIPS, Measure.SPEED)

    def test_no_problems(self):
        manifest = simple_manifest({"a": ["strips", "numeric"], "b": ["strips", "numeric"]},
                                   [pset("d", "strips", 2)])
        with pytest.raises(NoProblems):
            compare_pairs([], manifest, [("a", "b")], NUMERIC, Measure.SPEED)


class TestMagnitude:
    def test_worked_three_pair_example(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 3)])
        runs = []
        for i, (x, y) in enumerate([(1, 3), (2, 6), (1, 2)], start=1):
            runs.append(run("a", "d", "strips", f"p{i:02d}", x))
            runs.append(run("b", "d", "strips", f"p{i:02d}", y))
        m = magnitude(runs, manifest, "a", "b", STRIPS, Measure.SPEED)
        assert m.n == 3
        assert m.t_result.t == pytest.approx(-8.0, abs=1e-9)
        assert m.t_result.df == 2

    def test_identical_performances(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 4)])
        runs = []
        for i in range(1, 5):
            runs.append(run("a", "d", "strips", f"p{i:02d}", 7 * i))
            runs.append(run("b", "d", "strips", f"p{i:02d}", 7 * i))
        m = magnitude(runs, manifest, "a", "b", STRIPS, Measure.SPEED)
        assert m.t_result.t == 0.0
        assert m.t_result.mean_first_norm == pytest.approx(1.0)

    def test_worst_never_appears(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 6)])
        runs = [run("a", "d", "strips", f"p{i:02d}", 10 + i) for i in range(1, 7)]
        runs += [run("b", "d", "strips", f"p{i:02d}", 20 + i) for i in range(1, 4)]
        m = magnitude(runs, manifest, "a", "b", STRIPS, Measure.SPEED)
        assert m.n == 3  # double hits only

    def test_too_few_pairs(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 3)])
        runs = [run("a", "d", "strips", "p01", 5), run("b", "d", "strips", "p01", 6)]
        with pytest.raises(TooFewPairs):
            magnitude(runs, manifest, "a", "b", STRIPS, Measure.SPEED)


class TestTransitiveAlpha:
    def test_fifteen_comparisons(self):
        assert transitive_alpha(0.95, 15) == pytest.approx(0.003414, abs=1e-6)

    def test_single_comparison(self):
        assert transitive_alpha(0.95, 1) == pytest.approx(0.05)

    def test_ten_at_99(self):
        assert transitive_alpha(0.99, 10) == pytest.approx(0.001005, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            transitive_alpha(1.0, 5)
        with pytest.raises(DomainError):
            transitive_alpha(0.0, 5)
        with pytest.raises(DomainError):
            transitive_alpha(0.95, 0)
