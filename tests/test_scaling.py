import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pset, run, simple_manifest
from planstats.dataio import Category, Level, RunTable, SizeClass
from planstats.distributions import two_sided_p_from_z
from planstats.hardness import (
    DEFAULT_CUTOFF_MS,
    Classification,
    HardnessVerdict,
    clamped_times,
    level_specific,
)
from planstats.pairwise import NoProblems
from planstats.scaling import (
    DEFAULT_ALPHA,
    MIN_AGREED_DOMAINS,
    EmptyDomainList,
    IncomparableReason,
    ScalingResult,
    Verdict,
    agreed_difficulty,
    difficulty_ranking,
    eligible_domains,
    scaling_comparison,
    scaling_comparisons,
)
from planstats.stattests import SpearmanResult
from test_ranking import reference_ranks
from test_run_grid import reference_judge_ranks

AUTO = Category.FULLY_AUTOMATED
STRIPS = Level.STRIPS


def verdict(planner, domain, classification):
    return HardnessVerdict(
        planner=planner,
        domain=domain,
        level=STRIPS,
        size_class=SizeClass.SMALL,
        pool_kind=level_specific(STRIPS),
        area_ms=0.0,
        n_problems=20,
        percentile=0.5,
        classification=classification,
    )


EASY = Classification.EASY
HARD = Classification.HARD
NEITHER = Classification.NEITHER


class TestEligibleDomains:
    def test_full_agreement(self):
        a = {"d1": verdict("a", "d1", EASY), "d2": verdict("a", "d2", HARD)}
        b = {"d1": verdict("b", "d1", EASY), "d2": verdict("b", "d2", HARD)}
        assert eligible_domains(a, b) == ["d1", "d2"]

    def test_disagreement(self):
        a = {"d1": verdict("a", "d1", EASY)}
        b = {"d1": verdict("b", "d1", HARD)}
        assert eligible_domains(a, b) == []

    def test_partial(self):
        a = {"d1": verdict("a", "d1", NEITHER), "d2": verdict("a", "d2", EASY)}
        b = {"d1": verdict("b", "d1", NEITHER), "d2": verdict("b", "d2", NEITHER)}
        assert eligible_domains(a, b) == ["d1"]

    def test_symmetric(self):
        a = {"d1": verdict("a", "d1", EASY), "d2": verdict("a", "d2", NEITHER)}
        b = {"d1": verdict("b", "d1", EASY), "d3": verdict("b", "d3", HARD)}
        assert eligible_domains(a, b) == eligible_domains(b, a)


def two_domain_dataset(time_a, time_b, n=20):
    manifest = simple_manifest(
        {"a": ["strips"], "b": ["strips"], "c": ["strips"]},
        [pset("d1", "strips", n), pset("d2", "strips", n)],
    )
    runs = []
    for d in ("d1", "d2"):
        for i in range(1, n + 1):
            runs.append(run("a", d, "strips", f"p{i:02d}", time_a(i)))
            runs.append(run("b", d, "strips", f"p{i:02d}", time_b(i)))
            runs.append(run("c", d, "strips", f"p{i:02d}", 50 * i))
    return runs, manifest


def neither_verdicts(planners, domains=("d1", "d2")):
    return {p: {d: verdict(p, d, NEITHER) for d in domains} for p in planners}


class TestDifficultyRanking:
    def test_unanimous_two_problems(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"]}, [pset("d1", "strips", 2)]
        )
        runs = [
            run("a", "d1", "strips", "p01", 10),
            run("a", "d1", "strips", "p02", 99),
            run("b", "d1", "strips", "p01", 5),
            run("b", "d1", "strips", "p02", 77),
        ]
        ranks = difficulty_ranking(runs, manifest, STRIPS, ["d1"], AUTO)
        assert list(ranks) == [1.0, 2.0]

    def test_total_tie(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d1", "strips", 3)])
        runs = []
        for planner in ("a", "b"):
            for i in range(1, 4):
                runs.append(run(planner, "d1", "strips", f"p{i:02d}", 42))
        ranks = difficulty_ranking(runs, manifest, STRIPS, ["d1"], AUTO)
        assert list(ranks) == [2.0, 2.0, 2.0]

    def test_matches_bruteforce_mean_rank(self):
        runs, manifest = two_domain_dataset(lambda i: 100 + 7 * i, lambda i: 30 * ((i * 3) % 21 + 1), n=7)
        domains = ["d1", "d2"]
        got = difficulty_ranking(runs, manifest, STRIPS, domains, AUTO)
        # independent recomputation from scratch
        index = {(r.planner, r.domain, r.problem): r.time_ms for r in runs}
        scores = []
        for d in domains:
            per_judge = []
            for planner in ("a", "b", "c"):
                times = [index[(planner, d, f"p{i:02d}")] for i in range(1, 8)]
                per_judge.append(reference_ranks([float(t) for t in times]))
            for pos in range(7):
                scores.append(sum(j[pos] for j in per_judge) / 3)
        assert list(got) == reference_ranks(scores)

    def test_empty_domains(self):
        runs, manifest = two_domain_dataset(lambda i: i, lambda i: i, n=3)
        with pytest.raises(EmptyDomainList):
            difficulty_ranking(runs, manifest, STRIPS, [], AUTO)


class TestScalingComparison:
    def test_no_shared_track(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["numeric"]},
            [pset("d1", "strips", 3), pset("d1", "numeric", 3, prefix="n")],
        )
        difficulty = agreed_difficulty([], manifest, STRIPS, AUTO)
        r = scaling_comparison([], manifest, "a", "b", STRIPS, {}, difficulty)
        assert r.verdict is Verdict.INCOMPARABLE
        assert r.reason is IncomparableReason.NO_SHARED_TRACK

    def test_gate_requires_two_agreed_domains(self):
        runs, manifest = two_domain_dataset(lambda i: 100, lambda i: 100 * i)
        verdicts = neither_verdicts(["a", "b"], domains=("d1",))
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        r = scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty)
        assert r.verdict is Verdict.INCOMPARABLE
        assert r.reason is IncomparableReason.INSUFFICIENT_AGREEMENT
        assert r.spearman is None

    def test_constant_vs_degrading(self):
        runs, manifest = two_domain_dataset(lambda i: 1000, lambda i: 100 * i)
        verdicts = neither_verdicts(["a", "b"])
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        r = scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty)
        assert r.n == 40
        assert r.verdict is Verdict.A_SCALES_BETTER
        assert r.spearman.z > 0  # differences a-b shrink as problems harden

    def test_antisymmetry(self):
        # unequal set sizes and offset times keep both the difficulty
        # scores and the differences tie-free, where the negated-z
        # identity is exact
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"]},
            [pset("d1", "strips", 20), pset("d2", "strips", 15)],
        )
        runs = []
        for d, n, offset in (("d1", 20, 0), ("d2", 15, 37)):
            for i in range(1, n + 1):
                runs.append(run("a", d, "strips", f"p{i:02d}", 1000))
                runs.append(run("b", d, "strips", f"p{i:02d}", 100 * i + offset))
        verdicts = neither_verdicts(["a", "b"])
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        ab = scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty)
        ba = scaling_comparison(runs, manifest, "b", "a", STRIPS, verdicts, difficulty)
        assert ba.spearman.z == pytest.approx(-ab.spearman.z)
        assert ab.verdict is Verdict.A_SCALES_BETTER
        assert ba.verdict is Verdict.B_SCALES_BETTER

    def test_identical_planners_no_difference(self):
        runs, manifest = two_domain_dataset(lambda i: 10 * i, lambda i: 10 * i)
        verdicts = neither_verdicts(["a", "b"])
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        r = scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty)
        assert r.verdict is Verdict.NO_DIFFERENCE

    def test_unsolved_pays_cutoff(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"]},
            [pset("d1", "strips", 12), pset("d2", "strips", 12)],
        )
        runs = []
        for d in ("d1", "d2"):
            for i in range(1, 13):
                runs.append(run("a", d, "strips", f"p{i:02d}", 10 * i))
                # b fails the hard half entirely
                t_b = 20 * i if i <= 6 else None
                runs.append(run("b", d, "strips", f"p{i:02d}", t_b))
        verdicts = neither_verdicts(["a", "b"])
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        r = scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty,
                               cutoff_ms=1_000_000)
        assert r.verdict is Verdict.A_SCALES_BETTER

    def test_rank_agreement_precheck(self):
        # b's own difficulty ordering is the reverse of a's: no agreement
        runs, manifest = two_domain_dataset(lambda i: 10 * i, lambda i: 10 * (21 - i))
        verdicts = neither_verdicts(["a", "b"])
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        ungated = scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty)
        assert ungated.verdict is not Verdict.INCOMPARABLE


class TestMissingProblemSet:
    """An eligible domain without a set at the level and size class is
    named, not a bare KeyError."""

    def dataset(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"]},
            [
                pset("depots", "strips", 3),
                pset("transport", "strips", 3, size="large"),
                pset("rovers", "strips", 3),
                pset("rovers", "strips", 4, size="large", prefix="q"),
            ],
        )
        runs = [
            run(planner, ps.domain, "strips", problem, 10 * i)
            for planner in ("a", "b")
            for ps in manifest.problem_sets
            for i, problem in enumerate(ps.problems, start=1)
        ]
        return runs, manifest

    def test_domain_without_a_set(self):
        runs, manifest = self.dataset()
        # verdicts of the large sets, difficulty of the small ones
        verdicts = neither_verdicts(["a", "b"], domains=("transport", "rovers"))
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        with pytest.raises(NoProblems, match="small problem set for transport/strips"):
            scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty)

    def test_difficulty_of_another_size_class(self):
        runs, manifest = self.dataset()
        verdicts = neither_verdicts(["a", "b"], domains=("transport", "rovers"))
        difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
        with pytest.raises(NoProblems, match="large problem set of rovers/strips"):
            scaling_comparison(runs, manifest, "a", "b", STRIPS, verdicts, difficulty,
                               size_class=SizeClass.LARGE)


def reference_spearman(x_ranks, y_ranks):
    """The Spearman test of two rank lists, summed left to right."""
    n = len(x_ranks)
    big_r = sum((x - y) ** 2 for x, y in zip(x_ranks, y_ranks))
    if n == 1 or len(set(x_ranks)) == 1 or len(set(y_ranks)) == 1:
        z = 0.0
    else:
        z = (6.0 * big_r - n * (n**2 - 1)) / (n * (n + 1) * math.sqrt(n - 1))
    return SpearmanResult(n=n, R=big_r, z=z, p_two_sided=two_sided_p_from_z(z))


def reference_scaling_comparison(
    runs, manifest, a, b, level, hardness, difficulty,
    size_class=SizeClass.SMALL, cutoff_ms=DEFAULT_CUTOFF_MS, alpha=DEFAULT_ALPHA,
):
    """One pair's scaling verdict computed alone: the problems of the
    eligible domains pooled in domain order, each set in manifest problem
    order, ranked by the scalar rank and Spearman references."""

    def result(domains, reason, n=0, spearman=None, verdict=Verdict.INCOMPARABLE):
        return ScalingResult(a, b, level, tuple(domains), n, spearman, verdict, reason)

    entry_a = manifest.planner(a)
    entry_b = manifest.planner(b)
    if (
        entry_a is None
        or entry_b is None
        or level not in entry_a.levels_entered
        or level not in entry_b.levels_entered
    ):
        return result((), IncomparableReason.NO_SHARED_TRACK)
    domains = eligible_domains(hardness.get(a, {}), hardness.get(b, {}))
    if len(domains) < MIN_AGREED_DOMAINS:
        return result(domains, IncomparableReason.INSUFFICIENT_AGREEMENT)
    grid = RunTable.of(runs).grid(manifest, level, size_class)
    times = clamped_times(grid.values["time_ms"][[grid.rows[a], grid.rows[b]]], cutoff_ms)
    per_problem = (times[0] - times[1]).tolist()
    pooled_difficulty = [score for domain in domains for score in difficulty[domain]]
    differences = [d for domain in domains for d in per_problem[grid.spans[domain]]]
    spearman = reference_spearman(reference_ranks(pooled_difficulty), reference_ranks(differences))
    if spearman.p_two_sided <= alpha and spearman.z != 0.0:
        verdict = Verdict.B_SCALES_BETTER if spearman.z < 0 else Verdict.A_SCALES_BETTER
    else:
        verdict = Verdict.NO_DIFFERENCE
    return result(domains, None, len(differences), spearman, verdict)


@st.composite
def scaling_levels(draw):
    """A strips level with 2-6 planners, a planner outside it, 2-4 domains
    of 2-12 problems, tied, unsolved, unattempted and constant times, and
    random verdict maps."""
    names = ["p1", "p2", "p3", "p4", "p5", "p6"][: draw(st.integers(2, 6))]
    domains = ["d1", "d2", "d3", "d4"][: draw(st.integers(2, 4))]
    sizes = {d: draw(st.one_of(st.integers(2, 4), st.integers(2, 12))) for d in domains}
    manifest = simple_manifest(
        {**{name: ["strips"] for name in names}, "outsider": ["numeric"]},
        [pset(d, "strips", sizes[d]) for d in domains] + [pset("d1", "numeric", 2, prefix="n")],
    )
    constant = draw(st.sampled_from([None, *names]))
    runs = []
    for name in names:
        for d in domains:
            for i in range(1, sizes[d] + 1):
                state = draw(st.integers(0, 4))
                if state == 0:
                    continue
                time_ms = None if state == 1 else 10 * draw(st.integers(1, 6))
                if name == constant:
                    time_ms = 30
                runs.append(run(name, d, "strips", f"p{i:02d}", time_ms))
    # mostly one verdict a domain, so that most pairs are tested
    classes = st.sampled_from([EASY, HARD, NEITHER])
    shared = {d: draw(classes) for d in domains}
    verdicts = {
        name: {
            d: verdict(name, d, shared[d] if draw(st.integers(0, 5)) else draw(classes))
            for d in domains
            if draw(st.integers(0, 7))
        }
        for name in names
        if draw(st.integers(0, 7))
    }
    candidates = [(a, b) for a in names + ["outsider"] for b in names if a != b]
    pairs = draw(st.lists(st.sampled_from(candidates + [(names[0], names[0])]),
                          min_size=1, max_size=8))
    cutoff_ms = draw(st.sampled_from([45, DEFAULT_CUTOFF_MS]))
    return runs, manifest, verdicts, pairs, cutoff_ms


@settings(max_examples=150, deadline=None)
@given(scaling_levels(), st.sampled_from([DEFAULT_ALPHA, 0.5]))
def test_scaling_comparisons_match_per_pair_reference(level_case, alpha):
    runs, manifest, verdicts, pairs, cutoff_ms = level_case
    difficulty = agreed_difficulty(runs, manifest, STRIPS, AUTO)
    judges = [p.name for p in manifest.planners_in(AUTO, STRIPS)]
    for ps in manifest.sets_at(level=STRIPS, size_class=SizeClass.SMALL):
        per_judge = [reference_judge_ranks(runs, manifest, j, ps.domain, STRIPS, SizeClass.SMALL)
                     for j in judges]
        assert difficulty[ps.domain] == [sum(r) / len(judges) for r in zip(*per_judge)]

    got = scaling_comparisons(
        runs, manifest, pairs, STRIPS, verdicts, difficulty, cutoff_ms=cutoff_ms, alpha=alpha)
    expected = [
        reference_scaling_comparison(runs, manifest, a, b, STRIPS, verdicts, difficulty,
                                     cutoff_ms=cutoff_ms, alpha=alpha)
        for a, b in pairs
    ]
    assert [repr(r) for r in got] == [repr(r) for r in expected]
