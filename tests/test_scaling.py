import pytest

from conftest import pset, run, simple_manifest
from planstats.dataio import Category, Level, SizeClass
from planstats.hardness import Classification, HardnessVerdict, level_specific
from planstats.scaling import (
    EmptyDomainList,
    IncomparableReason,
    Verdict,
    agreed_difficulty,
    difficulty_ranking,
    eligible_domains,
    pooled_problems,
    scaling_comparison,
)
from test_ranking import reference_ranks

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

    def test_pooled_problem_order(self):
        runs, manifest = two_domain_dataset(lambda i: i, lambda i: i, n=2)
        pooled = pooled_problems(manifest, STRIPS, ["d2", "d1"])
        assert pooled == [("d2", "p01"), ("d2", "p02"), ("d1", "p01"), ("d1", "p02")]
