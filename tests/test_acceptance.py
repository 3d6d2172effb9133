"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import pset, run, simple_manifest
from planstats.dataio import Category, Level, SizeClass
from planstats.distributions import f_cdf, std_normal_cdf, student_t_cdf
from planstats.hardness import (
    Classification,
    DifficultyArea,
    bootstrap_distribution,
    classify,
    level_specific,
)
from planstats.ordering import EdgeKind, build_order
from planstats.pairwise import Measure, PairingMode, compare
from planstats.ranking import rank_ascending
from planstats.scaling import (
    IncomparableReason,
    Verdict,
    agreed_difficulty,
    scaling_comparison,
)
from planstats.report import scaling_symbol
from planstats.stattests import (
    mrc_test,
    paired_t_normalized,
    spearman_test,
    wilcoxon_exact_p,
    wilcoxon_matched_pairs,
)
from test_scaling import neither_verdicts, verdict

REPO = Path(__file__).resolve().parent.parent
AUTO = Category.FULLY_AUTOMATED
ALO = PairingMode.AT_LEAST_ONE
DH = PairingMode.DOUBLE_HITS


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


@criterion("wilcoxon-worked-example")
def test_wilcoxon_worked_example():
    # 10 problems: the 7 smallest differences favor the first planner
    r = wilcoxon_matched_pairs([1, 2, 3, 4, 5, 6, 7, -800, -900, -1000])
    assert r.rank_sum_pos == 28
    assert r.rank_sum_neg == 27
    assert r.T == 27
    for alpha in (0.05, 0.01, 0.001):
        assert r.p_two_sided > alpha


@criterion("wilcoxon-calibration")
def test_wilcoxon_calibration():
    rng = np.random.default_rng(1234)
    for trial in range(200):
        m = int(rng.integers(10, 21))
        shift = rng.uniform(-1.0, 1.0)
        diffs = rng.normal(loc=shift, scale=1.0, size=m)
        diffs = [d for d in diffs if d != 0.0]
        normal_p = wilcoxon_matched_pairs(diffs).p_two_sided
        exact_p = wilcoxon_exact_p(diffs)
        assert abs(normal_p - exact_p) <= 0.02, (trial, m)


@criterion("distribution-accuracy")
def test_distribution_accuracy():
    for z, expected in oracles.NORMAL_CDF:
        assert abs(std_normal_cdf(z) - expected) <= 1e-9
    for t, df, expected in oracles.T_CDF:
        assert abs(student_t_cdf(t, df) - expected) <= 1e-9
    for x, d1, d2, expected in oracles.F_CDF:
        assert abs(f_cdf(x, d1, d2) - expected) <= 1e-9
    assert f_cdf(5.3, 21, 110) > 0.95


@criterion("paired-t-worked-example")
def test_paired_t_worked_example():
    r = paired_t_normalized([(1, 3), (2, 6), (1, 2)])
    assert r.t == pytest.approx(-8.0, abs=1e-9)
    assert r.df == 2
    rng = np.random.default_rng(99)
    firsts = np.exp(rng.uniform(-6, 12, size=10_000))
    seconds = np.exp(rng.uniform(-6, 12, size=10_000))
    for a, b in zip(firsts, seconds):
        mean = (a + b) / 2
        assert abs(a / mean + b / mean - 2.0) <= 1e-12


@criterion("spearman-identities")
def test_spearman_identities():
    for n in range(10, 101):
        ident = rank_ascending([float(i) for i in range(n)])
        rev = rank_ascending([float(-i) for i in range(n)])
        same = spearman_test(ident, ident)
        opposite = spearman_test(ident, rev)
        assert same.z == pytest.approx(-math.sqrt(n - 1), rel=1e-12)
        assert opposite.z == pytest.approx(math.sqrt(n - 1), rel=1e-12)
        assert opposite.z == pytest.approx(-same.z, rel=1e-12)


@criterion("mrc-maximality-and-worked-example")
def test_mrc_maximality():
    for k in range(2, 6):
        identity = list(range(1, k + 1))
        for perm in itertools.permutations(identity):
            f = mrc_test([identity, list(perm)]).F
            if list(perm) == identity:
                assert math.isinf(f)
            else:
                assert math.isfinite(f)
    worked = mrc_test([[1, 2, 3], [2, 1, 3]])
    assert worked.F == pytest.approx(4.5)
    assert worked.df == (2, 3)


@criterion("mrc-df-contract")
def test_mrc_df_contract():
    rng = np.random.default_rng(6)
    matrix = [list(rng.permutation(22) + 1) for _ in range(6)]
    assert mrc_test(matrix).df == (21, 110)


@criterion("hardness-calibration")
def test_hardness_calibration():
    rng = np.random.default_rng(21)
    times = {
        planner: {
            (d, f"p{i:02d}"): int(rng.integers(1, 1_000_000))
            for d in ("d1", "d2")
            for i in range(1, 21)
        }
        for planner in ("a", "b", "c")
    }
    manifest = simple_manifest(
        {p: ["strips"] for p in times}, [pset("d1", "strips", 20), pset("d2", "strips", 20)]
    )
    runs = [
        run(p, d, "strips", prob, t)
        for p, cells in times.items()
        for (d, prob), t in cells.items()
    ]
    dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                  B=2000, m=20, seed=11)
    trials = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                    B=1000, m=20, seed=12)
    extreme = 0
    for area in trials.samples:
        subject = DifficultyArea("a", "d1", Level.STRIPS, SizeClass.SMALL,
                                 float(area), 20, 1_800_000)
        v = classify(subject, dist)
        if v.classification is not Classification.NEITHER:
            extreme += 1
    assert 0.03 <= extreme / 1000 <= 0.07, extreme


@criterion("bootstrap-determinism")
def test_bootstrap_determinism():
    rng = np.random.default_rng(31)
    manifest = simple_manifest(
        {"a": ["strips"], "b": ["strips"]},
        [pset("d1", "strips", 20), pset("d2", "strips", 20)],
    )
    runs = []
    for planner in ("a", "b"):
        for d in ("d1", "d2"):
            for i in range(1, 21):
                t = None if rng.random() < 0.15 else int(rng.integers(1, 500_000))
                runs.append(run(planner, d, "strips", f"p{i:02d}", t))
    results = [
        bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                               B=5000, m=20, seed=1729)
        for _ in range(2)
    ]
    assert results[0].samples == results[1].samples


@criterion("planted-order-recovery")
def test_planted_order_recovery():
    # 4 planners, 6 domains x 20 problems = 120, strictly ordered times
    rng = np.random.default_rng(41)
    planners = ["p1", "p2", "p3", "p4"]
    domains = [f"dom{j}" for j in range(6)]
    manifest = simple_manifest(
        {p: ["strips"] for p in planners}, [pset(d, "strips", 20) for d in domains]
    )
    runs = []
    for d in domains:
        for i in range(1, 21):
            base = int(rng.integers(100, 10_000))
            for rank, planner in enumerate(planners):
                runs.append(run(planner, d, "strips", f"p{i:02d}", base * (2**rank)))
    comparisons = [
        compare(runs, manifest, a, b, Level.STRIPS, Measure.SPEED, mode)
        for a, b in itertools.combinations(planners, 2)
        for mode in (ALO, DH)
    ]
    order = build_order(comparisons, alpha=0.001)
    solid = [e for e in order.edges if e.kind is EdgeKind.SOLID]
    assert {(e.src, e.dst) for e in solid} == {
        ("p1", "p2"), ("p1", "p3"), ("p1", "p4"),
        ("p2", "p3"), ("p2", "p4"), ("p3", "p4"),
    }
    for e in solid:
        assert e.n == 120
        assert e.p <= 0.001


@criterion("double-hits-inversion")
def test_double_hits_inversion():
    # X solves few problems with better plans; Y solves everything worse
    domains = ["d1", "d2", "d3"]
    manifest = simple_manifest(
        {"X": ["strips"], "Y": ["strips"]}, [pset(d, "strips", 20) for d in domains]
    )
    runs = []
    for d in domains:
        solved_by_x = 6 if d == "d3" else 7  # 20 double hits in total
        for i in range(1, 21):
            runs.append(run("Y", d, "strips", f"p{i:02d}", 50, seq=10))
            if i <= solved_by_x:
                runs.append(run("X", d, "strips", f"p{i:02d}", 9000, seq=5))
    comparisons = [
        compare(runs, manifest, "X", "Y", Level.STRIPS, Measure.QUALITY_SEQ, mode)
        for mode in (ALO, DH)
    ]
    assert comparisons[1].n == 20  # double hits
    order = build_order(comparisons, alpha=0.001)
    kinds = {(e.src, e.dst, e.kind) for e in order.edges}
    assert ("Y", "X", EdgeKind.SOLID) in kinds
    assert ("X", "Y", EdgeKind.DOTTED) in kinds


@criterion("scaling-gate-and-verdict")
def test_scaling_gate_and_verdict():
    manifest = simple_manifest(
        {"a": ["strips"], "b": ["strips"]},
        [pset("d1", "strips", 20), pset("d2", "strips", 20)],
    )
    runs = []
    for d in ("d1", "d2"):
        for i in range(1, 21):
            runs.append(run("a", d, "strips", f"p{i:02d}", 1000))
            runs.append(run("b", d, "strips", f"p{i:02d}", 150 * i))
    # fewer than two agreed domains: gated, rendered as 'o'
    one_domain = {
        "a": {"d1": verdict("a", "d1", Classification.NEITHER)},
        "b": {"d1": verdict("b", "d1", Classification.NEITHER)},
    }
    difficulty = agreed_difficulty(runs, manifest, Level.STRIPS, AUTO)
    gated = scaling_comparison(runs, manifest, "a", "b", Level.STRIPS, one_domain, difficulty)
    assert gated.verdict is Verdict.INCOMPARABLE
    assert gated.reason is IncomparableReason.INSUFFICIENT_AGREEMENT
    assert scaling_symbol(gated) == "o"
    # two agreed domains: constant planner beats the degrading one
    agreed = neither_verdicts(["a", "b"])
    open_result = scaling_comparison(runs, manifest, "a", "b", Level.STRIPS, agreed, difficulty)
    assert open_result.verdict is Verdict.A_SCALES_BETTER
    assert open_result.spearman.z > 0
    mirrored = scaling_comparison(runs, manifest, "b", "a", Level.STRIPS, agreed, difficulty)
    assert mirrored.verdict is Verdict.B_SCALES_BETTER


@criterion("pipeline-smoke")
def test_pipeline_smoke(tmp_path):
    sample = REPO / "data" / "sample"
    base = ["--runs", str(sample / "runs.csv"), "--manifest", str(sample / "manifest.json")]
    commands = [
        ["validate"],
        ["compare", "--level", "strips"],
        ["compare", "--level", "numeric", "--measure", "metric"],
        ["order", "--level", "strips"],
        ["hardness"],
        ["agreement"],
        ["scaling"],
        ["series", "--domain", "transport", "--level", "strips", "--measure", "seq"],
    ]
    outputs = {}
    for round_dir in ("one", "two"):
        out = tmp_path / round_dir
        for cmd in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "planstats.cli", *cmd, *base, "--out", str(out)],
                capture_output=True,
                cwd=REPO,
            )
            assert proc.returncode == 0, (cmd, proc.stderr.decode())
        outputs[round_dir] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }
    assert outputs["one"].keys() == outputs["two"].keys()
    assert len(outputs["one"]) >= 12
    for name in outputs["one"]:
        assert outputs["one"][name] == outputs["two"][name], name
