import dataclasses
import functools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pset, run, simple_manifest
from planstats.dataio import Category, Level, NoProblems, SizeClass, parse_manifest
from planstats.hardness import (
    LEVEL_INDEPENDENT,
    BootstrapDistribution,
    Classification,
    DifficultyArea,
    EmptyPool,
    HardnessTable,
    SampleSizeMismatch,
    bootstrap_distribution,
    bootstrap_distributions,
    classify,
    classify_subjects,
    difficulty_area,
    hardness_table,
    hardness_tables,
    level_specific,
    percentile_of,
    subject_area,
    subject_areas,
)
from planstats.hardness import _CHUNK, _PoolDraws, _philox_words, _sample_area, _sample_areas
from planstats.ranking import EmptyInput

AUTO = Category.FULLY_AUTOMATED
CUTOFF = 1_800_000


class TestDifficultyArea:
    def test_all_unsolved_is_maximal(self):
        assert difficulty_area([None] * 20, CUTOFF) == 20 * CUTOFF

    def test_all_instant_is_zero(self):
        assert difficulty_area([0] * 5, CUTOFF) == 0.0

    def test_mixed(self):
        assert difficulty_area([100, 500, None], 1000) == 1600.0

    def test_clamps_at_cutoff(self):
        assert difficulty_area([5000], 1000) == 1000.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
    def test_sums_left_to_right(self, times):
        clamped = [min(t, CUTOFF) for t in times]
        assert difficulty_area(times, CUTOFF) == functools.reduce(operator.add, clamped, 0.0)

    def test_sum_starts_from_zero(self):
        assert repr(difficulty_area([-0.0, -0.0], CUTOFF)) == "0.0"

    def test_errors(self):
        with pytest.raises(EmptyInput):
            difficulty_area([], 1000)
        with pytest.raises(ValueError):
            difficulty_area([1], 0)

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 10**7)), min_size=1, max_size=30),
        st.integers(0, 29),
        st.integers(1, 10**7),
    )
    def test_monotone_in_each_time(self, times, index, bump):
        index %= len(times)
        base = difficulty_area(times, CUTOFF)
        bumped = list(times)
        bumped[index] = None if bumped[index] is None else bumped[index] + bump
        assert difficulty_area(bumped, CUTOFF) >= base
        unsolved = list(times)
        unsolved[index] = None
        assert difficulty_area(unsolved, CUTOFF) >= base


def pool_dataset(times_by_planner, n=20, domains=("d1", "d2"), levels=("strips",)):
    """times_by_planner: {name: callable(domain, level, i) -> time or None}."""
    manifest = simple_manifest(
        {name: list(levels) for name in times_by_planner},
        [pset(d, lv, n) for d in domains for lv in levels],
    )
    runs = []
    for name, fn in times_by_planner.items():
        for d in domains:
            for lv in levels:
                for i in range(1, n + 1):
                    t = fn(d, lv, i)
                    runs.append(run(name, d, lv, f"p{i:02d}", t))
    return runs, manifest


class TestBootstrap:
    def test_degenerate_all_zero(self):
        runs, manifest = pool_dataset({"a": lambda d, lv, i: 0, "b": lambda d, lv, i: 0})
        dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                      B=200, seed=1)
        assert set(dist.samples) == {0.0}

    def test_degenerate_nothing_solved(self):
        runs, manifest = pool_dataset({"a": lambda d, lv, i: None})
        dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                      B=200, m=20, cutoff_ms=CUTOFF, seed=1)
        assert set(dist.samples) == {20.0 * CUTOFF}

    def test_seeded_determinism(self):
        runs, manifest = pool_dataset(
            {"a": lambda d, lv, i: 37 * i, "b": lambda d, lv, i: None if i > 15 else 91 * i}
        )
        dists = [
            bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                   B=500, seed=42)
            for _ in range(2)
        ]
        assert dists[0].samples == dists[1].samples

    def test_golden_first_samples(self):
        # Frozen sample values: a faster sampler must reproduce this stream
        # exactly, or bump RNG_NAME.  Problems at the two levels have 3 and 2
        # eligible planners, so the per-problem planner draws mix bounds.
        manifest = simple_manifest(
            {"a": ["strips", "numeric"], "b": ["strips"], "c": ["strips", "numeric"]},
            [pset("d1", "strips", 4), pset("d1", "numeric", 3)],
        )
        runs = [
            run(p, "d1", lv, f"p{i:02d}", None if (k + i) % 4 == 0 else 1000 * k + 7 * i)
            for k, p in enumerate(("a", "b", "c"), start=1)
            for lv, n in (("strips", 4), ("numeric", 3))
            if not (p == "b" and lv == "numeric")
            for i in range(1, n + 1)
        ]
        dist = bootstrap_distribution(runs, manifest, AUTO, LEVEL_INDEPENDENT,
                                      B=8, m=5, cutoff_ms=10_000, seed=2024)
        assert repr(dist.samples[:8]) == (
            "(11070.0, 13091.0, 34035.0, 16042.0, 27035.0, 19070.0, 32014.0, 23028.0)"
        )

    def test_different_seeds_differ(self):
        runs, manifest = pool_dataset({"a": lambda d, lv, i: 37 * i})
        d1 = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                    B=100, seed=1)
        d2 = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                    B=100, seed=2)
        assert d1.samples != d2.samples

    def test_tiny_pool_chi_squared(self):
        # one planner, two problems: each draw yields t1 or t2 equally, so a
        # two-value sample's area is 200/800/1400 with probability 1/4, 1/2, 1/4
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 2)])
        runs = [run("a", "d", "strips", "p01", 100), run("a", "d", "strips", "p02", 700)]
        dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                      B=10_000, m=2, seed=9)
        observed = {200.0: 0, 800.0: 0, 1400.0: 0}
        for s in dist.samples:
            observed[s] += 1
        expected = {200.0: 2500, 800.0: 5000, 1400.0: 2500}
        chi2 = sum((observed[k] - expected[k]) ** 2 / expected[k] for k in expected)
        assert chi2 < 13.8  # chi-squared df=2 at alpha=0.001

    def test_unentered_planners_excluded_from_draws(self):
        # b never entered strips, so only a's times can be drawn
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["numeric"]},
            [pset("d", "strips", 4), pset("d", "numeric", 4, prefix="n")],
        )
        runs = [run("a", "d", "strips", f"p{i:02d}", 10) for i in range(1, 5)]
        runs += [run("b", "d", "numeric", f"n{i:02d}", 999999) for i in range(1, 5)]
        dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                      B=100, m=4, seed=3)
        assert set(dist.samples) == {40.0}

    def test_level_independent_pools_all_levels(self):
        runs, manifest = pool_dataset(
            {"a": lambda d, lv, i: 10 if lv == "strips" else 100000},
            levels=("strips", "numeric"),
        )
        independent = bootstrap_distribution(runs, manifest, AUTO, LEVEL_INDEPENDENT,
                                             B=300, seed=5)
        strips_only = bootstrap_distribution(runs, manifest, AUTO,
                                             level_specific(Level.STRIPS), B=300, seed=5)
        numeric_only = bootstrap_distribution(runs, manifest, AUTO,
                                              level_specific(Level.NUMERIC), B=300, seed=5)
        # samples mix the cheap and the expensive level
        mean = sum(independent.samples) / len(independent.samples)
        assert max(strips_only.samples) < mean < min(numeric_only.samples)

    def test_empty_pool(self):
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 2)])
        with pytest.raises(EmptyPool):
            bootstrap_distribution([], manifest, Category.HAND_CODED,
                                   level_specific(Level.STRIPS), B=10, seed=1)


class TestCounterBasedSampler:
    """The numpy sampler against numpy's own Philox and the scalar sampler.

    These guard against numpy changing its (undocumented) Philox stream
    layout or Lemire reduction under the vectorised sampler.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_philox_words_match_numpy(self, seed):
        index = np.array([0, 1, 7, 1023, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
        words = _philox_words(seed, index, 3)
        for row, i in zip(words, index):
            key = np.array([seed, i], dtype=np.uint64)
            raw = np.random.Philox(key=key).random_raw(12)
            halves = np.stack((raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)), axis=-1)
            assert row.tolist() == halves.reshape(-1).tolist()

    @pytest.mark.parametrize("n_blocks", [1, 5])
    def test_philox_words_match_numpy_at_chunk_size(self, n_blocks):
        # the rounds rotate four full-width buffers in place; a row sample
        # across the whole chunk catches a buffer read after it was overwritten
        seed = 2**63 + 12345
        index = np.arange(7 * _CHUNK, 8 * _CHUNK, dtype=np.uint64)
        words = _philox_words(seed, index, n_blocks)
        assert words.shape == (_CHUNK, 8 * n_blocks)
        for r in [0, 1, 2, 511, 512, _CHUNK - 2, _CHUNK - 1]:
            raw = np.random.Philox(key=np.array([seed, index[r]], dtype=np.uint64)).random_raw(
                4 * n_blocks)
            halves = np.stack((raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)), axis=-1)
            assert words[r].tolist() == halves.reshape(-1).tolist()

    @settings(max_examples=25, deadline=None)
    @given(
        pool=st.lists(
            st.lists(
                st.one_of(
                    st.integers(0, 1_800_000).map(float),
                    st.floats(0, 1_800_000, allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=9,
        ),
        m=st.sampled_from([1, 3, 20, 22]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(pool=[[0.1]], m=3, seed=0)  # a one-problem, one-planner pool draws nothing
    @example(pool=[[0.1, 0.7, 1e6 / 3]], m=22, seed=2**64 - 1)
    def test_areas_match_scalar_sampler(self, pool, m, seed):
        per_problem = [np.array(times) for times in pool]
        B = _CHUNK + 5  # crosses a chunk boundary
        (areas,) = _sample_areas(seed, [per_problem], m, B)
        assert areas.tolist() == [_sample_area(i, seed, per_problem, m) for i in range(B)]

    def test_rejected_draw_falls_back_to_scalar(self):
        # Sample 25039 hits a Lemire rejection on its 19th problem draw
        # (4100 problems), which only the scalar fallback gets right.
        per_problem = [np.array([k, k + 0.5]) for k in range(4100)]
        (areas,) = _sample_areas(1, [per_problem], 20, 25040)
        assert areas[25039] == _sample_area(25039, 1, per_problem, 20) == 46024.0


class TestSharedWordBlock:
    """Pools sampled together read one word block per chunk; each pool's
    areas must still be what the scalar sampler gives it alone."""

    POOLS = {
        # one problem: no problem words, only planner draws
        "one-problem": [np.array([300.0, 1e6 / 7, 0.25])],
        # single-planner problems: problem draws, no planner word
        "one-planner": [np.array([float(k) * 11 + 0.5]) for k in range(6)],
        "mixed": [np.array([1.5, 9.0]), np.array([4.0]), np.array([2.0, 7.25, 3.0, 8.0])],
        # every problem has two or more planners, in differing counts
        "all-consuming": [np.array([0.5, 6.0, 2.5]), np.array([3.0, 1e6 / 3]),
                          np.array([8.0, 4.5, 7.0, 0.125]), np.array([5.0, 9.5])],
        # every problem has three planners: the draws use the scalar count
        "same-count": [np.array([k + 0.5, 1e6 / (k + 3), 2.0 * k]) for k in range(5)],
    }

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("m", [3, 20])
    def test_every_pool_matches_scalar_sampler(self, seed, m):
        pools = list(self.POOLS.values())
        B_max = 2 * _CHUNK + 1
        expected = [[_sample_area(i, seed, pool, m) for i in range(B_max)] for pool in pools]
        for B in (1, _CHUNK - 1, _CHUNK, B_max):
            for areas, scalar in zip(_sample_areas(seed, pools, m, B), expected):
                assert areas.tolist() == scalar[:B]

    def test_rejection_in_one_pool_leaves_the_other(self):
        # sample 25039 is rejected in the 4100-problem pool (see above) but
        # draws cleanly from the small pool beside it
        big = [np.array([k, k + 0.5]) for k in range(4100)]
        small = [np.array([k, k + 0.25, k + 0.75]) for k in range(5)]
        words = _philox_words(1, np.array([25039], dtype=np.uint64), 5)
        assert _PoolDraws(big, 20).fill(words, np.empty(1)).tolist() == [0]
        assert _PoolDraws(small, 20).fill(words, np.empty(1)).tolist() == []
        B = 25040
        small_areas, big_areas = _sample_areas(1, [small, big], 20, B)
        tail = range(B - 64, B)
        assert big_areas[list(tail)].tolist() == [_sample_area(i, 1, big, 20) for i in tail]
        assert small_areas[list(tail)].tolist() == [_sample_area(i, 1, small, 20) for i in tail]
        assert big_areas[25039] == 46024.0

    def test_no_pools(self):
        assert _sample_areas(0, [], 20, 10) == []

    @pytest.mark.parametrize("counts, same_count", [
        ([3, 3, 3, 3], 3),
        ([3], 3),
        ([2, 4, 2, 4], 0),
        ([1, 1, 1], 0),
    ])
    def test_scalar_path_exactly_for_one_shared_count(self, counts, same_count):
        pool = [np.arange(n, dtype=float) + 10.0 * k for k, n in enumerate(counts)]
        draws = _PoolDraws(pool, 20)
        assert draws.same_count == same_count
        if same_count:
            # the scalar path reads no per-problem table
            draws.lens = draws.starts = None
            words = _philox_words(4, np.arange(64, dtype=np.uint64), draws.n_blocks)
            area = np.empty(64)
            redo = set(draws.fill(words, area).tolist())
            assert [a for i, a in enumerate(area.tolist()) if i not in redo] == [
                _sample_area(i, 4, pool, 20) for i in range(64) if i not in redo]


def lemire_reference(row: list[int], pool: list[np.ndarray], m: int) -> float | None:
    """The area numpy's draws give a row of 32-bit words, or None when one
    of its draws is rejected (numpy would draw that one again)."""
    words = iter(row)

    def draw(n: int) -> int | None:
        if n == 1:
            return 0  # consumes no word
        product = next(words) * n
        if product % 2**32 < (2**32 - n) % n:
            return None
        return product >> 32

    problems = [draw(len(pool)) for _ in range(m)]
    if None in problems:
        return None
    area = 0.0
    for p in problems:
        planner = draw(len(pool[p]))
        if planner is None:
            return None
        area += float(pool[p][planner])
    return area


class TestPoolBound:
    """``_PoolDraws.fill`` flags a draw below the pool's largest Lemire
    threshold, not its own: it must still flag every rejection, and every
    row it does not flag must hold numpy's exact area."""

    M = 4

    def low_word(self, n: int, low: int) -> int:
        """A word u with (u * n) mod 2**32 == low."""
        return low * pow(n, -1, 2**32) % 2**32

    def problem_word(self, n_problems: int, p: int) -> int:
        """A word drawing problem p of n, clear of every threshold."""
        return ((p << 32) + (1 << 31)) // n_problems + 1

    @pytest.mark.parametrize("counts, rejected, accepted", [
        # thresholds 1 for 3 and 5 values, 4 for 7: the pool's bound is 4
        ([3, 7, 3, 7, 3], (1, "planner"), (0, "planner")),
        # the same count, 3, for 7 problems: the bound is the problem draw's 4
        ([3] * 7, (2, "problem"), (4, "planner")),
    ])
    def test_every_rejection_is_flagged(self, counts, rejected, accepted):
        pool = [np.arange(n, dtype=float) * 1.5 + k for k, n in enumerate(counts)]
        m, n_problems = self.M, len(pool)
        draws = _PoolDraws(pool, m)
        assert draws.same_count == (3 if set(counts) == {3} else 0)
        rows = np.random.default_rng(7).integers(0, 2**32, size=(200, 2 * m), dtype=np.uint64)
        # row 0 holds a draw below its own threshold (a rejection), row 1 one
        # between its own threshold and the pool's bound (numpy accepts it)
        for row, (problem, draw) in enumerate([rejected, accepted]):
            rows[row, :m] = self.problem_word(n_problems, problem)
            n = n_problems if draw == "problem" else counts[problem]
            rows[row, 0 if draw == "problem" else m] = self.low_word(n, 2)
            threshold = (2**32 - n) % n
            assert (2 < threshold) if row == 0 else (threshold <= 2 < draws.bound)
        reference = [lemire_reference(row, pool, m) for row in rows.tolist()]
        assert reference[0] is None and reference[1] is not None
        for block in (rows, np.asfortranarray(rows)):  # the sampler's word-major layout too
            area = np.empty(len(rows))
            flagged = set(draws.fill(block, area).tolist())
            assert {0, 1} <= flagged
            assert {r for r, a in enumerate(reference) if a is None} <= flagged
            assert all(area[r] == reference[r] for r in range(len(rows)) if r not in flagged)


def make_dist(samples, m=20):
    return BootstrapDistribution(
        pool_kind=level_specific(Level.STRIPS),
        category=AUTO,
        size_class=SizeClass.SMALL,
        samples=tuple(float(s) for s in samples),
        B=len(samples),
        m=m,
        cutoff_ms=CUTOFF,
        seed=0,
    )


def make_subject(area, n_problems=20):
    return DifficultyArea(
        planner="a",
        domain="d",
        level=Level.STRIPS,
        size_class=SizeClass.SMALL,
        area_ms=float(area),
        n_problems=n_problems,
        cutoff_ms=CUTOFF,
    )


class TestClassify:
    def test_below_everything_is_easy(self):
        v = classify(make_subject(1.0), make_dist(range(100, 1100)))
        assert v.percentile == 0.0
        assert v.classification is Classification.EASY

    def test_above_everything_is_hard(self):
        v = classify(make_subject(10**9), make_dist(range(100, 1100)))
        assert v.percentile == 1.0
        assert v.classification is Classification.HARD

    def test_degenerate_ties_are_neither(self):
        v = classify(make_subject(500.0), make_dist([500.0] * 1000))
        assert v.percentile == 0.5
        assert v.classification is Classification.NEITHER

    def test_threshold_edges(self):
        samples = [float(i) for i in range(1, 1001)]  # percentile of s/1000
        easy = classify(make_subject(25.5), make_dist(samples))
        assert easy.percentile == 0.025
        assert easy.classification is Classification.EASY
        neither = classify(make_subject(26.5), make_dist(samples))
        assert neither.classification is Classification.NEITHER
        hard = classify(make_subject(975.5), make_dist(samples))
        assert hard.percentile == 0.975
        assert hard.classification is Classification.HARD

    def test_rescaling_mismatched_subject(self):
        # half the problems: area doubles before comparison, landing at 500
        samples = [float(i) for i in range(1, 1001)]
        v = classify(make_subject(250.0, n_problems=10), make_dist(samples, m=20))
        assert v.percentile == pytest.approx((499 + 0.5) / 1000)

    def test_empty_subject_rejected(self):
        with pytest.raises(SampleSizeMismatch):
            classify(make_subject(0.0, n_problems=0), make_dist([1.0]))
        with pytest.raises(SampleSizeMismatch):
            classify_subjects([make_subject(1.0), make_subject(0.0, n_problems=0)],
                              make_dist([1.0]))

    def test_percentile_of_no_samples(self):
        with pytest.raises(EmptyInput):
            percentile_of(1.0, [])

    def test_percentile_mid_tie(self):
        assert percentile_of(5.0, [1.0, 5.0, 9.0]) == pytest.approx(0.5)

    @given(
        st.lists(st.integers(0, 20).map(float), min_size=1, max_size=60),
        st.integers(-1, 21).map(float),
    )
    def test_percentile_matches_scan(self, samples, area):
        below = sum(1 for s in samples if s < area)
        equal = sum(1 for s in samples if s == area)
        expected = (below + 0.5 * equal) / len(samples)
        assert percentile_of(area, samples) == expected
        assert classify(make_subject(area), make_dist(samples)).percentile == expected

    def test_distribution_keeps_draw_order(self):
        dist = make_dist([3.0, 1.0, 2.0])
        assert dist.samples == (3.0, 1.0, 2.0)
        assert dist == make_dist([3.0, 1.0, 2.0])
        assert "_ordered" not in repr(dist)

    def test_ordered_samples_from_tuple_and_from_sampler(self):
        assert make_dist([3.0, 1.0, 2.0])._ordered.tolist() == [1.0, 2.0, 3.0]
        # the sampler's distribution sorts its samples the same way
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 3)])
        runs = [run("a", "d", "strips", f"p{i:02d}", 100 * i) for i in range(1, 4)]
        dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                      B=50, m=3, seed=2)
        assert dist._ordered.tolist() == sorted(dist.samples)
        assert make_dist(dist.samples, m=3)._ordered.tolist() == dist._ordered.tolist()
        assert dataclasses.replace(dist, samples=(5.0, 4.0))._ordered.tolist() == [4.0, 5.0]


class TestSubjectArea:
    def test_unattempted_counts_as_unsolved(self):
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 3)])
        runs = [run("a", "d", "strips", "p01", 100)]
        subject = subject_area(runs, manifest, "a", "d", Level.STRIPS, cutoff_ms=1000)
        assert subject.area_ms == 100 + 1000 + 1000
        assert subject.n_problems == 3

    def test_planners_in_order_unknown_planner_unsolved(self):
        manifest = simple_manifest({"a": ["strips"], "b": ["strips"]}, [pset("d", "strips", 3)])
        runs = [run("a", "d", "strips", "p01", 100), run("b", "d", "strips", "p03", 5000)]
        areas = subject_areas(runs, manifest, ["b", "ghost", "a"], "d", Level.STRIPS,
                              cutoff_ms=1000)
        assert [(s.planner, s.area_ms) for s in areas] == [
            ("b", 3000.0), ("ghost", 3000.0), ("a", 2100.0)]
        assert areas == [subject_area(runs, manifest, name, "d", Level.STRIPS, cutoff_ms=1000)
                         for name in ("b", "ghost", "a")]

    def test_errors(self):
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 3)])
        with pytest.raises(NoProblems, match="no small problem set for elsewhere/strips"):
            subject_areas([], manifest, ["a"], "elsewhere", Level.STRIPS)
        with pytest.raises(ValueError):
            subject_areas([], manifest, ["a"], "d", Level.STRIPS, cutoff_ms=0)


class TestHardnessTable:
    def test_planted_hard_domain(self):
        # one domain uniformly 100x slower: hard for every planner
        rng = np.random.default_rng(4)
        base = {f"p{i:02d}": int(rng.integers(100, 2000)) for i in range(1, 21)}

        def times(name_factor):
            def fn(d, lv, i):
                t = base[f"p{i:02d}"] * name_factor
                return t * 100 if d == "slow" else t
            return fn

        runs, manifest = pool_dataset(
            {"a": times(1), "b": times(2), "c": times(3)},
            domains=("fast1", "fast2", "fast3", "slow"),
        )
        table = hardness_table(runs, manifest, AUTO, level_specific_pools=True,
                               B=2000, seed=7)
        for v in table.verdicts:
            if v.domain == "slow":
                assert v.classification is Classification.HARD, v

    def test_cell_counts_shape(self):
        runs, manifest = pool_dataset({"a": lambda d, lv, i: 10 * i, "b": lambda d, lv, i: 20 * i})
        table = hardness_table(runs, manifest, AUTO, level_specific_pools=False, B=500, seed=3)
        counts = table.cell_counts()
        assert set(counts) == {("d1", Level.STRIPS), ("d2", Level.STRIPS)}
        for easy, hard in counts.values():
            assert 0 <= easy <= 2 and 0 <= hard <= 2

    def test_planner_without_cell_records_skipped(self):
        manifest = simple_manifest(
            {"a": ["strips"], "b": ["strips"]}, [pset("d1", "strips", 4), pset("d2", "strips", 4)]
        )
        runs = [run("a", "d1", "strips", f"p{i:02d}", 10) for i in range(1, 5)]
        runs += [run("a", "d2", "strips", f"p{i:02d}", 10) for i in range(1, 5)]
        runs += [run("b", "d1", "strips", f"p{i:02d}", 20) for i in range(1, 5)]
        table = hardness_table(runs, manifest, AUTO, level_specific_pools=True, B=200, seed=3)
        subjects = {(v.planner, v.domain) for v in table.verdicts}
        assert subjects == {("a", "d1"), ("a", "d2"), ("b", "d1")}


class TestUniformPoolCell:
    def test_single_planner_uniform_pool_is_neither(self):
        # planner identical to its own pool: mid percentile, 0/0 cell
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 20)])
        runs = [run("a", "d", "strips", f"p{i:02d}", 500) for i in range(1, 21)]
        table = hardness_table(runs, manifest, AUTO, level_specific_pools=True,
                               B=500, seed=5)
        (v,) = table.verdicts
        assert v.percentile == pytest.approx(0.5)
        assert v.classification is Classification.NEITHER
        assert table.cell_counts()[("d", Level.STRIPS)] == (0, 0)


class TestInvariantBounds:
    def test_subject_area_bound(self):
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 5)])
        runs = [run("a", "d", "strips", "p01", 10**9)]
        subject = subject_area(runs, manifest, "a", "d", Level.STRIPS, cutoff_ms=CUTOFF)
        assert 0 <= subject.area_ms <= subject.n_problems * CUTOFF

    def test_bootstrap_samples_bounded(self):
        runs, manifest = pool_dataset(
            {"a": lambda d, lv, i: None if i % 3 == 0 else 10**8}
        )
        dist = bootstrap_distribution(runs, manifest, AUTO, level_specific(Level.STRIPS),
                                      B=300, m=7, cutoff_ms=CUTOFF, seed=2)
        assert all(0 <= s <= dist.m * CUTOFF for s in dist.samples)

    def test_by_planner_helper(self):
        runs, manifest = pool_dataset({"a": lambda d, lv, i: 10 * i,
                                       "b": lambda d, lv, i: 20 * i})
        table = hardness_table(runs, manifest, AUTO, level_specific_pools=True,
                               B=200, seed=3)
        verdicts = table.by_planner(Level.STRIPS)
        assert set(verdicts) == {"a", "b"}
        assert set(verdicts["a"]) == {"d1", "d2"}
        assert table.by_planner(Level.TIME) == {}


@st.composite
def hardness_grids(draw):
    """A two-level grid whose numeric level has a single fully-automated
    planner; sets of 1-6 problems against m of 1, 3 or 4, so that most
    subjects are rescaled; unattempted, unsolved, clamped, fractional and,
    when ``constant``, all-equal solved times, whose areas tie the
    bootstrap samples at the tails."""
    auto = ["a", "b", "c"][: draw(st.integers(1, 3))]
    planners = [{"name": name, "category": "fully-automated",
                 "levels": ["strips", "numeric"] if name == "a" else ["strips"]}
                for name in auto]
    planners.append({"name": "h", "category": "hand-coded", "levels": ["strips", "numeric"]})
    sets = [pset(domain, level, draw(st.integers(1, 6)))
            for domain in ("d1", "d2") for level in ("strips", "numeric")]
    constant = draw(st.booleans())
    times = st.just(7) if constant else st.sampled_from([0, 0.1, 7, 7, 1e3 / 7, 30, 1000])
    runs = []
    for entry in planners:
        for ps in sets:
            if ps["level"] not in entry["levels"]:
                continue
            for problem in ps["problems"]:
                state = draw(st.integers(0, 3))
                if state == 0:
                    continue  # did not attempt
                runs.append(run(entry["name"], ps["domain"], ps["level"], problem,
                                None if state == 1 else draw(times)))
    manifest = parse_manifest({"planners": planners, "problem_sets": sets})
    return manifest, runs, draw(st.sampled_from([1, 3, 4])), draw(st.integers(0, 2**64 - 1))


def pool_distribution(runs, manifest, kind, m, seed, B, cutoff_ms):
    return bootstrap_distributions(runs, manifest, AUTO, [kind], SizeClass.SMALL, B, m,
                                   cutoff_ms, seed)[kind]


def reference_hardness_tables(runs, manifest, modes, m, seed, B, cutoff_ms):
    """``hardness_tables`` composed per subject: a ``subject_area`` per
    entered planner with a record in the cell, classified by ``classify``
    against its pool's distribution."""
    with_record = {(r.planner, r.domain, r.level) for r in runs}
    subjects = [
        subject_area(runs, manifest, entry.name, ps.domain, ps.level, cutoff_ms=cutoff_ms)
        for ps in sorted(manifest.sets_at(size_class=SizeClass.SMALL),
                         key=lambda s: (s.domain, s.level.value))
        for entry in manifest.planners_in(AUTO, ps.level)
        if (entry.name, ps.domain, ps.level) in with_record
    ]
    tables = []
    for specific in modes:
        verdicts = []
        for subject in subjects:
            kind = level_specific(subject.level) if specific else LEVEL_INDEPENDENT
            dist = pool_distribution(runs, manifest, kind, m, seed, B, cutoff_ms)
            verdicts.append(classify(subject, dist))
        tables.append(HardnessTable(AUTO, SizeClass.SMALL, tuple(verdicts)))
    return tables


@settings(max_examples=100, deadline=None)
@given(hardness_grids())
def test_hardness_tables_match_per_subject_composition(grid):
    manifest, runs, m, seed = grid
    B, cutoff_ms = 40, 30
    for modes in ((True, False), (False,), (True,)):
        tables = hardness_tables(runs, manifest, AUTO, level_specific_pools=modes, B=B, m=m,
                                 cutoff_ms=cutoff_ms, seed=seed)
        expected = reference_hardness_tables(runs, manifest, modes, m, seed, B, cutoff_ms)
        assert repr(tables) == repr(expected)
    # the one-row calls are the plain formulas: a left-to-right sum of
    # clamped times, and the mid-p percentile by a scan of the samples
    for v in tables[0].verdicts:
        cells = {r.problem: r.time_ms for r in runs
                 if (r.planner, r.domain, r.level) == (v.planner, v.domain, v.level)}
        (ps,) = manifest.sets_at(v.level, SizeClass.SMALL, v.domain)
        clamped = [cutoff_ms if cells.get(p) is None else min(cells[p], cutoff_ms)
                   for p in ps.problems]
        assert v.area_ms == functools.reduce(operator.add, map(float, clamped), 0.0)
        dist = pool_distribution(runs, manifest, v.pool_kind, m, seed, B, cutoff_ms)
        area = v.area_ms * (m / v.n_problems) if v.n_problems != m else v.area_ms
        below = sum(s < area for s in dist.samples)
        ties = sum(s == area for s in dist.samples)
        assert v.percentile == (below + 0.5 * ties) / B


@settings(max_examples=50, deadline=None)
@given(hardness_grids())
def test_level_restricted_tables_keep_the_level_verdicts(grid):
    """A level-restricted call gives the unrestricted call's verdicts at
    that level, each against the same pool."""
    manifest, runs, m, seed = grid
    B, cutoff_ms, modes = 40, 30, (True, False)
    full = hardness_tables(runs, manifest, AUTO, level_specific_pools=modes, B=B, m=m,
                           cutoff_ms=cutoff_ms, seed=seed)
    for level in (Level.STRIPS, Level.NUMERIC):
        tables = hardness_tables(runs, manifest, AUTO, level_specific_pools=modes, level=level,
                                 B=B, m=m, cutoff_ms=cutoff_ms, seed=seed)
        expected = [HardnessTable(t.category, t.size_class,
                                  tuple(v for v in t.verdicts if v.level is level))
                    for t in full]
        assert repr(tables) == repr(expected)
