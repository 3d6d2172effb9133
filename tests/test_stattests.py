import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planstats.distributions import DomainError
from planstats.ranking import EmptyInput, rank_ascending
from planstats.stattests import (
    Favored,
    InvalidRankRow,
    LengthMismatch,
    NonPositiveValue,
    RaggedMatrix,
    TooFewPairs,
    TooLarge,
    mrc_test,
    paired_t_normalized,
    proportion_test,
    spearman_rows,
    spearman_test,
    wilcoxon_exact_p,
    wilcoxon_matched_pairs,
    wilcoxon_rows,
)
from test_ranking import reference_ranks

# zeros, ties and infinite magnitudes of either sign
tied_diffs_with_infinities = st.lists(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 5.0, math.inf, -math.inf]),
    min_size=1,
    max_size=10,
)
nonzero_diffs = st.lists(
    st.one_of(st.integers(1, 9), st.integers(-9, -1)).map(float), min_size=1, max_size=30
)


class TestWilcoxon:
    def test_seven_small_wins_three_big_losses(self):
        r = wilcoxon_matched_pairs([1, 2, 3, 4, 5, 6, 7, -80, -90, -100])
        assert r.rank_sum_pos == 28
        assert r.rank_sum_neg == 27
        assert r.T == 27
        assert r.z == pytest.approx(0.5 / math.sqrt(10 * 11 * 21 / 24), abs=1e-10)
        assert r.z == pytest.approx(0.0510, abs=5e-4)
        assert r.p_two_sided > 0.05
        assert r.favored is Favored.FIRST

    def test_all_wins_for_first(self):
        r = wilcoxon_matched_pairs([float(i) for i in range(1, 11)])
        assert r.T == 0
        assert r.z == pytest.approx(27.5 / math.sqrt(96.25), abs=1e-10)
        assert r.z == pytest.approx(2.803, abs=5e-4)
        assert r.favored is Favored.FIRST

    def test_zero_differences_dropped(self):
        r = wilcoxon_matched_pairs([0.0, 1.0, 0.0, -2.0, 0.0])
        assert r.n_input == 5
        assert r.n_effective == 2

    def test_all_zero(self):
        r = wilcoxon_matched_pairs([0.0, 0.0])
        assert r.favored is Favored.NONE
        assert r.z == 0.0
        assert r.p_two_sided == 1.0

    def test_infinite_differences_rank_at_top(self):
        r = wilcoxon_matched_pairs([1.0, -2.0, math.inf, math.inf])
        assert r.rank_sum_pos == 1 + 3.5 + 3.5
        assert r.rank_sum_neg == 2

    def test_empty(self):
        with pytest.raises(EmptyInput):
            wilcoxon_matched_pairs([])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            wilcoxon_matched_pairs([1.0, math.nan, -2.0])

    def test_rows_match_one_row_calls(self):
        rows = [[1.0, -2.0, math.inf, math.inf], [0.0, 0.0, 0.0, 0.0], [3.0, -math.inf, 0.0, 3.0]]
        together = wilcoxon_rows(np.array(rows), [4, 4, 4])
        assert together == [wilcoxon_matched_pairs(row) for row in rows]

    @given(nonzero_diffs)
    def test_rank_sum_identity(self, diffs):
        r = wilcoxon_matched_pairs(diffs)
        m = r.n_effective
        assert r.rank_sum_pos + r.rank_sum_neg == pytest.approx(m * (m + 1) / 2)
        assert r.T == min(r.rank_sum_pos, r.rank_sum_neg)
        assert r.z >= 0

    @given(nonzero_diffs)
    def test_negation_antisymmetry(self, diffs):
        r = wilcoxon_matched_pairs(diffs)
        flipped = wilcoxon_matched_pairs([-d for d in diffs])
        assert flipped.z == pytest.approx(r.z)
        assert flipped.p_two_sided == pytest.approx(r.p_two_sided)
        expected = {
            Favored.FIRST: Favored.SECOND,
            Favored.SECOND: Favored.FIRST,
            Favored.NONE: Favored.NONE,
        }[r.favored]
        assert flipped.favored is expected


def brute_force_exact_p(diffs, mid_p, t_obs=None):
    """Literal sign-pattern enumeration (the definitional oracle), measured
    from the observed smaller rank sum or from ``t_obs`` if given."""
    nonzero = [d for d in diffs if d != 0.0]
    m = len(nonzero)
    if m == 0:
        return 1.0
    ranks = reference_ranks([abs(d) for d in nonzero])
    total = sum(ranks)
    if t_obs is None:
        w_pos = sum(r for r, d in zip(ranks, nonzero) if d > 0)
        t_obs = min(w_pos, total - w_pos)
    below = equal = 0
    for signs in itertools.product((1.0, -1.0), repeat=m):
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        t = min(w, total - w)
        if t < t_obs - 1e-9:
            below += 1
        elif abs(t - t_obs) <= 1e-9:
            equal += 1
    if mid_p:
        return (below + 0.5 * equal) / 2**m
    return (below + equal) / 2**m


class TestWilcoxonExact:
    def test_single_difference_inclusive(self):
        # both sign patterns are equally extreme
        assert wilcoxon_exact_p([1.0], mid_p=False) == 1.0

    def test_five_equal_positive_inclusive(self):
        assert wilcoxon_exact_p([2.0] * 5, mid_p=False) == 2 / 32

    def test_mid_p_variants(self):
        assert wilcoxon_exact_p([1.0]) == 0.5
        assert wilcoxon_exact_p([2.0] * 5) == 1 / 32

    def test_seven_three_close_to_normal(self):
        diffs = [1, 2, 3, 4, 5, 6, 7, -80, -90, -100]
        exact = wilcoxon_exact_p(diffs)
        normal = wilcoxon_matched_pairs(diffs).p_two_sided
        assert abs(exact - normal) <= 0.02

    def test_too_large(self):
        with pytest.raises(TooLarge):
            wilcoxon_exact_p([float(i) for i in range(1, 22)])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            wilcoxon_exact_p([])

    @settings(max_examples=60)
    @given(
        st.lists(
            st.one_of(st.integers(1, 6), st.integers(-6, -1)).map(float),
            min_size=1,
            max_size=10,
        ),
        st.booleans(),
    )
    def test_matches_literal_enumeration(self, diffs, mid_p):
        assert wilcoxon_exact_p(diffs, mid_p=mid_p) == pytest.approx(
            brute_force_exact_p(diffs, mid_p)
        )

    @settings(max_examples=80)
    @given(tied_diffs_with_infinities)
    def test_rank_sums_are_the_exact_tests(self, diffs):
        # the normal test's rank sums are those wilcoxon_exact_p ranks by
        r = wilcoxon_matched_pairs(diffs)
        nonzero = [d for d in diffs if d != 0.0]
        ranks = reference_ranks([abs(d) for d in nonzero])
        assert r.n_effective == len(nonzero)
        assert r.rank_sum_pos == sum(q for q, d in zip(ranks, nonzero) if d > 0)
        assert r.rank_sum_neg == sum(q for q, d in zip(ranks, nonzero) if d < 0)
        assert wilcoxon_exact_p(diffs) == pytest.approx(
            brute_force_exact_p(diffs, True, t_obs=r.T)
        )

    def test_normal_p_within_002_for_every_t(self):
        # exhaustive over all achievable T values, continuous magnitudes
        for m in range(10, 21):
            total = m * (m + 1) // 2
            for t_obs in range(0, total // 2 + 1):
                # construct diffs achieving W+ = t_obs with untied ranks
                signs = [-1.0] * m
                remaining = t_obs
                for rank in range(m, 0, -1):
                    if remaining >= rank:
                        signs[rank - 1] = 1.0
                        remaining -= rank
                if remaining:
                    continue
                diffs = [s * (i + 1) for i, s in enumerate(signs)]
                exact = wilcoxon_exact_p(diffs)
                normal = wilcoxon_matched_pairs(diffs).p_two_sided
                assert abs(exact - normal) <= 0.02, (m, t_obs)


class TestProportion:
    def test_null(self):
        assert proportion_test(50, 100).z == 0.0

    def test_sixty_of_hundred(self):
        r = proportion_test(60, 100)
        assert r.z == pytest.approx(2.0)
        assert r.p_two_sided == pytest.approx(0.0455, abs=1e-3)

    @given(st.integers(1, 200), st.data())
    def test_mirror_symmetry(self, n, data):
        wins = data.draw(st.integers(0, n))
        a = proportion_test(wins, n)
        b = proportion_test(n - wins, n)
        assert a.z == pytest.approx(-b.z)
        assert a.p_two_sided == pytest.approx(b.p_two_sided)

    def test_domain_errors(self):
        with pytest.raises(Exception):
            proportion_test(5, 0)
        with pytest.raises(Exception):
            proportion_test(7, 5)
        with pytest.raises(Exception):
            proportion_test(-1, 5)


class TestPairedT:
    def test_worked_example(self):
        r = paired_t_normalized([(1, 3), (2, 6), (1, 2)])
        assert r.mean_first_norm == pytest.approx(5 / 9)
        assert r.mean_second_norm == pytest.approx(13 / 9)
        assert r.d_bar == pytest.approx(-8 / 9)
        assert r.s == pytest.approx(math.sqrt(1 / 27), abs=1e-9)
        assert r.t == pytest.approx(-8.0, abs=1e-9)
        assert r.df == 2

    def test_equal_pairs(self):
        r = paired_t_normalized([(5, 5)] * 4)
        assert r.t == 0.0
        assert r.p_two_sided == 1.0
        assert r.mean_first_norm == pytest.approx(1.0)

    def test_swap_negates(self):
        pairs = [(1.0, 3.0), (2.5, 6.0), (1.0, 2.0), (4.0, 5.0)]
        a = paired_t_normalized(pairs)
        b = paired_t_normalized([(y, x) for x, y in pairs])
        assert b.t == pytest.approx(-a.t)
        assert b.p_two_sided == pytest.approx(a.p_two_sided)

    def test_degenerate_constant_ratio(self):
        r = paired_t_normalized([(1, 2), (2, 4), (3, 6)])
        assert r.t == -math.inf
        assert r.p_two_sided == 0.0

    def test_errors(self):
        with pytest.raises(TooFewPairs):
            paired_t_normalized([(1, 2)])
        with pytest.raises(NonPositiveValue):
            paired_t_normalized([(1, 2), (0, 3)])
        with pytest.raises(NonPositiveValue):
            paired_t_normalized([(1, 2), (4, -3)])

    @given(
        st.lists(
            st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)), min_size=2, max_size=50
        )
    )
    def test_pair_sum_identity(self, pairs):
        r = paired_t_normalized(pairs)
        assert r.mean_first_norm + r.mean_second_norm == pytest.approx(2.0, abs=1e-12)
        assert r.d_bar == pytest.approx(r.mean_first_norm - r.mean_second_norm, abs=1e-12)

    def test_sums_run_left_to_right(self):
        """Every sum adds its terms in order, one rounding per addition, as
        built-in sum() does up to Python 3.11; a compensated sum (math.fsum,
        or sum() from 3.12 on) moves the last bits of the results."""
        rng = np.random.default_rng(5)
        for n in (2, 7, 40, 400):
            pairs = [tuple(row) for row in rng.uniform(1e-3, 1e6, size=(n, 2)).tolist()]
            firsts = [a / ((a + b) / 2.0) for a, b in pairs]
            seconds = [b / ((a + b) / 2.0) for a, b in pairs]
            diffs = [f - s for f, s in zip(firsts, seconds)]
            total = {"first": 0.0, "second": 0.0, "diff": 0.0, "square": 0.0}
            for f, s, d in zip(firsts, seconds, diffs):
                total["first"] += f
                total["second"] += s
                total["diff"] += d
            d_bar = total["diff"] / n
            for d in diffs:
                total["square"] += (d - d_bar) ** 2
            r = paired_t_normalized(pairs)
            assert repr(r.mean_first_norm) == repr(total["first"] / n)
            assert repr(r.mean_second_norm) == repr(total["second"] / n)
            assert repr(r.d_bar) == repr(d_bar)
            assert repr(r.s) == repr(math.sqrt(total["square"] / (n - 1)))


class TestSpearman:
    def _ranks(self, values):
        return rank_ascending([float(v) for v in values])

    def test_identical_rankings(self):
        ranks = self._ranks(range(10))
        r = spearman_test(ranks, ranks)
        assert r.R == 0
        assert r.z == pytest.approx(-3.0)
        assert r.rho == pytest.approx(1.0)

    def test_reversed_rankings(self):
        x = self._ranks(range(10))
        y = self._ranks(range(10, 0, -1))
        r = spearman_test(x, y)
        assert r.R == 330
        assert r.z == pytest.approx(3.0)
        assert r.rho == pytest.approx(-1.0)

    @given(st.permutations(list(range(12))))
    def test_reversal_negates_z(self, perm):
        x = self._ranks(range(12))
        y = self._ranks(perm)
        y_rev = self._ranks([-v for v in perm])
        a = spearman_test(x, y)
        b = spearman_test(x, y_rev)
        assert b.z == pytest.approx(-a.z)
        # complementary R identity: R + R' = n(n^2-1)/3
        n = 12
        assert a.R + b.R == pytest.approx(n * (n**2 - 1) / 3)

    def test_parametric_identity(self):
        for n in range(10, 101):
            ranks = self._ranks(range(n))
            assert spearman_test(ranks, ranks).z == pytest.approx(
                -math.sqrt(n - 1), rel=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman_test(self._ranks(range(10)), self._ranks(range(11)))

    def test_rows_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman_rows(np.ones((2, 3)), np.ones((2, 4)))

    def test_row_without_pairs(self):
        x = np.array([[1.0, 2.0], [math.nan, math.nan]])
        with pytest.raises(EmptyInput):
            spearman_rows(x, x)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_one_row_calls(self, data):
        width = data.draw(st.integers(1, 14))
        n_rows = data.draw(st.integers(1, 5))
        x, y, kept = np.full((n_rows, width), np.nan), np.full((n_rows, width), np.nan), []
        for i in range(n_rows):
            columns = data.draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True))
            values = st.lists(st.integers(0, 4), min_size=len(columns), max_size=len(columns))
            x[i, columns] = reference_ranks(data.draw(values))
            y[i, columns] = reference_ranks(data.draw(values))
            kept.append(sorted(columns))
        rows = spearman_rows(x, y)
        singles = [spearman_test(x[i, c].tolist(), y[i, c].tolist()) for i, c in enumerate(kept)]
        assert [repr(r) for r in rows] == [repr(r) for r in singles]
        # half-integer ranks: R does not depend on the order of the columns
        order = data.draw(st.permutations(range(width)))
        permuted = spearman_rows(x[:, order], y[:, order])
        assert [repr(r) for r in permuted] == [repr(r) for r in rows]


class TestMrc:
    def test_perfect_agreement(self):
        r = mrc_test([[1, 2, 3], [1, 2, 3]])
        assert r.S == 4
        assert r.S_D == 8
        assert r.D1 == 4
        assert r.D2 == 0
        assert math.isinf(r.F)
        assert r.p == 0.0

    def test_perfect_disagreement(self):
        r = mrc_test([[1, 2, 3], [3, 2, 1]])
        assert r.S_D == 0
        assert r.F == 0
        assert r.p == 1.0

    def test_worked_example(self):
        r = mrc_test([[1, 2, 3], [2, 1, 3]])
        assert r.S_D == 6
        assert r.D1 == 3
        assert r.D2 == 1
        assert r.S1_sq == pytest.approx(1.5)
        assert r.S2_sq == pytest.approx(1 / 3)
        assert r.F == pytest.approx(4.5)
        assert r.df == (2, 3)

    def test_identity_decomposition(self):
        r = mrc_test([[1, 2, 3, 4], [2, 1, 4, 3], [1, 3, 2, 4]])
        assert r.S == pytest.approx(3 * 4 * 15 / 12)
        assert r.D1 + r.D2 == pytest.approx(r.S)

    def test_relabel_subjects_invariance(self):
        base = [[1, 2, 3, 4], [2, 1, 4, 3]]
        perm = [2, 0, 3, 1]
        relabeled = [[row[i] for i in perm] for row in base]
        assert mrc_test(base).F == pytest.approx(mrc_test(relabeled).F)

    def test_permute_judges_invariance(self):
        rows = [[1, 2, 3, 4], [2, 1, 4, 3], [4, 3, 2, 1]]
        assert mrc_test(rows).F == pytest.approx(mrc_test(rows[::-1]).F)

    def test_ties_allowed(self):
        r = mrc_test([[1.5, 1.5, 3], [1, 2, 3]])
        assert math.isfinite(r.F)

    def test_errors(self):
        with pytest.raises(RaggedMatrix):
            mrc_test([[1, 2, 3]])
        with pytest.raises(RaggedMatrix):
            mrc_test([[1, 2, 3], [1, 2]])
        with pytest.raises(InvalidRankRow):
            mrc_test([[1, 2, 3], [1, 1, 1]])
        with pytest.raises(InvalidRankRow):
            mrc_test([[1, 2, 3], [0, 2, 4]])

    def test_maximal_at_agreement_bruteforce(self):
        for k in range(2, 6):
            identity = list(range(1, k + 1))
            best = None
            for perm in itertools.permutations(identity):
                f = mrc_test([identity, list(perm)]).F
                if list(perm) == identity:
                    assert math.isinf(f)
                else:
                    assert math.isfinite(f)
                    best = f if best is None else max(best, f)
            assert best is None or math.isfinite(best)


def test_paired_t_twice_as_fast_interpretation():
    # first always takes half the time: means (2/3, 4/3), mean ratio 2
    r = paired_t_normalized([(w, 2 * w) for w in (3.0, 10.0, 47.0, 9.5)])
    assert r.mean_first_norm == pytest.approx(2 / 3)
    assert r.mean_second_norm == pytest.approx(4 / 3)
    assert r.mean_second_norm / r.mean_first_norm == pytest.approx(2.0)
