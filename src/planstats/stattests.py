"""The five core statistical tests used by the comparison pipeline.

All tests return structured results carrying the intermediate quantities
(rank sums, sums of squares, normalized means) as well as the statistic
and its two-sided p-value, so report renderers can show the same detail
as the published tables.  The matched-pairs rank-sum test also takes a
matrix with one row of differences per pair (:func:`wilcoxon_rows`), so a
cell's pairs are tested in one pass, and the Spearman test two rank
matrices (:func:`spearman_rows`), so a level's scaling pairs are too.

Sign conventions: a *positive* difference in the Wilcoxon test is a win
for the first subject; degenerate statistics (zero variance, perfect
agreement) are represented as infinite t/F with p = 0, never as errors
or warnings, because real competition data produces them.  The result
is their only statement: a caller counts them from the t and F it gets.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import (
    DomainError,
    f_cdf,
    two_sided_p_from_t,
    two_sided_p_from_z,
)
from .ranking import EmptyInput, mid_ranks


class Favored(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    NONE = "none"


class TooLarge(ValueError):
    """Exact enumeration requested for too many pairs."""


class NonPositiveValue(ValueError):
    """Paired t normalization needs strictly positive inputs."""


class TooFewPairs(ValueError):
    """At least two pairs are required."""


class LengthMismatch(ValueError):
    """Paired rank vectors must have equal length."""


class RaggedMatrix(ValueError):
    """All judges must rank the same number of subjects."""


class InvalidRankRow(ValueError):
    """A judge's row is not a valid rank vector over the subjects."""


@dataclass(frozen=True)
class WilcoxonResult:
    """Matched-pairs rank-sum test over signed differences.

    ``T`` is the smaller of the positive/negative rank sums and the z
    statistic is (m(m+1)/4 - T) / sqrt(m(m+1)(2m+1)/24) with m the number
    of nonzero differences.
    """

    n_input: int
    n_effective: int
    rank_sum_pos: float
    rank_sum_neg: float
    T: float
    z: float
    p_two_sided: float
    favored: Favored


@dataclass(frozen=True)
class ProportionResult:
    """Z-test of an observed win proportion against 1/2."""

    wins: int
    n: int
    z: float
    p_two_sided: float


@dataclass(frozen=True)
class PairedTResult:
    """Paired t-test on pair-mean-normalized values.

    Each pair is divided by its own mean, so the two normalized means sum
    to 2 and a mean below 1 is the smaller-valued (for costs: better)
    side.  ``t`` is +/-inf when the differences have zero variance but a
    nonzero mean.
    """

    n: int
    df: int
    mean_first_norm: float
    mean_second_norm: float
    d_bar: float
    s: float
    t: float
    p_two_sided: float


@dataclass(frozen=True)
class SpearmanResult:
    """Rank correlation test; R is the sum of squared rank differences.

    z = (6R - n(n^2-1)) / (n(n+1) sqrt(n-1)); note z = -rho * sqrt(n-1),
    so perfect positive correlation gives a *negative* z.
    """

    n: int
    R: float
    z: float
    p_two_sided: float

    @property
    def rho(self) -> float:
        """Rank correlation coefficient implied by the statistic (-z/sqrt(n-1))."""
        if self.n < 2:
            return 0.0
        return -self.z / math.sqrt(self.n - 1)


@dataclass(frozen=True)
class MrcResult:
    """Rank correlation for agreement in multiple judgements (an F-test).

    n judges rank k subjects; F = S1^2 / S2^2 follows F(k-1, k(n-1))
    under the null of no agreement.  Perfect agreement gives F = inf.
    """

    n_judges: int
    k_subjects: int
    S: float
    S_D: float
    D1: float
    D2: float
    S1_sq: float
    S2_sq: float
    F: float
    df: tuple[int, int]
    p: float


def wilcoxon_matched_pairs(differences: Sequence[float]) -> WilcoxonResult:
    """Wilcoxon matched-pairs rank-sum test on signed differences.

    Zero differences are dropped before ranking; the remaining absolute
    differences are ranked with mid-rank ties (+/-inf magnitudes tie at
    the top, implementing the infinitely-bad convention for unsolved
    instances).  If every difference is zero the result is favored NONE
    with z = 0 and p = 1.  This is a one-row call of :func:`wilcoxon_rows`.

    Raises:
        EmptyInput: if no differences are supplied.
        DomainError: if a difference is NaN.
    """
    if len(differences) == 0:
        raise EmptyInput("wilcoxon_matched_pairs needs at least one difference")
    row = np.array([differences], dtype=float)
    if np.isnan(row).any():
        raise DomainError("differences must not contain NaN")
    return wilcoxon_rows(row, [len(differences)])[0]


def wilcoxon_rows(differences: np.ndarray, n_input: Sequence[int]) -> list[WilcoxonResult]:
    """The matched-pairs rank-sum test of each row of a difference matrix.

    Zero entries are dropped, so a row with fewer differences than the
    matrix is wide pads with zeros; ``n_input[i]`` is the number of
    differences row i stands for.  One :func:`mid_ranks` call ranks every
    row's nonzero absolute differences.  Ranks are half-integers, so
    the rank sums are exact in any summation order, and each row's z and
    p go through the same scalar formulas as a single test.
    """
    magnitudes = np.abs(differences)
    nonzero = magnitudes != 0.0
    ranks = mid_ranks(np.where(nonzero, magnitudes, np.nan))
    w_pos = np.where(differences > 0, ranks, 0.0).sum(axis=1)
    w_neg = np.where(differences < 0, ranks, 0.0).sum(axis=1)
    m = nonzero.sum(axis=1)
    return [
        _wilcoxon_result(n, effective, pos, neg)
        for n, effective, pos, neg in zip(n_input, m.tolist(), w_pos.tolist(), w_neg.tolist())
    ]


def _wilcoxon_result(n_input: int, m: int, w_pos: float, w_neg: float) -> WilcoxonResult:
    """The test's statistic, p and direction from the rank sums of m
    nonzero differences."""
    if m == 0:
        return WilcoxonResult(n_input, 0, 0.0, 0.0, 0.0, 0.0, 1.0, Favored.NONE)
    t_stat = min(w_pos, w_neg)
    mean_t = m * (m + 1) / 4.0
    sd_t = math.sqrt(m * (m + 1) * (2 * m + 1) / 24.0)
    z = (mean_t - t_stat) / sd_t
    if w_pos > w_neg:
        favored = Favored.FIRST
    elif w_neg > w_pos:
        favored = Favored.SECOND
    else:
        favored = Favored.NONE
    return WilcoxonResult(
        n_input=n_input,
        n_effective=m,
        rank_sum_pos=w_pos,
        rank_sum_neg=w_neg,
        T=t_stat,
        z=z,
        p_two_sided=two_sided_p_from_z(z),
        favored=favored,
    )


def wilcoxon_exact_p(differences: Sequence[float], mid_p: bool = True) -> float:
    """Exact two-sided p for the matched-pairs rank-sum test.

    Enumerates the 2^m equally likely sign assignments of the ranked
    magnitudes (aggregated by a subset-sum count over doubled ranks,
    which gives the identical distribution) and measures how extreme the
    observed smaller rank sum T is.

    By default sign assignments tying the observed T count half (the
    mid-p convention), which is the right reference when calibrating the
    continuous normal approximation: the uncorrected normal p then agrees
    within 0.02 for every input with 10 <= m <= 20.  With ``mid_p=False``
    the classical inclusive probability of a result at least as extreme
    is returned (a single +1 difference gives 1.0, five equal positive
    differences give 2/32).

    Raises:
        TooLarge: if more than 20 nonzero differences are supplied.
        EmptyInput: if no differences are supplied.
    """
    if len(differences) == 0:
        raise EmptyInput("wilcoxon_exact_p needs at least one difference")
    nonzero = [d for d in differences if d != 0.0]
    m = len(nonzero)
    if m > 20:
        raise TooLarge(f"exact enumeration limited to 20 nonzero differences, got {m}")
    if m == 0:
        return 1.0
    ranks = mid_ranks([[abs(d) for d in nonzero]])[0].tolist()
    # mid-ranks over m items are multiples of 1/2: double to get integers
    doubled = [round(2 * r) for r in ranks]
    total = m * (m + 1)  # sum of doubled ranks
    w_pos = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    t_obs_doubled = round(2 * min(w_pos, sum(ranks) - w_pos))
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    below = sum(c for s, c in enumerate(counts) if min(s, total - s) < t_obs_doubled)
    equal = sum(c for s, c in enumerate(counts) if min(s, total - s) == t_obs_doubled)
    if mid_p:
        return (below + 0.5 * equal) / float(2**m)
    return (below + equal) / float(2**m)


def proportion_test(wins: int, n: int) -> ProportionResult:
    """Z-test of ``wins`` successes in ``n`` trials against p0 = 1/2.

    Raises:
        DomainError: unless 0 <= wins <= n and n >= 1.
    """
    if n < 1 or not (0 <= wins <= n):
        raise DomainError(f"need 0 <= wins <= n with n >= 1, got wins={wins}, n={n}")
    z = (wins / n - 0.5) / math.sqrt(0.25 / n)
    return ProportionResult(wins=wins, n=n, z=z, p_two_sided=two_sided_p_from_z(z))


def _sum_in_order(values: Iterable[float]) -> float:
    """Floats added left to right.  Built-in ``sum`` compensates float
    rounding from Python 3.12 on, so its last bits depend on the version."""
    return functools.reduce(operator.add, values, 0.0)


def paired_t_normalized(pairs: Sequence[tuple[float, float]]) -> PairedTResult:
    """Paired t-test on values normalized by each pair's mean.

    Each (first, second) pair is divided by its own mean so the pair sums
    to 2; the t statistic is d_bar / (s / sqrt(n)) on the normalized
    differences, with n - 1 degrees of freedom.

    Raises:
        TooFewPairs: if fewer than two pairs are supplied.
        NonPositiveValue: if any value is not strictly positive.
    """
    n = len(pairs)
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    firsts = []
    seconds = []
    for a, b in pairs:
        if not (a > 0 and b > 0) or math.isinf(a) or math.isinf(b):
            raise NonPositiveValue(f"pair values must be finite and > 0, got ({a!r}, {b!r})")
        mean = (a + b) / 2.0
        firsts.append(a / mean)
        seconds.append(b / mean)
    mean_first = _sum_in_order(firsts) / n
    mean_second = _sum_in_order(seconds) / n
    diffs = [f - s for f, s in zip(firsts, seconds)]
    d_bar = _sum_in_order(diffs) / n
    s2 = _sum_in_order((d - d_bar) ** 2 for d in diffs) / (n - 1)
    s = math.sqrt(s2)
    df = n - 1
    if s == 0.0:
        if d_bar == 0.0:
            t = 0.0
            p = 1.0
        else:
            t = math.copysign(math.inf, d_bar)
            p = 0.0
    else:
        t = d_bar / (s / math.sqrt(n))
        p = two_sided_p_from_t(t, df)
    return PairedTResult(
        n=n,
        df=df,
        mean_first_norm=mean_first,
        mean_second_norm=mean_second,
        d_bar=d_bar,
        s=s,
        t=t,
        p_two_sided=p,
    )


def spearman_test(x_ranks: Sequence[float], y_ranks: Sequence[float]) -> SpearmanResult:
    """Spearman rank correlation test on two parallel rank vectors.

    R is the sum of squared per-position rank differences and
    z = (6R - n(n^2-1)) / (n(n+1) sqrt(n-1)).  This is a one-row call of
    :func:`spearman_rows`.

    Raises:
        LengthMismatch: if the vectors differ in length.
        EmptyInput: if the vectors are empty.
    """
    if len(x_ranks) != len(y_ranks):
        raise LengthMismatch(f"rank vectors differ in length: {len(x_ranks)} vs {len(y_ranks)}")
    if len(x_ranks) == 0:
        raise EmptyInput("spearman_test needs at least one pair of ranks")
    return spearman_rows(np.array([x_ranks], dtype=float), np.array([y_ranks], dtype=float))[0]


def spearman_rows(x_ranks: np.ndarray, y_ranks: np.ndarray) -> list[SpearmanResult]:
    """The Spearman test of each row pair of two rank matrices.

    NaN marks a left-out position, at the same places in both matrices;
    row i is the test of the two rows' other entries.  Ranks are
    half-integers, so each R is exact in any summation order, and each
    row's z and p go through the same scalar formulas as a single test.

    Raises:
        LengthMismatch: if the matrices differ in shape.
        EmptyInput: if a row has no pair of ranks.
    """
    if x_ranks.shape != y_ranks.shape:
        raise LengthMismatch(f"rank matrices differ in shape: {x_ranks.shape} vs {y_ranks.shape}")
    ns = (~np.isnan(x_ranks)).sum(axis=1).tolist()
    if 0 in ns:
        raise EmptyInput("spearman_rows needs at least one pair of ranks in each row")
    big_rs = np.nansum((x_ranks - y_ranks) ** 2, axis=1).tolist()
    # a constant rank vector (everything tied, or n = 1) carries no
    # ordering information; the untied-rank z formula would report a
    # spurious correlation there, so report zero correlation instead
    constant = (np.nanmin(x_ranks, axis=1) == np.nanmax(x_ranks, axis=1)) | (
        np.nanmin(y_ranks, axis=1) == np.nanmax(y_ranks, axis=1)
    )
    results = []
    for n, big_r, degenerate in zip(ns, big_rs, constant.tolist()):
        if degenerate:
            z = 0.0
        else:
            z = (6.0 * big_r - n * (n**2 - 1)) / (n * (n + 1) * math.sqrt(n - 1))
        results.append(SpearmanResult(n=n, R=big_r, z=z, p_two_sided=two_sided_p_from_z(z)))
    return results


def mrc_test(rank_matrix: Sequence[Sequence[float]]) -> MrcResult:
    """Rank correlation test for agreement in multiple judgements.

    ``rank_matrix`` has one row per judge, one column per subject; each
    row must be a valid rank vector over the subjects (mid-rank ties
    allowed).  Computes S = nK(K^2-1)/12, the between-subjects sum of
    squares S_D over the subjects' rank totals, D1 = S_D/n, D2 = S - D1,
    and F = (D1/(K-1)) / (D2/(K(n-1))) with df (K-1, K(n-1)).  Perfect
    agreement gives D2 = 0 and F = inf with p = 0.

    Raises:
        RaggedMatrix: if rows differ in length or there are < 2 of either.
        InvalidRankRow: if a row is not a rank vector over the subjects.
    """
    n = len(rank_matrix)
    if n < 2:
        raise RaggedMatrix(f"need at least 2 judges, got {n}")
    k = len(rank_matrix[0])
    if k < 2:
        raise RaggedMatrix(f"need at least 2 subjects, got {k}")
    expected_sum = k * (k + 1) / 2.0
    for i, row in enumerate(rank_matrix):
        if len(row) != k:
            raise RaggedMatrix(f"judge {i} ranked {len(row)} subjects, expected {k}")
        if any(not (1.0 <= r <= k) for r in row):
            raise InvalidRankRow(f"judge {i}: ranks must lie in [1, {k}]")
        if abs(sum(row) - expected_sum) > 1e-9 * max(1.0, expected_sum):
            raise InvalidRankRow(
                f"judge {i}: rank sum {sum(row)} != {expected_sum} (not a valid ranking)"
            )
    s_total = n * k * (k**2 - 1) / 12.0
    totals = [sum(rank_matrix[i][j] for i in range(n)) for j in range(k)]
    grand_mean = sum(totals) / k
    s_d = sum((t - grand_mean) ** 2 for t in totals)
    d1 = s_d / n
    d2 = s_total - d1
    # ties only reduce within-judge spread, so d2 >= 0 up to rounding
    d2 = max(d2, 0.0)
    df = (k - 1, k * (n - 1))
    s1_sq = d1 / (k - 1)
    s2_sq = d2 / (k * (n - 1))
    if d2 == 0.0:
        f_stat = math.inf if d1 > 0 else 0.0
        p = 0.0 if d1 > 0 else 1.0
    else:
        f_stat = s1_sq / s2_sq
        p = 1.0 - f_cdf(f_stat, df[0], df[1])
    return MrcResult(
        n_judges=n,
        k_subjects=k,
        S=s_total,
        S_D=s_d,
        D1=d1,
        D2=d2,
        S1_sq=s1_sq,
        S2_sq=s2_sq,
        F=f_stat,
        df=df,
        p=p,
    )
