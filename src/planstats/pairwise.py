"""Matched-pair samples for two planners and the pairwise tests over them.

Pairs are built per problem at a level; an unsolved side receives the
WORST sentinel ("infinitely bad"), which the rank-based tests push to the
extreme of the ranking.  Consistency is tested with the Wilcoxon
matched-pairs rank-sum test plus a win-proportion Z-test; magnitude with
a pair-mean-normalized paired t-test restricted to double hits (problems
solved by both planners).  The consistency tests of a cell's pairs run in
one pass over its planner × problem grid (:func:`compare_pairs`); the
magnitude test runs per pair.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import Level, Manifest, NoProblems, QualityDirection, RunRecord, RunTable, SizeClass
from .distributions import DomainError
from .ranking import WORST, is_worst
from .stattests import (
    Favored,
    PairedTResult,
    ProportionResult,
    TooFewPairs,
    WilcoxonResult,
    paired_t_normalized,
    proportion_test,
    wilcoxon_rows,
)

# Wilcoxon normal approximation is meaningless below this many pairs;
# smaller comparisons are reported but flagged and barred from orderings.
MIN_REPORTABLE_PAIRS = 6

# conventional ladder used to annotate how strong a finding is
ALPHA_LADDER = (0.001, 0.01, 0.05)


class PlannerNotInLevel(ValueError):
    """The planner did not enter the requested level per the manifest."""


class PairingMode(enum.Enum):
    AT_LEAST_ONE = "at-least-one"
    DOUBLE_HITS = "double-hits"


class Measure(enum.Enum):
    SPEED = "speed"
    QUALITY_METRIC = "metric"
    QUALITY_SEQ = "seq"
    QUALITY_CONC = "conc"


# the run-record field each measure reads
MEASURE_FIELDS = {
    Measure.SPEED: "time_ms",
    Measure.QUALITY_METRIC: "metric_value",
    Measure.QUALITY_SEQ: "seq_length",
    Measure.QUALITY_CONC: "conc_length",
}


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of the consistency tests for one planner pair and measure."""

    planner_a: str
    planner_b: str
    level: Level
    measure: Measure
    mode: PairingMode
    size_class: SizeClass
    n: int
    wilcoxon: WilcoxonResult
    proportion: ProportionResult
    significant_at: float | None
    too_small: bool

    @property
    def favored_planner(self) -> str | None:
        if self.wilcoxon.favored is Favored.FIRST:
            return self.planner_a
        if self.wilcoxon.favored is Favored.SECOND:
            return self.planner_b
        return None

    @property
    def other_planner(self) -> str | None:
        fav = self.favored_planner
        if fav is None:
            return None
        return self.planner_b if fav == self.planner_a else self.planner_a

    @property
    def proportion_favored(self) -> str | None:
        if self.proportion.n == 0 or self.proportion.z == 0:
            return None
        return self.planner_a if self.proportion.z > 0 else self.planner_b


@dataclass(frozen=True)
class MagnitudeResult:
    """Normalized paired t-test over double hits for one pair and measure."""

    planner_a: str
    planner_b: str
    level: Level
    measure: Measure
    size_class: SizeClass
    n: int
    t_result: PairedTResult
    direction: QualityDirection


def _check_entered(manifest: Manifest, name: str, level: Level) -> None:
    if not manifest.entered(name, level):
        raise PlannerNotInLevel(f"planner {name!r} did not enter level {level.value}")


def _matched(runs, manifest, pairs, level, measure, mode, size_class, *, negate_maximize=True):
    """Each pair's values over the cell's problems as two pair × problem
    arrays, first and second planner, and which problems ``mode`` keeps.

    Maximize metrics are negated if asked, and a missing value is WORST.

    Raises:
        PlannerNotInLevel: if a planner of a pair did not enter the level.
        NoProblems: if the level/size class has no problem sets.
    """
    for pair in pairs:
        for name in pair:
            _check_entered(manifest, name, level)
    grid = RunTable.of(runs).grid(manifest, level, size_class)
    if not grid.spans:
        raise NoProblems(f"no {size_class.value} problem sets at level {level.value}")
    rows = [grid.rows[name] for pair in pairs for name in pair]
    values = grid.values[MEASURE_FIELDS[measure]][rows]
    if measure is Measure.QUALITY_METRIC and negate_maximize:
        values = np.where(grid.maximize, -values, values)
    values = np.where(np.isnan(values), WORST, values)
    va, vb = values[0::2], values[1::2]
    if mode is PairingMode.DOUBLE_HITS:
        keep = (va != WORST) & (vb != WORST)
    else:
        solved = grid.solved[rows]
        keep = solved[0::2] | solved[1::2]
    return va, vb, keep


def build_pairs(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    a: str,
    b: str,
    level: Level,
    measure: Measure,
    mode: PairingMode,
    size_class: SizeClass = SizeClass.SMALL,
    *,
    negate_maximize: bool = True,
) -> list[tuple[float, float]]:
    """Matched value pairs (value_a, value_b) over the level's problems.

    AT_LEAST_ONE yields one pair per problem solved by a or b, with WORST
    on an unsolved side (and on a solved side missing the quality field).
    DOUBLE_HITS keeps only problems where both sides have a finite value.
    Maximize-direction metrics are negated (unless ``negate_maximize`` is
    False) so that smaller is always better internally.

    Raises:
        PlannerNotInLevel: if either planner did not enter the level.
        NoProblems: if the level/size class has no problem sets.
    """
    va, vb, keep = _matched(
        runs, manifest, [(a, b)], level, measure, mode, size_class,
        negate_maximize=negate_maximize,
    )
    return list(zip(va[keep].tolist(), vb[keep].tolist()))


def pair_difference(va: float, vb: float) -> float:
    """Signed difference (value_b - value_a); positive favors the first planner.

    Built case-wise so WORST values never meet in arithmetic: a pair with
    exactly one WORST side becomes an infinite-magnitude win for the
    solver, and a double-WORST pair is a tie (zero).
    """
    worst_a = is_worst(va)
    worst_b = is_worst(vb)
    if worst_a and worst_b:
        return 0.0
    if worst_b:
        return math.inf
    if worst_a:
        return -math.inf
    return vb - va


def compare_pairs(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    pairs: Sequence[tuple[str, str]],
    level: Level,
    measure: Measure,
    mode: PairingMode,
    size_class: SizeClass = SizeClass.SMALL,
) -> list[ComparisonResult]:
    """:func:`compare` for every listed pair of one cell, in one pass.

    One pair × problem matrix holds each pair's signed differences, built
    by :func:`pair_difference`'s case rule, with the problems the pairing
    mode leaves out set to zero; :func:`wilcoxon_rows` ranks every row at
    once.  Returns one result per pair, in the order of ``pairs``.

    Raises:
        PlannerNotInLevel: if a planner of a pair did not enter the level.
        NoProblems: if the level/size class has no problem sets.
    """
    va, vb, keep = _matched(runs, manifest, pairs, level, measure, mode, size_class)
    worst_a, worst_b = va == WORST, vb == WORST
    with np.errstate(invalid="ignore"):
        diffs = np.where(worst_a, -math.inf, np.where(worst_b, math.inf, vb - va))
    diffs[(worst_a & worst_b) | ~keep] = 0.0
    n = keep.sum(axis=1).tolist()
    wins_a = (diffs > 0).sum(axis=1).tolist()
    wins_b = (diffs < 0).sum(axis=1).tolist()
    results = []
    for (a, b), wilcoxon, n_pair, won_a, won_b in zip(
        pairs, wilcoxon_rows(diffs, n), n, wins_a, wins_b
    ):
        if won_a + won_b == 0:
            proportion = ProportionResult(wins=0, n=0, z=0.0, p_two_sided=1.0)
        else:
            proportion = proportion_test(won_a, won_a + won_b)
        too_small = n_pair < MIN_REPORTABLE_PAIRS
        significant_at = None
        if not too_small:
            for alpha in ALPHA_LADDER:
                if wilcoxon.p_two_sided <= alpha:
                    significant_at = alpha
                    break
        results.append(
            ComparisonResult(
                planner_a=a,
                planner_b=b,
                level=level,
                measure=measure,
                mode=mode,
                size_class=size_class,
                n=n_pair,
                wilcoxon=wilcoxon,
                proportion=proportion,
                significant_at=significant_at,
                too_small=too_small,
            )
        )
    return results


def compare(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    a: str,
    b: str,
    level: Level,
    measure: Measure,
    mode: PairingMode,
    size_class: SizeClass = SizeClass.SMALL,
) -> ComparisonResult:
    """Consistency tests for a pair: Wilcoxon plus win-proportion Z-test.

    The Wilcoxon runs on the per-problem differences; the proportion test
    runs on the win counts with ties excluded from both wins and n.
    Samples below MIN_REPORTABLE_PAIRS are flagged ``too_small`` (they are
    reported, but barred from partial orders).
    """
    return compare_pairs(runs, manifest, [(a, b)], level, measure, mode, size_class)[0]


def magnitude(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    a: str,
    b: str,
    level: Level,
    measure: Measure,
    size_class: SizeClass = SizeClass.SMALL,
) -> MagnitudeResult:
    """Pair-mean-normalized paired t-test over double hits only.

    Values are used raw (no maximize negation): the normalization needs
    strictly positive inputs, so for maximize-direction metrics a
    normalized mean below 1 is the *worse* side and reports must invert
    the reading (the result carries the direction).

    Raises:
        TooFewPairs: with fewer than two double hits.
    """
    pairs = build_pairs(
        runs,
        manifest,
        a,
        b,
        level,
        measure,
        PairingMode.DOUBLE_HITS,
        size_class,
        negate_maximize=False,
    )
    if len(pairs) < 2:
        raise TooFewPairs(
            f"{a} vs {b} at {level.value}/{measure.value}: "
            f"{len(pairs)} double hits, need at least 2"
        )
    direction = QualityDirection.MINIMIZE
    if measure is Measure.QUALITY_METRIC:
        directions = {ps.quality_direction for ps in manifest.sets_at(level, size_class)}
        if directions == {QualityDirection.MAXIMIZE}:
            direction = QualityDirection.MAXIMIZE
    t_result = paired_t_normalized(pairs)
    return MagnitudeResult(
        planner_a=a,
        planner_b=b,
        level=level,
        measure=measure,
        size_class=size_class,
        n=len(pairs),
        t_result=t_result,
        direction=direction,
    )


def transitive_alpha(family_confidence: float, comparisons: int) -> float:
    """Per-comparison alpha giving a family confidence over k comparisons.

    Returns 1 - family_confidence**(1/comparisons), e.g. (0.95, 15) gives
    0.003414, so each pairwise test must pass a stricter level for the
    transitive picture to hold at 0.95.

    Raises:
        DomainError: unless 0 < family_confidence < 1 and comparisons >= 1.
    """
    if not (0.0 < family_confidence < 1.0):
        raise DomainError(f"family confidence must be in (0,1), got {family_confidence!r}")
    if comparisons < 1:
        raise DomainError(f"comparisons must be >= 1, got {comparisons!r}")
    return 1.0 - family_confidence ** (1.0 / comparisons)


def all_pairs(names: Sequence[str]) -> list[tuple[str, str]]:
    """Deterministic unordered pair enumeration (lexicographic)."""
    return list(itertools.combinations(sorted(names), 2))
