"""Matched-pair samples for two planners and the pairwise tests over them.

Pairs are built per problem at a level; an unsolved side receives the
WORST sentinel ("infinitely bad"), which the rank-based tests push to the
extreme of the ranking.  Consistency is tested with the Wilcoxon
matched-pairs rank-sum test plus a win-proportion Z-test; magnitude with
a pair-mean-normalized paired t-test restricted to double hits (problems
solved by both planners).  The consistency tests of a cell's pairs, in
both pairing modes, run in one pass over its planner × problem grid
(:func:`compare_pairs`); the magnitude test runs per pair.
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
from .ranking import WORST
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


def _matched(runs, manifest, pairs, level, measure, size_class):
    """Each pair's values over the cell's problems as two pair × problem
    arrays, first and second planner, each pairing mode's mask of the
    problems it keeps, and the mask of the problems where a larger value
    is better (only a maximize metric's).

    Values are as recorded, and a missing value is WORST.

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
    values = np.where(np.isnan(values), WORST, values)
    va, vb = values[0::2], values[1::2]
    solved = grid.solved[rows]
    keeps = {
        PairingMode.AT_LEAST_ONE: solved[0::2] | solved[1::2],
        PairingMode.DOUBLE_HITS: (va != WORST) & (vb != WORST),
    }
    maximize = grid.maximize if measure is Measure.QUALITY_METRIC else False
    return va, vb, keeps, maximize


def build_pairs(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    a: str,
    b: str,
    level: Level,
    measure: Measure,
    mode: PairingMode,
    size_class: SizeClass = SizeClass.SMALL,
) -> list[tuple[float, float]]:
    """Matched value pairs (value_a, value_b) over the level's problems,
    as recorded, whichever direction is better.

    AT_LEAST_ONE yields one pair per problem solved by a or b, with WORST
    on an unsolved side (and on a solved side missing the quality field).
    DOUBLE_HITS keeps only problems where both sides have a finite value.

    Raises:
        PlannerNotInLevel: if either planner did not enter the level.
        NoProblems: if the level/size class has no problem sets.
    """
    va, vb, keeps, _ = _matched(runs, manifest, [(a, b)], level, measure, size_class)
    return list(zip(va[keeps[mode]].tolist(), vb[keeps[mode]].tolist()))


def compare_pairs(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    pairs: Sequence[tuple[str, str]],
    level: Level,
    measure: Measure,
    size_class: SizeClass = SizeClass.SMALL,
) -> tuple[list[ComparisonResult], list[ComparisonResult]]:
    """:func:`compare` for every listed pair of one cell, in both pairing
    modes, in one pass.

    Each pair's signed difference on a problem is value_b - value_a, or
    value_a - value_b where a larger value is better, so a positive one
    favors the first planner.  It is built case-wise, so
    WORST values never meet in arithmetic: a pair with exactly one WORST
    side is an infinite-magnitude win for the solver, and a pair with two
    WORST sides ties at zero.  The pair × problem difference matrix is
    stacked once per pairing mode, with the problems that mode leaves out
    set to zero, and :func:`wilcoxon_rows` ranks every row at once.

    Returns:
        The at-least-one results and the double-hits results, each with
        one result per pair, in the order of ``pairs``.

    Raises:
        PlannerNotInLevel: if a planner of a pair did not enter the level.
        NoProblems: if the level/size class has no problem sets.
    """
    va, vb, keeps, maximize = _matched(runs, manifest, pairs, level, measure, size_class)
    worst_a, worst_b = va == WORST, vb == WORST
    with np.errstate(invalid="ignore"):
        finite = np.where(maximize, va - vb, vb - va)
        diffs = np.where(worst_a, -math.inf, np.where(worst_b, math.inf, finite))
    diffs[worst_a & worst_b] = 0.0
    keep = np.concatenate([keeps[mode] for mode in PairingMode])
    diffs = np.where(keep, np.concatenate([diffs] * len(PairingMode)), 0.0)
    n = keep.sum(axis=1).tolist()
    wins_a = (diffs > 0).sum(axis=1).tolist()
    wins_b = (diffs < 0).sum(axis=1).tolist()
    results = []
    for (mode, (a, b)), wilcoxon, n_pair, won_a, won_b in zip(
        itertools.product(PairingMode, pairs), wilcoxon_rows(diffs, n), n, wins_a, wins_b
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
    return results[: len(pairs)], results[len(pairs):]


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
    alo, dh = compare_pairs(runs, manifest, [(a, b)], level, measure, size_class)
    return (alo if mode is PairingMode.AT_LEAST_ONE else dh)[0]


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

    Values are used as recorded: the normalization needs
    strictly positive inputs, so for maximize-direction metrics a
    normalized mean below 1 is the *worse* side and reports must invert
    the reading (the result carries the direction).

    Raises:
        TooFewPairs: with fewer than two double hits.
    """
    pairs = build_pairs(runs, manifest, a, b, level, measure, PairingMode.DOUBLE_HITS, size_class)
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
