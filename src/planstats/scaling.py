"""Relative scaling comparison gated on agreement about difficulty.

Two planners are compared only over domains where their Easy/Hard/Neither
verdicts coincide (and at least two such domains exist).  The pooled
problems are ranked by agreed difficulty (mean judge rank across the
category's planners) and the per-problem performance differences are
rank-correlated with that difficulty ranking; the sign of the correlation
says whose cost grows faster.

A level's pairs are compared in one pass (:func:`scaling_comparisons`):
one :func:`mid_ranks` call ranks every pair's differences, one ranks the
agreed difficulty of each distinct set of eligible domains, and one
:func:`spearman_rows` call tests them; :func:`scaling_comparison` is its
one-pair call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .agreement import judge_rank_rows
from .dataio import Category, Level, Manifest, NoProblems, RunRecord, RunTable, SizeClass
from .hardness import DEFAULT_CUTOFF_MS, HardnessVerdict, clamped_times
from .ranking import mid_ranks, rank_ascending
from .stattests import SpearmanResult, spearman_rows

DEFAULT_ALPHA = 0.05
MIN_AGREED_DOMAINS = 2


class EmptyDomainList(ValueError):
    """A difficulty ranking needs at least one domain."""


class Verdict(enum.Enum):
    A_SCALES_BETTER = "a-scales-better"
    B_SCALES_BETTER = "b-scales-better"
    NO_DIFFERENCE = "no-difference"
    INCOMPARABLE = "incomparable"


class IncomparableReason(enum.Enum):
    NO_SHARED_TRACK = "no-shared-track"
    INSUFFICIENT_AGREEMENT = "insufficient-agreement"


@dataclass(frozen=True)
class ScalingResult:
    planner_a: str
    planner_b: str
    level: Level
    eligible_domains: tuple[str, ...]
    n: int
    spearman: SpearmanResult | None
    verdict: Verdict
    reason: IncomparableReason | None


def eligible_domains(
    verdicts_a: Mapping[str, HardnessVerdict],
    verdicts_b: Mapping[str, HardnessVerdict],
) -> list[str]:
    """Domains where both planners received the same classification."""
    shared = set(verdicts_a) & set(verdicts_b)
    return sorted(
        d for d in shared if verdicts_a[d].classification == verdicts_b[d].classification
    )


def agreed_difficulty(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    level: Level,
    category: Category,
    size_class: SizeClass = SizeClass.SMALL,
) -> dict[str, list[float]]:
    """Agreed difficulty score of every problem at a level, keyed by domain.

    One entry per problem set at (level, size class), in the set's
    problem order; a problem's score is the mean of its judge ranks across
    the category's planners that entered the level.  The scores belong to
    the level, so compute them once and pass them to
    :func:`scaling_comparisons`.
    """
    judges = [p.name for p in manifest.planners_in(category, level)]
    runs = RunTable.of(runs)
    scores: dict[str, list[float]] = {}
    for ps in manifest.sets_at(level=level, size_class=size_class):
        if judges:
            # half-integer ranks: the column sums are exact in any order
            ranks = judge_rank_rows(runs, manifest, judges, ps.domain, level, size_class)
            scores[ps.domain] = (ranks.sum(axis=0) / len(judges)).tolist()
        else:
            scores[ps.domain] = []
    return scores


def difficulty_ranking(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    level: Level,
    domains: Sequence[str],
    category: Category,
    size_class: SizeClass = SizeClass.SMALL,
) -> tuple[float, ...]:
    """Agreed difficulty ranking of the pooled problems at a level.

    The problems of ``domains``, in that order and each domain's sets in
    manifest problem order, ranked ascending by their
    :func:`agreed_difficulty` scores.

    Raises:
        EmptyDomainList: if no domains are given.
    """
    if not domains:
        raise EmptyDomainList("difficulty_ranking needs at least one domain")
    difficulty = agreed_difficulty(runs, manifest, level, category, size_class)
    return rank_ascending([score for domain in domains for score in difficulty[domain]])


def scaling_comparison(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    a: str,
    b: str,
    level: Level,
    hardness: Mapping[str, Mapping[str, HardnessVerdict]],
    difficulty: Mapping[str, Sequence[float]],
    size_class: SizeClass = SizeClass.SMALL,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    alpha: float = DEFAULT_ALPHA,
) -> ScalingResult:
    """Relative scaling verdict for a pair of planners at a level: the
    one-pair call of :func:`scaling_comparisons`."""
    return scaling_comparisons(
        runs, manifest, [(a, b)], level, hardness, difficulty, size_class, cutoff_ms, alpha
    )[0]


def scaling_comparisons(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    pairs: Sequence[tuple[str, str]],
    level: Level,
    hardness: Mapping[str, Mapping[str, HardnessVerdict]],
    difficulty: Mapping[str, Sequence[float]],
    size_class: SizeClass = SizeClass.SMALL,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    alpha: float = DEFAULT_ALPHA,
) -> list[ScalingResult]:
    """Relative scaling verdict for each pair of planners at a level, in
    pair order.

    ``hardness`` maps planner -> domain -> HardnessVerdict at this level;
    ``difficulty`` is the level's :func:`agreed_difficulty`.
    Ineligibility is a result, not an error: planners without a shared
    track are Incomparable(NO_SHARED_TRACK) and pairs agreeing in fewer
    than two domains are Incomparable(INSUFFICIENT_AGREEMENT).  Otherwise
    the per-problem differences (time_a - time_b, unsolved paying the
    cutoff) are ranked and correlated with the agreed difficulty ranking
    of the pooled problems; a correlation showing a's cost growing faster
    yields B_SCALES_BETTER and vice versa.

    The pooled problems are the grid columns of the pair's eligible
    domains; ranks and rank sums do not depend on the columns' order.

    Raises:
        NoProblems: if an eligible domain has no problem set at the level
            and size class, or ``difficulty`` does not score that set.
    """
    results: list[ScalingResult | None] = []
    tested = []
    for a, b in pairs:
        if not (manifest.entered(a, level) and manifest.entered(b, level)):
            reason, domains = IncomparableReason.NO_SHARED_TRACK, ()
        else:
            domains = tuple(eligible_domains(hardness.get(a, {}), hardness.get(b, {})))
            if len(domains) < MIN_AGREED_DOMAINS:
                reason = IncomparableReason.INSUFFICIENT_AGREEMENT
            else:
                tested.append((len(results), a, b, domains))
                results.append(None)
                continue
        results.append(ScalingResult(a, b, level, domains, 0, None, Verdict.INCOMPARABLE, reason))
    if not tested:
        return results

    grid = RunTable.of(runs).grid(manifest, level, size_class)
    times = clamped_times(grid.values["time_ms"], cutoff_ms)
    keys = {domains: k for k, domains in enumerate(dict.fromkeys(t[3] for t in tested))}
    scores = np.full(times.shape[1], np.nan)
    for domain in dict.fromkeys(d for domains in keys for d in domains):
        span = grid.span(domain)
        if len(difficulty.get(domain, ())) != span.stop - span.start:
            raise NoProblems(
                f"the agreed difficulty does not score the {size_class.value} "
                f"problem set of {domain}/{level.value}"
            )
        scores[span] = difficulty[domain]
    # one row per distinct set of eligible domains: which columns it pools
    column_domain = np.empty(times.shape[1], dtype=int)
    for j, span in enumerate(grid.spans.values()):
        column_domain[span] = j
    member = np.array([[domain in domains for domain in grid.spans] for domains in keys])
    pooled = member[:, column_domain]
    difficulty_ranks = mid_ranks(np.where(pooled, scores, np.nan))
    rows = [keys[domains] for _, _, _, domains in tested]
    differences = (
        times[[grid.rows[a] for _, a, _, _ in tested]]
        - times[[grid.rows[b] for _, _, b, _ in tested]]
    )
    difference_ranks = mid_ranks(np.where(pooled[rows], differences, np.nan))
    for (i, a, b, domains), spearman in zip(
        tested, spearman_rows(difficulty_ranks[rows], difference_ranks)
    ):
        if spearman.p_two_sided <= alpha and spearman.z != 0.0:
            # z = -rho*sqrt(n-1): positive rho (z < 0) means (a - b) grows
            # with difficulty, i.e. b scales better
            verdict = Verdict.B_SCALES_BETTER if spearman.z < 0 else Verdict.A_SCALES_BETTER
        else:
            verdict = Verdict.NO_DIFFERENCE
        results[i] = ScalingResult(a, b, level, domains, spearman.n, spearman, verdict, None)
    return results
