"""Relative scaling comparison gated on agreement about difficulty.

Two planners are compared only over domains where their Easy/Hard/Neither
verdicts coincide (and at least two such domains exist).  The pooled
problems are ranked by agreed difficulty (mean judge rank across the
category's planners) and the per-problem performance differences are
rank-correlated with that difficulty ranking; the sign of the correlation
says whose cost grows faster.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .agreement import judge_ranks
from .dataio import Category, Level, Manifest, RunRecord, RunTable, SizeClass
from .hardness import DEFAULT_CUTOFF_MS, HardnessVerdict, clamped_times
from .ranking import mid_ranks, rank_ascending
from .stattests import SpearmanResult, spearman_test

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


def pooled_problems(
    manifest: Manifest,
    level: Level,
    domains: Sequence[str],
    size_class: SizeClass = SizeClass.SMALL,
) -> list[tuple[str, str]]:
    """Deterministic (domain, problem) pooling order across domains."""
    out = []
    for domain in domains:
        for ps in manifest.sets_at(level=level, size_class=size_class, domain=domain):
            out.extend((domain, p) for p in ps.problems)
    return out


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
    the level, so compute them once and pass them to every
    :func:`scaling_comparison` there.
    """
    judges = [p.name for p in manifest.planners_in(category, level)]
    runs = RunTable.of(runs)
    scores: dict[str, list[float]] = {}
    for ps in manifest.sets_at(level=level, size_class=size_class):
        per_judge = [judge_ranks(runs, manifest, j, ps.domain, level, size_class) for j in judges]
        scores[ps.domain] = [sum(ranks) / len(judges) for ranks in zip(*per_judge)]
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

    The pooled problems (in :func:`pooled_problems` order) ranked
    ascending by their :func:`agreed_difficulty` scores.

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
    """Relative scaling verdict for a pair of planners at a level.

    ``hardness`` maps planner -> domain -> HardnessVerdict at this level;
    ``difficulty`` is the level's :func:`agreed_difficulty`.
    Ineligibility is a result, not an error: planners without a shared
    track are Incomparable(NO_SHARED_TRACK) and pairs agreeing in fewer
    than two domains are Incomparable(INSUFFICIENT_AGREEMENT).  Otherwise
    the per-problem differences (time_a - time_b, unsolved paying the
    cutoff) are ranked and correlated with the agreed difficulty ranking
    of the pooled problems; a correlation showing a's cost growing faster
    yields B_SCALES_BETTER and vice versa.
    """

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
    # the pooled problems, in pooled_problems order
    pooled_difficulty = [score for domain in domains for score in difficulty[domain]]
    differences = [d for domain in domains for d in per_problem[grid.spans[domain]]]
    spearman = spearman_test(*mid_ranks([pooled_difficulty, differences]).tolist())
    if spearman.p_two_sided <= alpha and spearman.z != 0.0:
        # z = -rho*sqrt(n-1): positive rho (z < 0) means (a - b) grows
        # with difficulty, i.e. b scales better
        verdict = Verdict.B_SCALES_BETTER if spearman.z < 0 else Verdict.A_SCALES_BETTER
    else:
        verdict = Verdict.NO_DIFFERENCE
    return result(domains, None, len(differences), spearman, verdict)
