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
from .hardness import DEFAULT_CUTOFF_MS, HardnessVerdict
from .ranking import RankVector, rank_ascending
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


def difficulty_ranking(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    level: Level,
    domains: Sequence[str],
    category: Category,
    size_class: SizeClass = SizeClass.SMALL,
) -> RankVector:
    """Agreed difficulty ranking of the pooled problems at a level.

    Each problem's difficulty score is the mean of its judge ranks across
    the category's planners that entered the level; the pooled problems
    (in :func:`pooled_problems` order) are then ranked ascending by score.

    Raises:
        EmptyDomainList: if no domains are given.
    """
    if not domains:
        raise EmptyDomainList("difficulty_ranking needs at least one domain")
    judges = [p.name for p in manifest.planners_in(category, level)]
    runs = RunTable.of(runs)
    scores: list[float] = []
    for domain in domains:
        per_judge = [
            list(judge_ranks(runs, manifest, j, domain, level, size_class)) for j in judges
        ]
        k = len(per_judge[0])
        for i in range(k):
            scores.append(sum(ranks[i] for ranks in per_judge) / len(per_judge))
    return rank_ascending(scores)


def _clamped_time(
    runs: RunTable, planner: str, domain: str, level: Level, problem: str, cutoff_ms: int
) -> float:
    t = runs.solve_time(planner, domain, level, problem)
    return float(cutoff_ms) if t is None else min(t, float(cutoff_ms))


def scaling_comparison(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    a: str,
    b: str,
    level: Level,
    hardness: Mapping[str, Mapping[str, HardnessVerdict]],
    category: Category,
    size_class: SizeClass = SizeClass.SMALL,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    alpha: float = DEFAULT_ALPHA,
    require_rank_agreement: bool = False,
) -> ScalingResult:
    """Relative scaling verdict for a pair of planners at a level.

    ``hardness`` maps planner -> domain -> HardnessVerdict at this level.
    Ineligibility is a result, not an error: planners without a shared
    track are Incomparable(NO_SHARED_TRACK) and pairs agreeing in fewer
    than two domains are Incomparable(INSUFFICIENT_AGREEMENT).  Otherwise
    the per-problem differences (time_a - time_b, unsolved paying the
    cutoff) are ranked and correlated with the agreed difficulty ranking;
    a correlation showing a's cost growing faster yields
    B_SCALES_BETTER and vice versa.

    With ``require_rank_agreement`` the pair must additionally show a
    significant positive correlation between their own problem rankings,
    else the result is Incomparable(INSUFFICIENT_AGREEMENT).
    """
    entry_a = manifest.planner(a)
    entry_b = manifest.planner(b)
    if (
        entry_a is None
        or entry_b is None
        or level not in entry_a.levels_entered
        or level not in entry_b.levels_entered
    ):
        return ScalingResult(
            planner_a=a,
            planner_b=b,
            level=level,
            eligible_domains=(),
            n=0,
            spearman=None,
            verdict=Verdict.INCOMPARABLE,
            reason=IncomparableReason.NO_SHARED_TRACK,
        )
    domains = eligible_domains(hardness.get(a, {}), hardness.get(b, {}))
    if len(domains) < MIN_AGREED_DOMAINS:
        return ScalingResult(
            planner_a=a,
            planner_b=b,
            level=level,
            eligible_domains=tuple(domains),
            n=0,
            spearman=None,
            verdict=Verdict.INCOMPARABLE,
            reason=IncomparableReason.INSUFFICIENT_AGREEMENT,
        )
    problems = pooled_problems(manifest, level, domains, size_class)
    runs = RunTable.of(runs)
    times_a = [_clamped_time(runs, a, d, level, p, cutoff_ms) for d, p in problems]
    times_b = [_clamped_time(runs, b, d, level, p, cutoff_ms) for d, p in problems]
    if require_rank_agreement:
        own = spearman_test(rank_ascending(times_a), rank_ascending(times_b))
        # agreement means significant positive correlation (z < 0)
        if not (own.p_two_sided <= alpha and own.z < 0):
            return ScalingResult(
                planner_a=a,
                planner_b=b,
                level=level,
                eligible_domains=tuple(domains),
                n=len(problems),
                spearman=None,
                verdict=Verdict.INCOMPARABLE,
                reason=IncomparableReason.INSUFFICIENT_AGREEMENT,
            )
    difficulty = difficulty_ranking(runs, manifest, level, domains, category, size_class)
    differences = [ta - tb for ta, tb in zip(times_a, times_b)]
    result = spearman_test(difficulty, rank_ascending(differences))
    if result.p_two_sided <= alpha and result.z != 0.0:
        # z = -rho*sqrt(n-1): positive rho (z < 0) means (a - b) grows
        # with difficulty, i.e. b scales better
        verdict = Verdict.B_SCALES_BETTER if result.z < 0 else Verdict.A_SCALES_BETTER
    else:
        verdict = Verdict.NO_DIFFERENCE
    return ScalingResult(
        planner_a=a,
        planner_b=b,
        level=level,
        eligible_domains=tuple(domains),
        n=len(problems),
        spearman=result,
        verdict=verdict,
        reason=None,
    )
