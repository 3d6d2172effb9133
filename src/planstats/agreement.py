"""Multi-judge agreement: do planners rank problems in the same order?

For each (domain, level, size class) cell, the planners act as judges
ranking the problem instances by solve time; unsolved problems are pushed
to the top end of the ranking as mutual ties.  Agreement is tested with
the multiple-judgements rank correlation F-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import Category, Level, Manifest, RunRecord, RunTable, SizeClass
from .pairwise import _check_entered
from .ranking import WORST, mid_ranks
from .stattests import MrcResult, mrc_test

# judges must have attempted at least this share of a cell's problems;
# a near-empty judge contributes only ties and dilutes F
MIN_ATTEMPT_FRACTION = 0.5

DEFAULT_ALPHA = 0.05


class TooFewJudges(ValueError):
    """Fewer than two eligible judges at the cell."""


class TooFewProblems(ValueError):
    """Fewer than two problems at the cell: nothing to rank."""


@dataclass(frozen=True)
class AgreementResult:
    domain: str
    level: Level
    size_class: SizeClass
    category: Category
    judges: tuple[str, ...]
    excluded_judges: tuple[str, ...]
    k: int
    mrc: MrcResult
    significant: bool


def judge_ranks(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    planner: str,
    domain: str,
    level: Level,
    size_class: SizeClass = SizeClass.SMALL,
) -> tuple[float, ...]:
    """One planner's difficulty ranking of a problem set by solve time:
    the one-row call of :func:`judge_rank_rows`.

    Raises:
        PlannerNotInLevel: if the planner did not enter the level.
        NoProblems: if the cell has no problem set.
    """
    return tuple(judge_rank_rows(runs, manifest, [planner], domain, level, size_class)[0].tolist())


def judge_rank_rows(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    planners: Sequence[str],
    domain: str,
    level: Level,
    size_class: SizeClass = SizeClass.SMALL,
) -> np.ndarray:
    """Each planner's difficulty ranking of a problem set by solve time,
    one row per planner, ranked in one :func:`mid_ranks` call.

    Unsolved and unattempted problems map to WORST and tie at the top
    via mid-ranks.

    Raises:
        PlannerNotInLevel: if a planner did not enter the level.
        NoProblems: if the cell has no problem set.
    """
    for planner in planners:
        _check_entered(manifest, planner, level)
    grid = RunTable.of(runs).grid(manifest, level, size_class)
    rows = [grid.rows[planner] for planner in planners]
    times = grid.values["time_ms"][rows, grid.span(domain)]
    return mid_ranks(np.where(np.isnan(times), WORST, times))


def _eligible_judges(
    runs: RunTable,
    manifest: Manifest,
    domain: str,
    level: Level,
    size_class: SizeClass,
    category: Category,
) -> tuple[list[str], list[str]]:
    grid = runs.grid(manifest, level, size_class)
    span = grid.span(domain)
    if span.stop - span.start < 2:
        raise TooFewProblems(f"{domain}/{level.value}/{size_class.value}: fewer than two problems")
    attempted = grid.present[:, span].sum(axis=1).tolist()
    judges, excluded = [], []
    for entry in manifest.planners_in(category, level):
        n_attempted = attempted[grid.rows[entry.name]]
        if n_attempted == 0:
            continue
        if n_attempted >= MIN_ATTEMPT_FRACTION * (span.stop - span.start):
            judges.append(entry.name)
        else:
            excluded.append(entry.name)
    return judges, excluded


def agreement_test(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    domain: str,
    level: Level,
    size_class: SizeClass = SizeClass.SMALL,
    category: Category = Category.FULLY_AUTOMATED,
    alpha: float = DEFAULT_ALPHA,
) -> AgreementResult:
    """Agreement F-test for one (domain, level, size class) cell.

    Judges are the category's planners with records at the cell; judges
    that attempted fewer than half the problems are excluded and noted.

    Raises:
        NoProblems: if the cell has no problem set.
        TooFewProblems: with fewer than two problems.
        TooFewJudges: with fewer than two eligible judges.
    """
    runs = RunTable.of(runs)
    judges, excluded = _eligible_judges(runs, manifest, domain, level, size_class, category)
    if len(judges) < 2:
        raise TooFewJudges(
            f"{domain}/{level.value}/{size_class.value}: {len(judges)} eligible judges"
        )
    matrix = [judge_ranks(runs, manifest, j, domain, level, size_class) for j in judges]
    result = mrc_test(matrix)
    return AgreementResult(
        domain=domain,
        level=level,
        size_class=size_class,
        category=category,
        judges=tuple(judges),
        excluded_judges=tuple(excluded),
        k=result.k_subjects,
        mrc=result,
        significant=result.p <= alpha,
    )


def agreement_table(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    category: Category,
    alpha: float = DEFAULT_ALPHA,
    level: Level | None = None,
    size_class: SizeClass | None = None,
) -> list[AgreementResult]:
    """Agreement results for every populated cell of a category, at one
    level and one size class if given.

    Cells without two eligible judges or two problems are skipped.
    """
    runs = RunTable.of(runs)
    results = []
    for ps in sorted(
        manifest.sets_at(level=level, size_class=size_class),
        key=lambda s: (s.size_class.value, s.domain, s.level.value),
    ):
        try:
            results.append(
                agreement_test(runs, manifest, ps.domain, ps.level, ps.size_class, category, alpha)
            )
        except (TooFewJudges, TooFewProblems):
            continue
    return results
