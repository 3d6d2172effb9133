"""Bootstrap-based problem-difficulty analysis.

A planner's difficulty in a (domain, level) cell is the area under the
problems-left-to-solve-versus-time curve, clamped at a cutoff (unsolved
problems pay the full cutoff).  The area is compared against a bootstrap
distribution of areas resampled from the pool of timings at the same
level (level-specific) or across all levels (level-independent); areas in
the bottom/top 2.5% tails classify the cell as significantly Easy/Hard.

Determinism contract: every bootstrap sample draws from its own Philox
stream keyed (seed, sample index), so a seed fixes every sample.  The
streams are computed counter-based in numpy, a chunk of samples at a
time: Philox4x64-10 is a pure function of (key, counter) (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), and the words and
bounded draws are laid out exactly as ``np.random.Generator(Philox(key))``
lays them out, so ``RNG_NAME`` and every sample are what the scalar
sampler ``_sample_area`` gives.  Since a sample's words do not depend on
the pool, a command computes each chunk's word block once and every pool
of the command draws from it (``bootstrap_distributions``); the block is
passed along inside the call and kept nowhere after it.

Draw layout: a sample's 32-bit words go first to its m problem draws (none
when the pool has one problem), then one word to each drawn problem's
planner draw, in draw order, skipping the draws over a single planner,
which consume no word.  So when some problem of the pool has a single
planner, each planner draw's word is found by the running count of
consuming draws before it; otherwise the planner draws read the m words
after the problem words.  A pool's timings are one table, padded with NaN
to its widest problem, and a draw's timing is read at problem * width +
planner.  The word block is laid out word by word, so that one draw
across a chunk of samples is a contiguous column.

Rejections: numpy draws again when (u * n) mod 2**32 < (2**32 - n) mod n.
The sampler compares every draw of a pool with one bound, the largest of
those thresholds over the pool's problem count and planner counts, and
recomputes each sample with a draw below it with ``_sample_area``.  The
flagged samples hold every rejection and may hold a draw numpy accepts;
either way the recomputed area is the exact one.  A threshold is below n,
so a draw is flagged less than once in 2**32 / n for the pool's largest n.

The verdicts are computed a set and a pool at a time: ``subject_areas``
finds every subject's area over one problem set, ``classify_subjects``
places every subject of one pool in its distribution, and
``subject_area``, ``difficulty_area``, ``classify`` and ``percentile_of``
are their one-row calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import Category, Level, Manifest, RunRecord, RunTable, SizeClass
from .ranking import EmptyInput

DEFAULT_CUTOFF_MS = 30 * 60 * 1000  # thirty minutes
DEFAULT_B = 10_000
DEFAULT_M = 20
EASY_TAIL = 0.025
HARD_TAIL = 0.975
RNG_NAME = "numpy-philox (key = seed, sample-index)"

_UINT64_MASK = (1 << 64) - 1
_UINT32_MASK = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Samples computed together; bounds the sampler's arrays whatever B is.
_CHUNK = 1024


class EmptyPool(ValueError):
    """No timings available for the requested pool."""


class SampleSizeMismatch(ValueError):
    """Subject cannot be compared against the distribution."""


class Classification(enum.Enum):
    EASY = "easy"
    HARD = "hard"
    NEITHER = "neither"


@dataclass(frozen=True)
class PoolKind:
    """Bootstrap pool scope: a specific level, or all levels pooled."""

    level: Level | None = None

    @property
    def label(self) -> str:
        return self.level.value if self.level is not None else "independent"


LEVEL_INDEPENDENT = PoolKind(None)


def level_specific(level: Level) -> PoolKind:
    return PoolKind(level)


@dataclass(frozen=True)
class DifficultyArea:
    """Area under the problems-left-to-solve curve for one subject."""

    planner: str
    domain: str
    level: Level
    size_class: SizeClass
    area_ms: float
    n_problems: int
    cutoff_ms: int


@dataclass(frozen=True)
class BootstrapDistribution:
    """B resampled areas of m cutoff-clamped timings each, in draw order;
    every construction sorts a copy of them for percentile lookups."""

    pool_kind: PoolKind
    category: Category
    size_class: SizeClass
    samples: tuple[float, ...]
    B: int
    m: int
    cutoff_ms: int
    seed: int
    _ordered: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ordered", np.sort(np.array(self.samples, dtype=float)))


@dataclass(frozen=True)
class HardnessVerdict:
    planner: str
    domain: str
    level: Level
    size_class: SizeClass
    pool_kind: PoolKind
    area_ms: float
    n_problems: int
    percentile: float
    classification: Classification


@dataclass(frozen=True)
class HardnessTable:
    """All verdicts for a category plus per-(domain, level) tail counts."""

    category: Category
    size_class: SizeClass
    verdicts: tuple[HardnessVerdict, ...]

    def cell_counts(self) -> dict[tuple[str, Level], tuple[int, int]]:
        counts: dict[tuple[str, Level], tuple[int, int]] = {}
        for v in self.verdicts:
            easy, hard = counts.get((v.domain, v.level), (0, 0))
            if v.classification is Classification.EASY:
                easy += 1
            elif v.classification is Classification.HARD:
                hard += 1
            counts[(v.domain, v.level)] = (easy, hard)
        return counts

    def by_planner(self, level: Level) -> dict[str, dict[str, HardnessVerdict]]:
        """planner -> domain -> verdict at one level (the scaling gate's input)."""
        out: dict[str, dict[str, HardnessVerdict]] = {}
        for v in self.verdicts:
            if v.level == level:
                out.setdefault(v.planner, {})[v.domain] = v
        return out


def clamped_times(times: Sequence[float | None] | np.ndarray, cutoff_ms: int) -> np.ndarray:
    """Solve times as the difficulty area counts them: an unsolved time (None
    or NaN) pays the cutoff, solved times are clamped at it."""
    times = np.array(times, dtype=float)
    return np.minimum(np.where(np.isnan(times), float(cutoff_ms), times), float(cutoff_ms))


def _row_areas(times: np.ndarray, cutoff_ms: int) -> np.ndarray:
    """Each row's difficulty area: its cutoff-clamped times summed left to
    right from 0.0, as each bootstrap sample adds them, not in np.sum's
    pairwise order (+ 0.0 turns an all -0.0 row's sum into 0.0)."""
    if cutoff_ms <= 0:
        raise ValueError(f"cutoff_ms must be positive, got {cutoff_ms}")
    if times.shape[1] == 0:
        raise EmptyInput("difficulty_area needs at least one time")
    return np.cumsum(clamped_times(times, cutoff_ms), axis=1)[:, -1] + 0.0


def difficulty_area(times: Sequence[float | None], cutoff_ms: int) -> float:
    """Sum of cutoff-clamped solve times; None or NaN (unsolved) pays the cutoff.

    This is the closed form of the area under the step curve counting
    problems left to solve over [0, cutoff].

    Raises:
        EmptyInput: if no times are supplied.
        ValueError: if the cutoff is not positive.
    """
    return float(_row_areas(np.array([times], dtype=float), cutoff_ms)[0])


def subject_areas(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    planners: Sequence[str],
    domain: str,
    level: Level,
    size_class: SizeClass = SizeClass.SMALL,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
) -> list[DifficultyArea]:
    """Difficulty area of each planner over one problem set, in planner order.

    Unattempted problems count as unsolved, and so does every problem of a
    planner with no record at the level.

    Raises:
        NoProblems: if the domain has no problem set at the level and size
            class.
        EmptyInput: if the problem set has no problems.
        ValueError: if the cutoff is not positive.
    """
    grid = RunTable.of(runs).grid(manifest, level, size_class)
    span = grid.span(domain)
    times = np.full((len(planners), span.stop - span.start), np.nan)
    known = [k for k, name in enumerate(planners) if name in grid.rows]
    times[known] = grid.values["time_ms"][[grid.rows[planners[k]] for k in known], span]
    areas = _row_areas(times, cutoff_ms)
    return [
        DifficultyArea(
            planner=name,
            domain=domain,
            level=level,
            size_class=size_class,
            area_ms=area,
            n_problems=times.shape[1],
            cutoff_ms=cutoff_ms,
        )
        for name, area in zip(planners, areas.tolist())
    ]


def subject_area(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    planner: str,
    domain: str,
    level: Level,
    size_class: SizeClass = SizeClass.SMALL,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
) -> DifficultyArea:
    """Difficulty area of one planner over one problem set: the one-planner
    call of ``subject_areas``."""
    (subject,) = subject_areas(runs, manifest, [planner], domain, level, size_class, cutoff_ms)
    return subject


def _pool_timings(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    category: Category,
    pool_kinds: Sequence[PoolKind],
    size_class: SizeClass,
    cutoff_ms: int,
) -> list[list[np.ndarray]]:
    """Each pool's per-problem arrays of clamped timings, in manifest set
    order, one entry per eligible planner in name order, so that the
    manifest's planner order moves no sample.

    A problem is in a pool when at least one category planner entered its
    level; a planner with no record on a pooled problem contributes the
    cutoff (unsolved).  Each problem set's timings are clamped once and
    shared by every pool that holds the set, so the level-independent pool
    is the level pools' arrays in set order.
    """
    runs = RunTable.of(runs)
    by_set: list[tuple[Level, list[np.ndarray]]] = []
    for ps in manifest.sets_at(size_class=size_class):
        eligible = [p.name for p in manifest.planners_in(category, ps.level)]
        if not eligible or not any(kind.level in (None, ps.level) for kind in pool_kinds):
            continue
        grid = runs.grid(manifest, ps.level, size_class)
        rows = [grid.rows[name] for name in eligible]
        times = grid.values["time_ms"][rows, grid.spans[ps.domain]]
        by_set.append((ps.level, list(np.ascontiguousarray(clamped_times(times, cutoff_ms).T))))
    return [
        [t for level, per_problem in by_set if kind.level in (None, level) for t in per_problem]
        for kind in pool_kinds
    ]


def _sample_area(
    sample_index: int,
    seed: int,
    per_problem: list[np.ndarray],
    m: int,
) -> float:
    key = np.array([seed & _UINT64_MASK, sample_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    problem_draws = rng.integers(0, len(per_problem), size=m)
    area = 0.0
    for j in problem_draws:
        timings = per_problem[j]
        area += float(timings[rng.integers(0, len(timings))])
    return area


def _mulhi(multiplier: int, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the high 64 bits of the 128-bit product multiplier * x into
    ``out``: the four 32-bit partial products of the mulhu routine of
    Warren's Hacker's Delight (ch. 8), summed in place in ``out`` and
    ``scratch``, so that no partial product overflows."""
    m_lo, m_hi = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    # t = x_lo * m_hi + (x_lo * m_lo >> 32), which stays below 2**64
    np.bitwise_and(x, _UINT32_MASK, out=scratch)
    np.multiply(scratch, m_hi, out=out)
    scratch *= m_lo
    scratch >>= _SHIFT32
    out += scratch
    # w = x_hi * m_lo + (t mod 2**32), also below 2**64: adding all of t may
    # wrap, and taking t's high half off again undoes the wrap
    np.right_shift(x, _SHIFT32, out=scratch)
    scratch *= m_lo
    scratch += out
    out &= ~_UINT32_MASK
    scratch -= out
    # high = x_hi * m_hi + (t >> 32) + (w >> 32)
    out >>= _SHIFT32
    scratch >>= _SHIFT32
    out += scratch
    np.right_shift(x, _SHIFT32, out=scratch)
    scratch *= m_hi
    out += scratch


def _philox_words(seed: int, sample_index: np.ndarray, n_blocks: int) -> np.ndarray:
    """The first 8 * n_blocks 32-bit words of each sample's Philox stream.

    Row r holds what ``np.random.Philox(key=[seed, sample_index[r]])`` yields
    to 32-bit draws: blocks at counters 1, 2, ..., each of four 64-bit words,
    each word low half first.  The words are returned as uint64, laid out
    word by word (the transpose of a C-ordered array), so that a column of
    words, one draw across the samples, is contiguous.

    The first round, on a state that is zero but for the counter, is
    computed on the counters alone; the other rounds update four
    (n_blocks, rows) buffers in place.
    """
    shape = (n_blocks, len(sample_index))
    key1 = sample_index.astype(np.uint64)[None, :]
    counter = np.arange(1, n_blocks + 1, dtype=np.uint64)[:, None]
    c0 = np.full(shape, np.uint64(seed & _UINT64_MASK))
    c1 = np.zeros(shape, dtype=np.uint64)
    c2 = np.empty(shape, dtype=np.uint64)
    c3 = np.empty(shape, dtype=np.uint64)
    high, scratch = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    _mulhi(_PHILOX_M[0], counter, high[:, :1], scratch[:, :1])
    np.bitwise_xor(high[:, :1], key1, out=c2)
    np.multiply(counter, np.uint64(_PHILOX_M[0]), out=c3)
    for r in range(1, _PHILOX_ROUNDS):
        # each round bumps the key once more
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _UINT64_MASK)
        k1 = key1 + np.uint64((r * _PHILOX_W[1]) & _UINT64_MASK)
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)),
        # written over c1, c2, c3 and c0
        _mulhi(_PHILOX_M[1], c2, high, scratch)
        c1 ^= high
        c1 ^= k0
        _mulhi(_PHILOX_M[0], c0, high, scratch)
        c3 ^= high
        c3 ^= k1
        c2 *= np.uint64(_PHILOX_M[1])
        c0 *= np.uint64(_PHILOX_M[0])
        c0, c1, c2, c3 = c1, c2, c3, c0
    words = np.stack((c0, c1, c2, c3), axis=1)
    halves = np.stack((words & _UINT32_MASK, words >> _SHIFT32), axis=2)
    return halves.reshape(8 * n_blocks, len(sample_index)).T


class _PoolDraws:
    """One pool's tables for turning Philox words into sample areas.

    The draws follow ``Generator.integers``: m problem draws, then one
    planner draw per drawn problem, each a Lemire reduction (u * n) >> 32 of
    one 32-bit word; a draw over a single value consumes no word (see the
    module docstring for the layout).  ``skips`` says whether some problem
    has a single planner, the only case in which a planner draw's word is
    not at a fixed place.
    """

    def __init__(self, per_problem: list[np.ndarray], m: int) -> None:
        self.per_problem = per_problem
        self.m = m
        self.n_problems = len(per_problem)
        self.lens = np.array([len(t) for t in per_problem], dtype=np.uint64)
        self.width = int(self.lens.max())
        table = np.full((self.n_problems, self.width), np.nan)
        for row, timings in zip(table, per_problem):
            row[: len(timings)] = timings
        self.table = table.ravel()
        self.skips = bool((self.lens == 1).any())
        self.problem_words = m if self.n_problems > 1 else 0
        self.n_blocks = -(-(self.problem_words + m) // 8)
        # numpy rejects a word when (u * n) mod 2**32 < (2**32 - n) mod n; one
        # bound, the largest of the pool's thresholds, flags every rejection
        counts = np.append(self.lens, np.uint64(self.n_problems))
        self.bound = np.uint32(((np.uint64(1 << 32) - counts) % counts).max())

    def fill(self, words: np.ndarray, area: np.ndarray) -> np.ndarray:
        """Write each row's sample area into ``area``; return the rows that
        may hold a rejected draw, whose areas the caller recomputes.

        Every row with a rejected draw is returned, and now and then a row
        without one: a draw is flagged when its low 32 bits fall below the
        pool's largest threshold rather than its own.
        """
        m, first = self.m, self.problem_words
        scaled = words[:, :m] * np.uint64(self.n_problems)
        flagged = scaled.astype(np.uint32) < self.bound
        # the draws are below 2**32, so reading them as int64 is exact
        drawn = (scaled >> _SHIFT32).view(np.int64)
        n_planners = self.lens[drawn]
        if self.skips:
            # a draw's word follows the problem words and the consuming draws before it
            consumes = n_planners > 1
            position = np.cumsum(consumes, axis=1) - consumes
            scaled = np.take_along_axis(words, first + position, axis=1) * n_planners
        else:
            scaled = words[:, first : first + m] * n_planners
        flagged |= scaled.astype(np.uint32) < self.bound
        scaled >>= _SHIFT32
        index = scaled.view(np.int64)
        index += drawn * self.width
        values = self.table[index]
        area[:] = 0.0
        for column in values.T:  # not np.sum: its pairwise order rounds differently
            area += column
        return np.flatnonzero(flagged.any(axis=1))


def _sample_areas(seed: int, pools: list[list[np.ndarray]], m: int, B: int) -> list[np.ndarray]:
    """``[_sample_area(i, seed, per_problem, m) for i in range(B)]`` for each
    pool's ``per_problem``, computed a chunk of samples at a time.

    A sample's words do not depend on the pool, so each chunk's word block
    is computed once, as wide as the widest pool needs, and every pool
    draws from it with its own rejection bound (see ``_PoolDraws``).
    Samples flagged for a possibly rejected draw in a pool are rare and are
    recomputed for that pool by ``_sample_area``.  Each area adds its m
    times left to right, as the scalar sampler does.
    """
    draws = [_PoolDraws(per_problem, m) for per_problem in pools]
    areas = [np.empty(B) for _ in draws]
    if not draws:
        return areas
    n_blocks = max(pool.n_blocks for pool in draws)
    for start in range(0, B, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, B), dtype=np.uint64)
        words = _philox_words(seed, index, n_blocks)
        for pool, out in zip(draws, areas):
            area = out[start : start + len(index)]
            for k in pool.fill(words, area):
                area[k] = _sample_area(start + int(k), seed, pool.per_problem, m)
    return areas


def bootstrap_distributions(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    category: Category,
    pool_kinds: Sequence[PoolKind],
    size_class: SizeClass = SizeClass.SMALL,
    B: int = DEFAULT_B,
    m: int = DEFAULT_M,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    seed: int = 0,
) -> dict[PoolKind, BootstrapDistribution]:
    """Bootstrap distributions of difficulty areas for several pools.

    Each pool's samples are those ``bootstrap_distribution`` gives it; the
    pools read one word block per chunk of samples, computed once for the
    call.  A pool with no problems visible to the category has no entry.
    """
    if B < 1 or m < 1:
        raise ValueError(f"B and m must be positive, got B={B}, m={m}")
    if not (0 <= seed <= _UINT64_MASK):
        raise ValueError("seed must fit in 64 bits")
    pools = _pool_timings(runs, manifest, category, pool_kinds, size_class, cutoff_ms)
    filled = {kind: pool for kind, pool in zip(pool_kinds, pools) if pool}
    samples = _sample_areas(seed, list(filled.values()), m, B)
    return {
        kind: BootstrapDistribution(
            pool_kind=kind,
            category=category,
            size_class=size_class,
            samples=tuple(areas.tolist()),
            B=B,
            m=m,
            cutoff_ms=cutoff_ms,
            seed=seed,
        )
        for kind, areas in zip(filled, samples)
    }


def bootstrap_distribution(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    category: Category,
    pool_kind: PoolKind,
    size_class: SizeClass = SizeClass.SMALL,
    B: int = DEFAULT_B,
    m: int = DEFAULT_M,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    seed: int = 0,
) -> BootstrapDistribution:
    """Bootstrap distribution of difficulty areas for a pool.

    Each of the B samples draws m problems uniformly with replacement
    from the pool's problem universe, then for each drawn problem one
    planner uniformly among the category planners that entered its level;
    that planner's cutoff-clamped time (missing record counts as
    unsolved) contributes to the sample's area.  Bit-identical for a
    given seed, whether the pool is sampled alone or beside others: this
    is the one-pool call of ``bootstrap_distributions``, whose pools read
    one word block per chunk of samples.

    Raises:
        EmptyPool: if the pool has no problems visible to the category.
    """
    dists = bootstrap_distributions(
        runs, manifest, category, [pool_kind], size_class, B, m, cutoff_ms, seed
    )
    if pool_kind not in dists:
        raise EmptyPool(
            f"no problems for category {category.value} in pool {pool_kind.label}/{size_class.value}"
        )
    return dists[pool_kind]


def _percentiles(areas: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Mid-p percentile of each area within samples in ascending order."""
    below = np.searchsorted(ordered, areas, side="left")
    not_above = np.searchsorted(ordered, areas, side="right")
    return (below + 0.5 * (not_above - below)) / len(ordered)


def percentile_of(area: float, samples: Sequence[float]) -> float:
    """Mid-p percentile of an area within a sample set (ties count half)."""
    if len(samples) == 0:
        raise EmptyInput("percentile_of needs at least one sample")
    ordered = np.sort(np.array(samples, dtype=float))
    return float(_percentiles(np.array([area], dtype=float), ordered)[0])


def classify_subjects(
    subjects: Sequence[DifficultyArea], dist: BootstrapDistribution
) -> list[HardnessVerdict]:
    """Easy/Hard/Neither verdict for each subject against one distribution.

    A subject whose problem count differs from the distribution's sample
    size m is compared after rescaling its area by m/n_problems, keeping
    the statistic comparable across 16/20/22-problem sets.

    Raises:
        SampleSizeMismatch: if a subject has no problems.
    """
    n_problems = np.array([s.n_problems for s in subjects], dtype=np.int64)
    if (n_problems <= 0).any():
        raise SampleSizeMismatch("subject has no problems")
    areas = np.array([s.area_ms for s in subjects], dtype=float)
    rescale = n_problems != dist.m
    areas[rescale] *= dist.m / n_problems[rescale]
    verdicts = []
    for subject, pct in zip(subjects, _percentiles(areas, dist._ordered).tolist()):
        if pct <= EASY_TAIL:
            classification = Classification.EASY
        elif pct >= HARD_TAIL:
            classification = Classification.HARD
        else:
            classification = Classification.NEITHER
        verdicts.append(
            HardnessVerdict(
                planner=subject.planner,
                domain=subject.domain,
                level=subject.level,
                size_class=subject.size_class,
                pool_kind=dist.pool_kind,
                area_ms=subject.area_ms,
                n_problems=subject.n_problems,
                percentile=pct,
                classification=classification,
            )
        )
    return verdicts


def classify(subject: DifficultyArea, dist: BootstrapDistribution) -> HardnessVerdict:
    """Easy/Hard/Neither verdict for a subject against a distribution: the
    one-subject call of ``classify_subjects``.

    Raises:
        SampleSizeMismatch: if the subject has no problems.
    """
    (verdict,) = classify_subjects([subject], dist)
    return verdict


def hardness_tables(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    category: Category,
    *,
    level_specific_pools: Sequence[bool],
    level: Level | None = None,
    size_class: SizeClass = SizeClass.SMALL,
    B: int = DEFAULT_B,
    m: int = DEFAULT_M,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    seed: int = 0,
) -> list[HardnessTable]:
    """``hardness_table`` for each pool mode in ``level_specific_pools``.

    With a ``level``, the tables hold only that level's subjects, so only
    its level-specific pool is drawn; the level-independent pool still
    spans every level.  Either way a verdict is the one the unrestricted
    call gives, since a pool's samples do not depend on the other pools.

    The tables share their subjects' areas, found with one
    ``subject_areas`` call per problem set, and one call of
    ``bootstrap_distributions`` for every pool they compare against; each
    table classifies the subjects of a pool with one ``classify_subjects``
    call.
    """
    runs = RunTable.of(runs)
    subjects: list[DifficultyArea] = []
    for ps in sorted(
        manifest.sets_at(level=level, size_class=size_class),
        key=lambda s: (s.domain, s.level.value),
    ):
        # planners with a record on the cell's problems, of either size class
        grids = [runs.grid(manifest, ps.level, size) for size in SizeClass]
        attempted = {
            name
            for grid in grids
            if ps.domain in grid.spans
            for name in grid.attempted(grid.spans[ps.domain])
        }
        planners = [
            entry.name
            for entry in manifest.planners_in(category, ps.level)
            if entry.name in attempted
        ]
        if planners:
            subjects.extend(
                subject_areas(runs, manifest, planners, ps.domain, ps.level, size_class, cutoff_ms)
            )

    def kind(subject: DifficultyArea, specific: bool) -> PoolKind:
        return level_specific(subject.level) if specific else LEVEL_INDEPENDENT

    kinds = {kind(s, specific): None for specific in level_specific_pools for s in subjects}
    dists = bootstrap_distributions(
        runs, manifest, category, list(kinds), size_class, B, m, cutoff_ms, seed
    )
    tables = []
    for specific in level_specific_pools:
        members: dict[PoolKind, list[int]] = {}
        for k, s in enumerate(subjects):
            members.setdefault(kind(s, specific), []).append(k)
        verdicts: dict[int, HardnessVerdict] = {}
        # a subject's level has a category planner, so its pools are never empty
        for pool, ks in members.items():
            verdicts.update(zip(ks, classify_subjects([subjects[k] for k in ks], dists[pool])))
        tables.append(
            HardnessTable(
                category=category,
                size_class=size_class,
                verdicts=tuple(verdicts[k] for k in range(len(subjects))),
            )
        )
    return tables


def hardness_table(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    category: Category,
    *,
    level_specific_pools: bool,
    size_class: SizeClass = SizeClass.SMALL,
    B: int = DEFAULT_B,
    m: int = DEFAULT_M,
    cutoff_ms: int = DEFAULT_CUTOFF_MS,
    seed: int = 0,
) -> HardnessTable:
    """Classify every (planner, domain, level) subject for a category.

    With ``level_specific_pools`` each level gets its own bootstrap
    distribution; otherwise a single level-independent distribution is
    shared.  Subjects are the category planners that entered the level
    and produced at least one record in the cell.  This is the one-mode
    call of ``hardness_tables``.
    """
    (table,) = hardness_tables(
        runs,
        manifest,
        category,
        level_specific_pools=(level_specific_pools,),
        size_class=size_class,
        B=B,
        m=m,
        cutoff_ms=cutoff_ms,
        seed=seed,
    )
    return table
