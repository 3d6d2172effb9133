"""Rank assignment with mid-rank tie handling.

The tie rule lives in :func:`mid_ranks` alone: the Wilcoxon test, the
judges' rankings and the Spearman scaling test all read their ranks from
it.  Unsolved instances are represented by the :data:`WORST` sentinel,
which is strictly greater than every finite value so that unsolved cases
are pushed to the top end of the ranking and tie with each other.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Sentinel for "infinitely bad" values (unsolved instances).  All WORST
# entries compare greater than any finite value and mutually tie.  Code
# must never subtract two WORST values; differences are built case-wise.
WORST: float = math.inf


class EmptyInput(ValueError):
    """Raised when an operation needs at least one value."""


def mid_ranks(matrix) -> np.ndarray:
    """Ascending ranks of each row of a matrix, with mid-rank ties.

    In each row the smallest value has rank 1 and ties share the mean of
    the ranks they span, so m ranked values sum to m(m+1)/2; ranks are
    half-integers, so their sums are exact in any order.  :data:`WORST`
    ties above every finite value.  NaN means "left out": it gets rank
    NaN, and the row's other entries are ranked among themselves.
    """
    values = np.asarray(matrix, dtype=float)
    # NaN sorts after every value, +inf included
    order = np.argsort(values, axis=1)
    row = np.arange(len(values))[:, None]
    keys = values[row, order]
    width = keys.shape[1]
    position = np.arange(width)
    starts = np.ones(keys.shape, dtype=bool)
    starts[:, 1:] = keys[:, 1:] != keys[:, :-1]
    ends = np.ones(keys.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    # a tie spanning sorted positions i..j (0-based) shares rank (i+j+2)/2
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, position, width - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(keys.shape)
    ranks[row, order] = (first + last + 2) / 2.0
    ranks[np.isnan(values)] = np.nan
    return ranks


def rank_ascending(values: Sequence[float]) -> tuple[float, ...]:
    """Ranks parallel to ``values``: the one-row call of :func:`mid_ranks`.

    Raises:
        EmptyInput: if no values are supplied.
    """
    if len(values) == 0:
        raise EmptyInput("rank_ascending needs at least one value")
    return tuple(mid_ranks([values])[0].tolist())
