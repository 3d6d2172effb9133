"""Rank assignment with mid-rank tie handling.

Every rank-based test in the package goes through :func:`rank_ascending`.
Unsolved instances are represented by the :data:`WORST` sentinel, which is
strictly greater than every finite value so that unsolved cases are pushed
to the top end of the ranking and tie with each other.
"""

from __future__ import annotations

import math
from typing import Sequence

# Sentinel for "infinitely bad" values (unsolved instances).  All WORST
# entries compare greater than any finite value and mutually tie.  Code
# must never subtract two WORST values; differences are built case-wise.
WORST: float = math.inf


class EmptyInput(ValueError):
    """Raised when an operation needs at least one value."""


def is_worst(value: float) -> bool:
    return value == WORST


def rank_ascending(values: Sequence[float]) -> tuple[float, ...]:
    """Ranks parallel to ``values``, ascending with mid-rank ties.

    The smallest value has rank 1; ties receive the mean of the ranks they
    span, so the rank sum is always n(n+1)/2.

    ``values`` may contain :data:`WORST`; these tie at the top end.

    Raises:
        EmptyInput: if no values are supplied.
    """
    n = len(values)
    if n == 0:
        raise EmptyInput("rank_ascending needs at least one value")
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share ranks i+1..j+1
        mid = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return tuple(ranks)
