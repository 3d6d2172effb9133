import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planstats.ranking import WORST, EmptyInput, mid_ranks, rank_ascending


def reference_ranks(values):
    """Ascending mid-ranks of a list, one tie group at a time: the scalar
    reference for :func:`mid_ranks`, and the rank oracle of other tests."""
    n = len(values)
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
    return ranks


def test_plain_ordering():
    assert list(rank_ascending([3.0, 1.0, 2.0])) == [3.0, 1.0, 2.0]


def test_midrank_ties():
    assert list(rank_ascending([5.0, 5.0, 7.0])) == [1.5, 1.5, 3.0]


def test_worst_ties_at_top():
    assert list(rank_ascending([4.0, WORST, WORST])) == [1.0, 2.5, 2.5]


def test_all_worst():
    assert list(rank_ascending([WORST, WORST, WORST])) == [2.0, 2.0, 2.0]


def test_empty_input():
    with pytest.raises(EmptyInput):
        rank_ascending([])


values_lists = st.lists(
    st.one_of(st.integers(-5, 5).map(float), st.just(WORST)), min_size=1, max_size=40
)


@given(values_lists)
def test_rank_sum_identity(values):
    n = len(values)
    assert sum(rank_ascending(values)) == pytest.approx(n * (n + 1) / 2)


@given(values_lists, st.randoms(use_true_random=False))
def test_permutation_equivariance(values, rnd):
    ranks = list(rank_ascending(values))
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    shuffled = [values[i] for i in perm]
    assert list(rank_ascending(shuffled)) == [ranks[i] for i in perm]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40, unique=True))
def test_no_ties_gives_permutation(values):
    assert sorted(rank_ascending(values)) == [float(i) for i in range(1, len(values) + 1)]


# small integers (0.0 and -0.0 among them) tie often; NaN is "left out"
entries = st.one_of(
    st.integers(-3, 3).map(float), st.just(-0.0), st.just(WORST), st.just(math.nan)
)
matrices = st.integers(1, 12).flatmap(
    lambda width: st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=6)
)


@given(matrices)
def test_mid_ranks_match_reference_and_one_row_calls(matrix):
    got = mid_ranks(matrix)
    assert got.shape == (len(matrix), len(matrix[0]))
    for row, ranks in zip(matrix, got):
        kept = [i for i, v in enumerate(row) if not math.isnan(v)]
        expected = [math.nan] * len(row)
        for i, rank in zip(kept, reference_ranks([row[i] for i in kept])):
            expected[i] = rank
        np.testing.assert_array_equal(ranks, expected)
        np.testing.assert_array_equal(mid_ranks([row])[0], ranks)
