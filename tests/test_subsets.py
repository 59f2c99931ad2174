from itertools import chain

import pytest

from symex.bigcomb import binomial_first
from symex.subsets import count_containing_supersets, k_subsets, superset_counts


def test_k_subsets_examples():
    assert list(k_subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert list(k_subsets(5, 0)) == [()]
    assert list(k_subsets(4, 4)) == [(1, 2, 3, 4)]
    assert list(k_subsets(3, 5)) == []


def test_k_subsets_rejects_bad_args():
    with pytest.raises(ValueError):
        k_subsets(0, 1)
    with pytest.raises(ValueError):
        k_subsets(3, -1)


def test_k_subsets_counts_match_binomials():
    for n in range(1, 13):
        for k in range(n + 1):
            assert sum(1 for _ in k_subsets(n, k)) == binomial_first(n, k)


def test_k_subsets_lexicographic_and_strictly_increasing():
    for n in range(1, 9):
        for k in range(n + 1):
            previous = None
            for subset in k_subsets(n, k):
                assert list(subset) == sorted(set(subset))
                if previous is not None:
                    assert subset > previous
                previous = subset


def test_count_containing_supersets_examples():
    assert count_containing_supersets(5, (2,), 3) == 6
    assert count_containing_supersets(6, (1, 4, 5), 3) == 1
    assert count_containing_supersets(4, (1, 2), 3) == 2
    assert count_containing_supersets(4, (), 2) == 6


def test_count_containing_supersets_validation():
    with pytest.raises(ValueError):
        count_containing_supersets(4, (2, 2), 3)  # repeated index
    with pytest.raises(ValueError):
        count_containing_supersets(4, (5,), 3)  # out of range
    with pytest.raises(ValueError):
        count_containing_supersets(4, (1, 2, 3), 2)  # s < |fixed|


def test_multiplicity_lemma_small_grid():
    # count_containing_supersets(n, J, s) = C(n - t, s - t); full n <= 8 sweep
    # lives in the acceptance suite.
    for n in range(1, 7):
        for s in range(n + 1):
            for t in range(s + 1):
                for fixed in k_subsets(n, t):
                    assert count_containing_supersets(n, fixed, s) == binomial_first(n - t, s - t)


def test_superset_counts_answer_every_single_query():
    for n in range(1, 7):
        for s in range(n + 1):
            counts = superset_counts(n, s)
            every_fixed = list(chain.from_iterable(k_subsets(n, t) for t in range(s + 1)))
            # a key for each subset of size <= s, and no other
            assert sorted(counts) == sorted(every_fixed)
            for fixed in every_fixed:
                assert counts[fixed] == count_containing_supersets(n, fixed, s)


def test_superset_counts_rejects_bad_args():
    with pytest.raises(ValueError):
        superset_counts(0, 0)  # empty ground set
    with pytest.raises(ValueError):
        superset_counts(3, -1)
    with pytest.raises(ValueError):
        superset_counts(3, 4)  # s > n
