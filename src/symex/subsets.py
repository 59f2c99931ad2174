"""Deterministic enumeration of k-element index subsets of {1, ..., n}.

Subsets are 1-based, strictly increasing tuples, always emitted in
lexicographic order so that breakdowns and fixtures are byte-stable.

Two counters give the superset side of the multiplicity lemma (each
t-subset lies in C(n-t, s-t) of the s-subsets) by enumeration, never by the
formula.  count_containing_supersets answers one query in O(1) memory at any
n.  superset_counts answers every query of one (n, s) from a single pass
over the s-subsets, the form an exhaustive sweep over all t-subsets wants.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import Iterator, Sequence

__all__ = ["IndexSubset", "k_subsets", "count_containing_supersets", "superset_counts"]

IndexSubset = tuple[int, ...]


def k_subsets(n: int, k: int) -> Iterator[IndexSubset]:
    """Yield the k-element subsets of {1, ..., n} in lexicographic order.

    k = 0 yields a single empty subset; k > n yields nothing.  Enumeration
    is streaming: nothing is materialized up front.
    """
    if n < 1:
        raise ValueError(f"ground set size must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"subset size must be >= 0, got {k}")
    return iter(combinations(range(1, n + 1), k))


def count_containing_supersets(n: int, fixed: Sequence[int], s: int) -> int:
    """Count, by direct enumeration, the s-subsets of {1..n} containing `fixed`.

    The closed-form answer is C(n - |fixed|, s - |fixed|); this routine
    deliberately counts instead of computing, so it can serve as the
    independent side of that identity.
    """
    fixed = tuple(fixed)
    if any(not 1 <= j <= n for j in fixed) or list(fixed) != sorted(set(fixed)):
        raise ValueError(f"fixed indices must be strictly increasing within 1..{n}, got {fixed}")
    if not len(fixed) <= s <= n:
        raise ValueError(f"superset size {s} out of range {len(fixed)}..{n}")
    wanted = set(fixed)
    return sum(1 for J in k_subsets(n, s) if wanted.issubset(J))


def superset_counts(n: int, s: int) -> Counter[IndexSubset]:
    """Count, by one pass over the s-subsets J of {1..n}, the s-subsets
    containing each subset F of size at most s: every J adds one to each of
    its subsets combinations(J, t), t = 0..s, so counts[F] equals
    count_containing_supersets(n, F, s).  That is sum_s C(n, s) 2^s = 3^n
    tuples over all s, where one scan per F makes C(n, s) containment tests.
    """
    if not 0 <= s <= n:
        raise ValueError(f"superset size {s} out of range 0..{n}")
    return Counter(chain.from_iterable(combinations(J, t) for J in k_subsets(n, s) for t in range(s + 1)))
