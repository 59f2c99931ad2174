"""Deterministic enumeration of k-element index subsets of {1, ..., n}.

Subsets are 1-based, strictly increasing tuples, always emitted in
lexicographic order so that breakdowns and fixtures are byte-stable.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

__all__ = ["IndexSubset", "k_subsets", "count_containing_supersets"]

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
