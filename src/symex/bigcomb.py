"""Exact combinatorial primitives on arbitrary-precision integers.

Generalized binomials (negative upper argument allowed), multichoose,
signed Stirling numbers of the first kind, and multinomials.  Every value
is an exact Python int; no floats anywhere.

_stirling_row and _stirling_second_row are the cached rows s(i, 0..i) and
S(a, 0..a) of the two Stirling triangles, one tuple per row, so a caller
that needs rows 0..top holds O(top^2) entries.  They are inverse lower
triangular matrices: sum_a S(k, a) s(a, r) = [k == r].  The Newton-Girard
route of symex.esp reads both: x^a = sum_r S(a, r) x(x-1)...(x-r+1) turns
the power sums of the roots into those of (1+z)^m - 1, and s turns powers
back into binomials.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

__all__ = [
    "binomial_first",
    "binomial_second",
    "stirling_first_signed",
    "multinomial",
]


def binomial_first(x: int, k: int) -> int:
    """Binomial number of the first kind C(x, k) = x(x-1)...(x-k+1) / k!.

    Defined for any integer x (the unique polynomial extension in x), so a
    negative upper argument is fine: there C(x, k) = (-1)^k * C(k-x-1, k),
    the negation of the upper index.  For 0 <= x < k the falling factorial
    crosses zero and the result is 0.
    """
    if k < 0:
        raise ValueError(f"choice count must be >= 0, got {k}")
    if x >= 0:
        return math.comb(x, k)
    return (-1) ** k * math.comb(k - x - 1, k)


def binomial_second(x: int, k: int) -> int:
    """Binomial number of the second kind (multichoose): rising factorial
    x(x+1)...(x+k-1) over k!, which is C(x+k-1, k).  Returns 1 when k = 0,
    even for x = 0, where that formula would be C(-1, 0), which math.comb
    refuses."""
    if x < 0:
        raise ValueError(f"multichoose needs a nonnegative base, got {x}")
    if k < 0:
        raise ValueError(f"choice count must be >= 0, got {k}")
    if x == 0:
        return int(k == 0)
    return math.comb(x + k - 1, k)


@lru_cache(maxsize=128)
def _stirling_row(i: int) -> tuple[int, ...]:
    # Row i holds s(i, p) for p = 0..i, built upward from row 0 by
    # s(j, p) = s(j-1, p-1) - (j-1)*s(j-1, p): a loop, so no recursion limit.
    row = [1]
    for j in range(1, i + 1):
        row = [left - (j - 1) * above for left, above in zip([0, *row], [*row, 0])]
    return tuple(row)


@lru_cache(maxsize=128)
def _stirling_second_row(a: int) -> tuple[int, ...]:
    # Row a holds S(a, r) for r = 0..a, the number of ways to split a labelled
    # items into r nonempty blocks, built upward from row 0 by
    # S(j, r) = S(j-1, r-1) + r*S(j-1, r).
    row = [1]
    for _ in range(a):
        row = [left + r * above for r, left, above in zip(range(len(row) + 1), [0, *row], [*row, 0])]
    return tuple(row)


def stirling_first_signed(i: int, p: int) -> int:
    """Signed Stirling number of the first kind s(i, p): the coefficient of
    x^p in the falling factorial x(x-1)...(x-i+1).  s(0, 0) = 1; p > i gives 0."""
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    if p > i:
        return 0
    return _stirling_row(i)[p]


def multinomial(p: int, parts: Sequence[int]) -> int:
    """p! / (parts[0]! * ... * parts[-1]!): how many ways the positive
    exponents `parts` (which must sum to p) can be distributed."""
    parts = tuple(parts)
    if any(a < 1 for a in parts):
        raise ValueError(f"exponent vector parts must all be >= 1, got {parts}")
    if sum(parts) != p:
        raise ValueError(f"exponent vector {parts} does not sum to {p}")
    return math.factorial(p) // math.prod(math.factorial(a) for a in parts)
