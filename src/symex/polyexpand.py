"""Monomial coefficients of the expanded binomial product C(m_1+...+m_n, i).

Writing the falling factorial through signed Stirling numbers,
C(N, i) = (1/i!) sum_p s(i, p) N^p with N = m_1+...+m_n, the coefficient of
a monomial with positive exponent vector lambda (|lambda| = p) is
s(i, p) * multinomial(p; lambda) / i!, independent of n.  Grouping terms by
their support subset gives the layer decomposition whose top layer
(support size i, total power i) is exactly e_i.  The layer check builds
each order-i, support-size-s table of exponent vectors and their i!-scaled
coefficients once per process and shares it across every root set.  Each
ordered s-tuple of roots has its i!-scaled monomial sum evaluated once and
cached with its table, so clearing the table cache drops those sums too.

Signs follow the signed-Stirling expansion of the falling factorial: at
order 4 the two-element coefficients are +22/4!, -18/4!, +4/4!, +6/4!, and
the all-ones coefficient is +1, which pins the convention; the alternative
listing -22/4!, +18/4!, -4/4!, -6/4! is inconsistent with that +1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul, sub
from typing import Callable, Iterator

# The top layer is compared with `esp.esp_direct` looked up on its home module,
# so a patch or wrapper on `symex.esp.esp_direct` is seen here too.
from . import esp
from .bigcomb import binomial_first, multinomial, stirling_first_signed
from .coeffs import _check_order
from .report import Report
from .rootset import RootSet

__all__ = [
    "monomial_coefficient",
    "verify_layer_decomposition",
]


def monomial_coefficient(i: int, exponents: tuple[int, ...]) -> Fraction:
    """Exact coefficient of prod_r m_{j_r}^{lambda_r} in the expansion of
    C(m_1+...+m_n, i): s(i, p) * multinomial(p; lambda) / i!.

    `exponents` are the positive lambda_1..lambda_s, at least one.  The
    coefficient is independent of n and of which distinct indices carry the
    exponents.  Total powers p above i are absent from the expansion, so
    they yield 0.
    """
    if i < 1:
        raise ValueError(f"order must be >= 1, got {i}")
    if not exponents:
        raise ValueError("exponent vector needs at least one part")
    if any(a < 1 for a in exponents):
        raise ValueError(f"exponent vector parts must all be >= 1, got {exponents}")
    p = sum(exponents)
    if p > i:
        # s(i, p) = 0; returning first skips multinomial's p!, which takes
        # 20 s at p = 10^6 (CPython 3.11, 2-core x86-64 VM)
        return Fraction(0)
    numerator = stirling_first_signed(i, p) * multinomial(p, exponents)
    return Fraction(numerator, math.factorial(i))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # All orderings of `total` into `parts` positive summands, lexicographic:
    # the gaps between the cut points 0 < c_1 < ... < c_(parts-1) < total.
    return (tuple(map(sub, (*cuts, total), (0, *cuts))) for cuts in combinations(range(1, total), parts - 1))


@lru_cache(maxsize=64)
def _layer_table(i: int, s: int) -> Callable[[tuple[int, ...]], int]:
    # Every exponent vector of support size s and total power s..i, with its
    # i!-scaled coefficient s(i, p) * multinomial(p; lambda).  Depends on
    # (i, s) only, never on the roots.  Returns the i!-scaled sum of one
    # s-tuple's monomials, cached per tuple in the order given (up to 4,096
    # tuples per table).  Keys are never sorted: the cache assumes no symmetry
    # of the coefficients, so a defect that breaks it still shows.
    table = [
        (comp, stirling_first_signed(i, p) * multinomial(p, comp))
        for p in range(s, i + 1)
        for comp in _compositions(p, s)
    ]
    exponents, scaled = zip(*table)

    @lru_cache(maxsize=4096)
    def subset_sum(ms: tuple[int, ...]) -> int:
        return sum(map(mul, scaled, [math.prod(map(pow, ms, comp)) for comp in exponents]))

    return subset_sum


def verify_layer_decomposition(roots: RootSet, i: int) -> Report:
    """Rebuild C(m_1+...+m_n, i) by summing every support layer, and check
    that the top layer (support = power = i) alone is exactly e_i."""
    _check_order(roots.n, i)
    # Accumulate i! * coefficient as plain integers; divide once at the end.
    total_scaled = 0
    for s in range(1, i + 1):
        layer_scaled = sum(map(_layer_table(i, s), combinations(roots.elements, s)))
        total_scaled += layer_scaled
    top_scaled = layer_scaled  # the last layer, s = i
    fact_i = math.factorial(i)
    report = Report()
    report.add("full expansion", binomial_first(roots.total, i), Fraction(total_scaled, fact_i))
    report.add(f"top layer s=p={i}", esp.esp_direct(roots, i), Fraction(top_scaled, fact_i))
    return report
