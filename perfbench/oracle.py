"""Reference values for checking symex output, computed without symex.

Two independent formulas, written out here rather than imported:

* e_0..e_n of a root set as the coefficients of prod_j (1 + m_j x);
* the sieve weight C_h = (-1)^(h-1) * multichoose(n-i+1, h-1), with
  multichoose(a, k) = C(a+k-1, k).
"""

from __future__ import annotations

from math import comb
from typing import Sequence


def esp_reference(roots: Sequence[int]) -> list[int]:
    """e_0..e_n: multiply out prod_j (1 + m_j x) one factor at a time."""
    coeffs = [1]
    for m in roots:
        coeffs = [low + m * high for low, high in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def sieve_weight(n: int, i: int, h: int) -> int:
    """C_h for 1 <= i <= n and h >= 1, by the closed form."""
    magnitude = comb(n - i + h - 1, h - 1)
    return magnitude if h % 2 == 1 else -magnitude


def triangle_row(family: str, n: int) -> list[int]:
    """Row n of `specialize`: e_0..e_n of n ones (pascal) or of 1..n (stirling1)."""
    roots = [1] * n if family == "pascal" else list(range(1, n + 1))
    return esp_reference(roots)
