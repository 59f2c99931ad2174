"""The sieve coefficients C_1..C_h that weight the extraction brackets.

Two independent routes produce them: the triangular recurrence read off
the bracket multiplicities, and the closed form
C_h = (-1)^(h-1) * multichoose(n-i+1, h-1).  The verifiers here check the
complete convolution (every partial sum equals 1) and the negative-upper-
index Vandermonde specialization that identifies the closed form.
A coefficient sequence is the plain tuple (C_1, ..., C_h_max).
"""

from __future__ import annotations

from .bigcomb import binomial_first, binomial_second
from .report import Report

__all__ = [
    "coeff_closed",
    "coeff_closed_sequence",
    "coeff_recurrence",
    "verify_convolution",
    "vandermonde_degeneration_check",
]


def _check_order(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")


def coeff_closed(n: int, i: int, h: int) -> int:
    """Closed form C_h = (-1)^(h-1) * multichoose(n-i+1, h-1)."""
    _check_order(n, i)
    if h < 1:
        raise ValueError(f"coefficient index must be >= 1, got {h}")
    magnitude = binomial_second(n - i + 1, h - 1)
    return magnitude if h % 2 == 1 else -magnitude


def coeff_closed_sequence(n: int, i: int, h_max: int) -> tuple[int, ...]:
    """C_1..C_h_max straight from the closed form."""
    if h_max < 1:
        raise ValueError(f"need h_max >= 1, got {h_max}")
    return tuple(coeff_closed(n, i, h) for h in range(1, h_max + 1))


def coeff_recurrence(n: int, i: int, h_max: int) -> tuple[int, ...]:
    """Solve C_h = 1 - sum_{k=1}^{h-1} C_k * C(n-i+h, h-k) forward from C_1 = 1.

    Never consults the closed form, so the result is an independent route.
    """
    _check_order(n, i)
    if h_max < 1:
        raise ValueError(f"need h_max >= 1, got {h_max}")
    values: list[int] = []
    for h in range(1, h_max + 1):
        acc = 1
        for k in range(1, h):
            acc -= values[k - 1] * binomial_first(n - i + h, h - k)
        values.append(acc)
    return tuple(values)


def verify_convolution(n: int, i: int, values: tuple[int, ...]) -> Report:
    """Check the complete convolution 1 = sum_{k=1}^{h} C_k * C(n-i+h, h-k)
    for every h up to len(values), using the supplied values (C_1, C_2, ...)."""
    _check_order(n, i)
    report = Report()
    for h in range(1, len(values) + 1):
        total = sum(values[k - 1] * binomial_first(n - i + h, h - k) for k in range(1, h + 1))
        report.add(f"h={h}", 1, total)
    return report


def vandermonde_degeneration_check(n: int, i: int, h: int) -> Report:
    """Evaluate 1 = sum_{k=0}^{h} C(-n+i-1, k) * C(n-i+h+1, h-k), the
    Vandermonde identity specialized at negative upper index -n+i-1, and
    confirm term by term that C(-n+i-1, k) is the closed-form C_{k+1}."""
    _check_order(n, i)
    if h < 0:
        raise ValueError(f"need h >= 0, got {h}")
    upper = -n + i - 1
    report = Report()
    total = sum(binomial_first(upper, k) * binomial_first(n - i + h + 1, h - k) for k in range(h + 1))
    report.add("sum", 1, total)
    for k in range(h + 1):
        report.add(f"term k={k}", coeff_closed(n, i, k + 1), binomial_first(upper, k))
    return report
