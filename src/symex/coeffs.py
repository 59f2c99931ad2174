"""The sieve coefficients C_1..C_h that weight the extraction brackets.

Two independent routes produce them: the triangular recurrence read off
the bracket multiplicities, and the closed form
C_h = (-1)^(h-1) * multichoose(n-i+1, h-1).  The verifiers here check the
complete convolution (every partial sum equals 1) and the negative-upper-
index Vandermonde specialization that identifies the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigcomb import binomial_first, binomial_second
from .report import Report

__all__ = [
    "CoefficientSequence",
    "coeff_closed",
    "coeff_closed_sequence",
    "coeff_recurrence",
    "verify_convolution",
    "vandermonde_degeneration_check",
]

ROUTES = ("recurrence", "closed_form")


@dataclass(frozen=True)
class CoefficientSequence:
    """C_1..C_h for fixed (n, i), tagged with the route that produced it."""

    n: int
    i: int
    values: tuple[int, ...]
    route: str

    def __post_init__(self) -> None:
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}, expected one of {ROUTES}")

    def __getitem__(self, h: int) -> int:
        """1-based access: seq[h] is C_h."""
        if h < 1:
            raise IndexError(f"coefficient index starts at 1, got {h}")
        return self.values[h - 1]


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


def coeff_closed_sequence(n: int, i: int, h_max: int) -> CoefficientSequence:
    """C_1..C_h_max straight from the closed form."""
    if h_max < 1:
        raise ValueError(f"need h_max >= 1, got {h_max}")
    values = tuple(coeff_closed(n, i, h) for h in range(1, h_max + 1))
    return CoefficientSequence(n, i, values, "closed_form")


def coeff_recurrence(n: int, i: int, h_max: int) -> CoefficientSequence:
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
    return CoefficientSequence(n, i, tuple(values), "recurrence")


def verify_convolution(n: int, i: int, h_max: int, seq: CoefficientSequence) -> Report:
    """Check the complete convolution 1 = sum_{k=1}^{h} C_k * C(n-i+h, h-k)
    for every h up to h_max, using the supplied coefficient sequence."""
    _check_order(n, i)
    if len(seq.values) < h_max:
        raise ValueError(f"sequence has {len(seq.values)} coefficients, need {h_max}")
    report = Report()
    for h in range(1, h_max + 1):
        total = sum(seq[k] * binomial_first(n - i + h, h - k) for k in range(1, h + 1))
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
