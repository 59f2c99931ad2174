"""Truncated formal power series over exact integers.

Fixed truncation order, eager coefficient lists.  This is the vehicle for
the generating-function route to the sieve coefficients: x(1-x)^(n-i)
expanded in powers of x/(1-x), and its substitution image
x(1+x)^(-(n-i+1)) whose plain coefficients are the C_k directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bigcomb import binomial_first, binomial_second
from .coeffs import coeff_closed
from .report import Report

__all__ = [
    "TruncatedSeries",
    "series_from",
    "series_zero",
    "series_add",
    "series_scale",
    "series_mul",
    "series_binomial_power",
    "series_x_over_one_minus_x_pow",
    "verify_gf_untransformed",
    "verify_gf_transformed",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients a_0..a_T; arithmetic never reads past index T."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} coefficients for order {self.order}, got {len(self.coeffs)}"
            )

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]


def series_from(coeffs: Sequence[int], order: int) -> TruncatedSeries:
    """Build a series from low-order coefficients, padding or truncating to order."""
    padded = tuple(coeffs[: order + 1]) + (0,) * max(0, order + 1 - len(coeffs))
    return TruncatedSeries(order, padded)


def series_zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (0,) * (order + 1))


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"truncation orders differ: {a.order} vs {b.order}")


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_orders(a, b)
    return TruncatedSeries(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def series_scale(a: TruncatedSeries, c: int) -> TruncatedSeries:
    return TruncatedSeries(a.order, tuple(c * x for x in a.coeffs))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated at the shared order."""
    _check_orders(a, b)
    out = [0] * (a.order + 1)
    for j, aj in enumerate(a.coeffs):
        if aj == 0:
            continue
        for t in range(a.order + 1 - j):
            out[j + t] += aj * b.coeffs[t]
    return TruncatedSeries(a.order, tuple(out))


def series_binomial_power(sign: str, exponent: int, order: int) -> TruncatedSeries:
    """(1 + x)^e or (1 - x)^e truncated at `order`.

    Works for any integer exponent; negative exponents use the generalized
    binomial C(e, j), which stays integral, so no rationals appear.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    unit = 1 if sign == "plus" else -1
    coeffs = tuple(binomial_first(exponent, j) * unit**j for j in range(order + 1))
    return TruncatedSeries(order, coeffs)


def series_x_over_one_minus_x_pow(k: int, order: int) -> TruncatedSeries:
    """(x / (1-x))^k = x^k * (1-x)^(-k), truncated at `order`.

    Leading order is x^k, so for order < k the result is identically zero.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    coeffs = tuple(0 if j < k else binomial_second(k, j - k) for j in range(order + 1))
    return TruncatedSeries(order, coeffs)


def verify_gf_untransformed(n: int, i: int, order: int) -> Report:
    """Compare x(1-x)^(n-i) with sum_k C_k * (x/(1-x))^k coefficient by
    coefficient up to the truncation order, with closed-form C_k."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    lhs = series_mul(series_from((0, 1), order), series_binomial_power("minus", n - i, order))
    rhs = series_zero(order)
    # (x/(1-x))^k starts at x^k, so k beyond the truncation order contributes nothing.
    for k in range(1, order + 1):
        rhs = series_add(rhs, series_scale(series_x_over_one_minus_x_pow(k, order), coeff_closed(n, i, k)))
    report = Report()
    for j in range(order + 1):
        report.add(f"x^{j}", lhs[j], rhs[j])
    return report


def verify_gf_transformed(n: int, i: int, order: int) -> Report:
    """Expand x(1+x)^(-(n-i+1)) and check that the coefficient of x^k is the
    closed-form C_k for every k up to the truncation order.

    The expansion used is [x^(k+1)] x(1+x)^(-(n-i+1)) = (-1)^k C(n-i+k, k);
    the one-larger variant (-1)^k C(n-i+k+1, k) does not satisfy the
    convolution for n > i and is rejected.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    expansion = series_mul(series_from((0, 1), order), series_binomial_power("plus", -(n - i + 1), order))
    report = Report()
    report.add("x^0", 0, expansion[0])
    for k in range(1, order + 1):
        report.add(f"x^{k}", coeff_closed(n, i, k), expansion[k])
    return report
