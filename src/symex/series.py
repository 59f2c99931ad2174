"""Truncated integer power series as coefficient tuples.

A series truncated at order T is the tuple (a_0, ..., a_T) of exact
integers.  This is the vehicle for the generating-function route to the
sieve coefficients: x(1-x)^(n-i) expanded in powers of x/(1-x), and its
substitution image x(1+x)^(-(n-i+1)) whose plain coefficients are the C_k
directly.
"""

from __future__ import annotations

from .bigcomb import binomial_first, binomial_second
from .coeffs import _check_order, coeff_closed
from .report import Report

__all__ = ["series_mul", "verify_gf_untransformed", "verify_gf_transformed"]


def series_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Cauchy product of two coefficient tuples, truncated at their shared order."""
    if len(a) != len(b):
        raise ValueError(f"truncation orders differ: {len(a) - 1} vs {len(b) - 1}")
    out = [0] * len(a)
    for j, aj in enumerate(a):
        if aj == 0:
            continue
        for t in range(len(a) - j):
            out[j + t] += aj * b[t]
    return tuple(out)


def verify_gf_untransformed(n: int, i: int, order: int) -> Report:
    """Compare x(1-x)^(n-i) with sum_k C_k * (x/(1-x))^k coefficient by
    coefficient up to the truncation order, with closed-form C_k."""
    _check_order(n, i)
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    x = (0, 1) + (0,) * (order - 1)
    one_minus_x_pow = tuple((-1) ** j * binomial_first(n - i, j) for j in range(order + 1))
    lhs = series_mul(x, one_minus_x_pow)
    weights = [coeff_closed(n, i, k) for k in range(1, order + 1)]
    report = Report()
    for j in range(order + 1):
        # (x/(1-x))^k = x^k (1-x)^(-k) starts at x^k, and its coefficient of x^j is multichoose(k, j-k).
        rhs = sum(weights[k - 1] * binomial_second(k, j - k) for k in range(1, j + 1))
        report.add(f"x^{j}", lhs[j], rhs)
    return report


def verify_gf_transformed(n: int, i: int, order: int) -> Report:
    """Expand x(1+x)^(-(n-i+1)) and check that the coefficient of x^k is the
    closed-form C_k for every k up to the truncation order.

    The expansion used is [x^(k+1)] x(1+x)^(-(n-i+1)) = (-1)^k C(n-i+k, k);
    the one-larger variant (-1)^k C(n-i+k+1, k) does not satisfy the
    convolution for n > i and is rejected.
    """
    _check_order(n, i)
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    x = (0, 1) + (0,) * (order - 1)
    # The generalized binomial C(e, j) stays integral for negative e, so no rationals appear.
    one_plus_x_pow = tuple(binomial_first(-(n - i + 1), j) for j in range(order + 1))
    expansion = series_mul(x, one_plus_x_pow)
    report = Report()
    report.add("x^0", 0, expansion[0])
    for k in range(1, order + 1):
        report.add(f"x^{k}", coeff_closed(n, i, k), expansion[k])
    return report
