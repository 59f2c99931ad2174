import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symex.coeffs import coeff_closed
from symex.series import (
    TruncatedSeries,
    series_add,
    series_binomial_power,
    series_from,
    series_mul,
    series_scale,
    series_x_over_one_minus_x_pow,
    series_zero,
    verify_gf_transformed,
    verify_gf_untransformed,
)

short_series = st.integers(0, 16).flatmap(
    lambda order: st.lists(st.integers(-50, 50), min_size=order + 1, max_size=order + 1).map(
        lambda coeffs: TruncatedSeries(order, tuple(coeffs))
    )
)


def triple_at_same_order(draw):
    order = draw(st.integers(0, 12))
    make = lambda: TruncatedSeries(
        order, tuple(draw(st.lists(st.integers(-20, 20), min_size=order + 1, max_size=order + 1)))
    )
    return make(), make(), make()


same_order_triples = st.composite(triple_at_same_order)()


def test_construction_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (1, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())
    assert series_from((1, 2), 4).coeffs == (1, 2, 0, 0, 0)
    assert series_from((1, 2, 3, 4), 1).coeffs == (1, 2)


def test_add_and_mul_examples():
    one_plus_x = series_from((1, 1), 2)
    one_minus_x = series_from((1, -1), 2)
    assert series_add(one_plus_x, one_minus_x).coeffs == (2, 0, 0)
    assert series_add(one_plus_x, series_zero(2)).coeffs == one_plus_x.coeffs
    assert series_scale(one_plus_x, -3).coeffs == (-3, -3, 0)
    assert series_mul(one_plus_x, one_plus_x).coeffs == (1, 2, 1)
    assert series_mul(one_plus_x, series_from((1,), 2)).coeffs == one_plus_x.coeffs
    x = series_from((0, 1), 1)
    assert series_add(x, x).coeffs == (0, 2)
    assert series_mul(x, x).coeffs == (0, 0)  # x^2 truncated away


def test_order_mismatch_errors():
    with pytest.raises(ValueError):
        series_add(series_zero(2), series_zero(3))
    with pytest.raises(ValueError):
        series_mul(series_zero(2), series_zero(3))


@given(same_order_triples)
def test_ring_laws(triple):
    a, b, c = triple
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
    assert series_mul(a, series_add(b, c)) == series_add(series_mul(a, b), series_mul(a, c))


def test_binomial_power_examples():
    assert series_binomial_power("minus", 2, 3).coeffs == (1, -2, 1, 0)
    assert series_binomial_power("plus", -3, 3).coeffs == (1, -3, 6, -10)
    assert series_binomial_power("plus", 0, 4).coeffs == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        series_binomial_power("times", 2, 3)


def test_x_over_one_minus_x_examples():
    assert series_x_over_one_minus_x_pow(1, 3).coeffs == (0, 1, 1, 1)
    assert series_x_over_one_minus_x_pow(2, 3).coeffs == (0, 0, 1, 2)
    assert series_x_over_one_minus_x_pow(4, 3).coeffs == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        series_x_over_one_minus_x_pow(0, 3)


def test_x_over_one_minus_x_is_the_product_form():
    # same thing computed through the generic ops: x^k * (1-x)^(-k)
    for k in range(1, 6):
        shifted = series_from((0,) * k + (1,), 12)
        direct = series_mul(shifted, series_binomial_power("minus", -k, 12))
        assert series_x_over_one_minus_x_pow(k, 12) == direct


def test_gf_untransformed_examples():
    report = verify_gf_untransformed(5, 3, 10)
    assert report.ok
    # the left side is the polynomial x(1-x)^2 = x - 2x^2 + x^3 exactly
    lhs = [check.expected for check in report.checks]
    assert lhs == [0, 1, -2, 1] + [0] * 7
    assert verify_gf_untransformed(7, 7, 10).ok  # i = n telescopes to plain x
    assert [c.expected for c in verify_gf_untransformed(7, 7, 10).checks][:3] == [0, 1, 0]
    assert verify_gf_untransformed(6, 2, 30).ok


def test_gf_transformed_examples():
    report = verify_gf_transformed(5, 3, 3)
    assert report.ok
    assert [check.observed for check in report.checks] == [0, 1, -3, 6]
    alternating = verify_gf_transformed(4, 4, 3)
    assert alternating.ok
    assert [check.observed for check in alternating.checks] == [0, 1, -1, 1]
    assert verify_gf_transformed(6, 2, 30).ok


def test_gf_transformed_note_mentions_rejected_variant():
    assert "C(n-i+k+1, k)" in verify_gf_transformed.__doc__
    # C_2 at n=5, i=3 is -C(3, 1); the rejected one-larger variant gives -C(4, 1)
    assert coeff_closed(5, 3, 2) == -math.comb(3, 1) != -math.comb(4, 1)


def test_substitution_coherence_grid():
    # both identities hold on the same (n, i) grid; full n <= 12 sweep is in acceptance
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert verify_gf_untransformed(n, i, 20).ok
            assert verify_gf_transformed(n, i, 20).ok


def test_all_coefficients_are_exact_integers():
    for n, i in ((5, 3), (9, 1), (6, 6)):
        for series in (
            series_binomial_power("plus", -(n - i + 1), 15),
            series_binomial_power("minus", n - i, 15),
            series_x_over_one_minus_x_pow(3, 15),
        ):
            assert all(type(c) is int for c in series.coeffs)
