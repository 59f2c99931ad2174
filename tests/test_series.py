import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symex.bigcomb import binomial_second
from symex.coeffs import coeff_closed
from symex.series import series_mul, verify_gf_transformed, verify_gf_untransformed


def triple_at_same_order(draw):
    order = draw(st.integers(0, 12))
    make = lambda: tuple(draw(st.lists(st.integers(-20, 20), min_size=order + 1, max_size=order + 1)))
    return make(), make(), make()


same_order_triples = st.composite(triple_at_same_order)()


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_mul_examples():
    one_plus_x = (1, 1, 0)
    assert series_mul(one_plus_x, one_plus_x) == (1, 2, 1)
    assert series_mul(one_plus_x, (1, 0, 0)) == one_plus_x
    assert series_mul((1, -1, 0), one_plus_x) == (1, 0, -1)
    x = (0, 1)
    assert series_mul(x, x) == (0, 0)  # x^2 truncated away


def test_order_mismatch_errors():
    with pytest.raises(ValueError, match="truncation orders differ: 2 vs 3"):
        series_mul((0, 0, 0), (0, 0, 0, 0))


@given(same_order_triples)
def test_ring_laws(triple):
    a, b, c = triple
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
    assert series_mul(a, add(b, c)) == add(series_mul(a, b), series_mul(a, c))


def test_x_over_one_minus_x_examples():
    x_over_one_minus_x = (0, 1, 1, 1)
    assert series_mul(x_over_one_minus_x, x_over_one_minus_x) == (0, 0, 1, 2)
    power = x_over_one_minus_x
    for _ in range(3):
        power = series_mul(power, x_over_one_minus_x)
    assert power == (0, 0, 0, 0)  # (x/(1-x))^4 starts at x^4


def test_x_over_one_minus_x_is_the_product_form():
    # (x/(1-x))^k, the k-fold product of x + x^2 + ..., has coefficient multichoose(k, j-k) at x^j
    order = 12
    x_over_one_minus_x = (0,) + (1,) * order
    power = x_over_one_minus_x
    for k in range(1, 6):
        assert power == tuple(0 if j < k else binomial_second(k, j - k) for j in range(order + 1))
        power = series_mul(power, x_over_one_minus_x)


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
        for report in (verify_gf_untransformed(n, i, 15), verify_gf_transformed(n, i, 15)):
            assert all(type(c.expected) is int and type(c.observed) is int for c in report.checks)
