import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symex.bigcomb import (
    _stirling_second_row,
    binomial_first,
    binomial_second,
    multinomial,
    stirling_first_signed,
)


def falling_factorial(x, k):
    """Oracle: x(x-1)...(x-k+1), multiplied out, with the empty product 1 for k = 0."""
    out = 1
    for j in range(k):
        out *= x - j
    return out


def falling_poly_coeffs(i):
    """Oracle: coefficient list (by power) of x(x-1)...(x-i+1), expanded directly."""
    coeffs = [1]
    for j in range(i):
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= j * c
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize(
    "x, k, expected",
    [(5, 2, 20), (7, 0, 1), (0, 0, 1), (-3, 2, 12), (3, 5, 0), (-1, 3, -6)],
)
def test_falling_factorial(x, k, expected):
    assert falling_factorial(x, k) == expected == binomial_first(x, k) * math.factorial(k)


def test_falling_factorial_rejects_negative_count():
    # C(x, k) is x^(k) / k!, and a negative count of factors is refused there
    for x in (5, 0, -3):
        with pytest.raises(ValueError):
            binomial_first(x, -1)


@pytest.mark.parametrize(
    "x, k, expected",
    [(5, 2, 10), (9, 0, 1), (-3, 2, 6), (4, 7, 0), (-1, 5, -1), (0, 0, 1)],
)
def test_binomial_first(x, k, expected):
    assert binomial_first(x, k) == expected


@pytest.mark.parametrize("x, k, expected", [(3, 2, 6), (11, 0, 1), (0, 0, 1), (2, 3, 4), (0, 4, 0)])
def test_binomial_second(x, k, expected):
    assert binomial_second(x, k) == expected


def test_binomial_second_rejects_negative_base():
    with pytest.raises(ValueError):
        binomial_second(-1, 2)
    with pytest.raises(ValueError):
        binomial_second(3, -1)


@given(x=st.integers(-40, 40), k=st.integers(0, 20))
def test_binomial_first_is_falling_over_factorial(x, k):
    assert binomial_first(x, k) * math.factorial(k) == falling_factorial(x, k)


def test_pascal_rule():
    for x in range(-30, 31):
        for k in range(1, 16):
            assert binomial_first(x, k) == binomial_first(x - 1, k - 1) + binomial_first(x - 1, k)


def test_negation_reflection():
    # C(-x, k) = (-1)^k * multichoose(x, k)
    for x in range(31):
        for k in range(16):
            assert binomial_first(-x, k) == (-1) ** k * binomial_second(x, k)


def rising_factorial(x, k):
    """Oracle: x(x+1)...(x+k-1), multiplied out, with the empty product 1 for k = 0."""
    out = 1
    for j in range(k):
        out *= x + j
    return out


def test_second_kind_as_shifted_first_kind():
    # binomial_second is math.comb(x+k-1, k), so the oracle is the rising
    # factorial over k!, not another binomial
    for x in range(31):
        for k in range(16):
            expected = rising_factorial(x, k) // math.factorial(k)
            assert binomial_second(x, k) == expected == binomial_first(x + k - 1, k)


def test_stirling_against_expansion_oracle():
    for i in range(11):
        coeffs = falling_poly_coeffs(i)
        for p in range(i + 1):
            assert stirling_first_signed(i, p) == coeffs[p]


@pytest.mark.parametrize("i, p, expected", [(4, 2, 11), (4, 4, 1), (4, 1, -6), (0, 0, 1), (3, 5, 0)])
def test_stirling_values(i, p, expected):
    assert stirling_first_signed(i, p) == expected


def test_stirling_rows_past_the_recursion_limit():
    assert stirling_first_signed(1200, 1) == (-1) ** 1199 * math.factorial(1199)
    assert stirling_first_signed(1200, 1200) == 1


def test_stirling_generates_falling_factorial():
    for n in range(21):
        for i in range(11):
            total = sum(stirling_first_signed(i, p) * n**p for p in range(i + 1))
            assert total == falling_factorial(n, i)


def test_stirling_second_kind_against_its_explicit_sum():
    # S(a, r) = (1/r!) sum_q (-1)^(r-q) C(r, q) q^a: surjections of a onto r, over r!
    for a in range(31):
        row = _stirling_second_row(a)
        assert len(row) == a + 1
        for r in range(a + 1):
            surjections = sum((-1) ** (r - q) * math.comb(r, q) * q**a for q in range(r + 1))
            assert row[r] * math.factorial(r) == surjections
    assert _stirling_second_row(4) == (0, 1, 7, 6, 1)


def test_stirling_triangles_are_inverse():
    # sum_a S(k, a) s(a, r) = [k == r] and sum_a s(k, a) S(a, r) = [k == r], up to 30
    size = 31
    second = [list(_stirling_second_row(a)) + [0] * (size - a - 1) for a in range(size)]
    first = [[stirling_first_signed(i, p) for p in range(size)] for i in range(size)]
    for k in range(size):
        for r in range(size):
            assert sum(second[k][a] * first[a][r] for a in range(size)) == (k == r)
            assert sum(first[k][a] * second[a][r] for a in range(size)) == (k == r)


@pytest.mark.parametrize(
    "p, parts, expected",
    [(2, (1, 1), 2), (4, (2, 2), 6), (5, (5,), 1), (3, (2, 1), 3), (4, (1, 1, 1, 1), 24)],
)
def test_multinomial(p, parts, expected):
    assert multinomial(p, parts) == expected


def test_multinomial_rejects_bad_vectors():
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))  # sum mismatch
    with pytest.raises(ValueError):
        multinomial(2, (2, 0))  # zero part


@given(parts=st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_multinomial_counts_orderings(parts):
    # p! / prod(a!) is the number of distinct letter arrangements; always integral and >= 1.
    p = sum(parts)
    value = multinomial(p, parts)
    assert value >= 1
    assert value * math.prod(math.factorial(a) for a in parts) == math.factorial(p)
