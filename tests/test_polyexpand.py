import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symex import polyexpand
from symex.esp import esp_all
from symex.polyexpand import _compositions, monomial_coefficient, verify_layer_decomposition
from symex.rootset import RootSet


def test_exponent_vector_validation():
    # (2, 1) has total power p = 3: present at order 3, absent (p > i) at order 2
    assert monomial_coefficient(3, (2, 1)) == Fraction(3, 6)
    assert monomial_coefficient(2, (2, 1)) == 0
    assert all(sum(vec) == 3 and len(vec) == 2 for vec in _compositions(3, 2))
    # malformed vectors are refused before the p > i shortcut could hide them
    for bad in ((), (1, 0), (5, 0), (0,)):
        with pytest.raises(ValueError):
            monomial_coefficient(4, bad)


def test_compositions_are_listed_in_lexicographic_order():
    # the layer tables hold their exponent vectors in this order
    assert list(_compositions(5, 3)) == [(1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]
    assert list(_compositions(4, 1)) == [(4,)] and list(_compositions(4, 4)) == [(1, 1, 1, 1)]
    assert list(_compositions(2, 3)) == []
    assert [len(list(_compositions(p, s))) for p in range(1, 12) for s in range(1, p + 1)] == [
        math.comb(p - 1, s - 1) for p in range(1, 12) for s in range(1, p + 1)
    ]


def test_order_four_two_element_coefficients():
    # hand expansion of C(N, 4) restricted to a two-element support
    assert monomial_coefficient(4, (1, 1)) == Fraction(22, 24)
    assert monomial_coefficient(4, (2, 1)) == Fraction(-18, 24)
    assert monomial_coefficient(4, (1, 2)) == Fraction(-18, 24)
    assert monomial_coefficient(4, (3, 1)) == Fraction(4, 24)
    assert monomial_coefficient(4, (2, 2)) == Fraction(6, 24)


def test_all_ones_coefficient_is_one():
    for i in range(1, 9):
        assert monomial_coefficient(i, (1,) * i) == 1


def test_monomial_coefficient_edges():
    assert monomial_coefficient(3, (2, 2)) == 0  # p > i: term absent
    assert monomial_coefficient(4, (1, 3)) == Fraction(4, 24)
    with pytest.raises(ValueError):
        monomial_coefficient(0, (1,))
    with pytest.raises(ValueError):
        monomial_coefficient(4, (1, 0))


def test_denominators_divide_i_factorial():
    for i in range(1, 7):
        for p in range(1, i + 1):
            for s in range(1, p + 1):
                for vec in _compositions(p, s):
                    assert math.factorial(i) % monomial_coefficient(i, vec).denominator == 0


def test_layer_decomposition_examples():
    report = verify_layer_decomposition(RootSet.of(2, 3, 4), 3)
    assert report.ok
    assert report.checks[0].expected == 84  # C(9, 3)
    assert report.checks[1].expected == 24
    tiny = verify_layer_decomposition(RootSet.of(1, 1), 2)
    assert tiny.ok and tiny.checks[0].expected == 1
    big = verify_layer_decomposition(RootSet.of(2, 3, 4, 5), 4)
    assert big.ok
    assert big.checks[0].expected == 1001 and big.checks[1].expected == 120


def test_layer_decomposition_exhaustive_small():
    # n <= 4 here; the n <= 5 sweep is in the acceptance suite
    for n in range(1, 5):
        for tup in product(range(1, 5), repeat=n):
            roots = RootSet(tup)
            for i in range(1, n + 1):
                assert verify_layer_decomposition(roots, i).ok


def test_coefficients_do_not_depend_on_n():
    # the same support inside a strictly larger root set still decomposes
    # with the same per-monomial coefficients
    inner = RootSet.of(2, 5, 3)
    outer = RootSet.of(2, 5, 3, 7, 4)
    for i in range(1, inner.n + 1):
        assert verify_layer_decomposition(inner, i).ok
        assert verify_layer_decomposition(outer, i).ok


def test_sign_convention_is_documented():
    # verify.layer_checks pins the convention; test_verify flips it and sees every value fail
    doc = " ".join(polyexpand.__doc__.split())
    assert "signed-Stirling expansion" in doc
    assert "+22/4!, -18/4!, +4/4!, +6/4!, and the all-ones coefficient is +1" in doc


def test_monomial_coefficient_at_high_order():
    # s(1200, 1) / 1200! = (-1)^1199 * 1199! / 1200!
    assert monomial_coefficient(1200, (1,)) == Fraction(-1, 1200)


def test_layer_decomposition_outside_the_sweep():
    # larger sets and wider roots than the n <= 5, m <= 4 sweep, at every order
    rng = random.Random(5)
    for n in (6, 7):
        for width in (10, 10**6):
            roots = RootSet(tuple(rng.randint(1, width) for _ in range(n)))
            per_order = esp_all(roots)
            for i in range(1, n + 1):
                report = verify_layer_decomposition(roots, i)
                assert report.ok
                assert report.checks[0].observed == math.comb(roots.total, i)
                assert report.checks[1].observed == per_order[i]


def spelled_out_layers(elements, i):
    # every layer s = 1..i summed monomial by monomial, with no table and no cache
    return [
        sum(
            monomial_coefficient(i, comp) * math.prod(map(pow, ms, comp))
            for ms in combinations(elements, s)
            for p in range(s, i + 1)
            for comp in _compositions(p, s)
        )
        for s in range(1, i + 1)
    ]


# A few wide values repeated in any order: the memo sees both (a, b) and (b, a).
wide_root_sets = st.lists(st.integers(1, 1 << 64), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7)
)


@given(elements=wide_root_sets, data=st.data())
@settings(max_examples=40, deadline=None)
def test_memoized_layers_equal_the_spelled_out_sum(elements, data):
    i = data.draw(st.integers(1, min(6, len(elements))))
    layers = spelled_out_layers(elements, i)
    for ordering in (elements, elements[::-1], elements):
        report = verify_layer_decomposition(RootSet(tuple(ordering)), i)
        assert report.checks[0].observed == sum(layers) == math.comb(sum(elements), i)
        assert report.checks[1].observed == layers[-1]
