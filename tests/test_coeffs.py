import re

import pytest

from symex.bigcomb import binomial_first, binomial_second
from symex.coeffs import (
    coeff_closed,
    coeff_closed_sequence,
    coeff_recurrence,
    vandermonde_degeneration_check,
    verify_convolution,
)
from symex.polyexpand import verify_layer_decomposition
from symex.rootset import RootSet
from symex.series import verify_gf_transformed, verify_gf_untransformed


@pytest.mark.parametrize("n, i, h, expected", [(5, 3, 1, 1), (5, 3, 2, -3), (5, 3, 3, 6), (4, 4, 1, 1), (4, 4, 2, -1)])
def test_coeff_closed_values(n, i, h, expected):
    assert coeff_closed(n, i, h) == expected


def test_coeff_closed_rejects_bad_args():
    with pytest.raises(ValueError):
        coeff_closed(3, 5, 1)
    with pytest.raises(ValueError):
        coeff_closed(5, 3, 0)


def test_coeff_recurrence_values():
    # C_2 = 1 - C_1*C(4,1) = -3; C_3 = 1 - C(5,2) + 3*C(5,1) = 6
    assert coeff_recurrence(5, 3, 2) == (1, -3)
    assert coeff_recurrence(5, 3, 3) == (1, -3, 6)
    assert coeff_recurrence(9, 4, 1) == (1,)


def test_closed_sequence_is_the_tuple_of_closed_values():
    assert coeff_closed_sequence(6, 2, 4) == tuple(coeff_closed(6, 2, h) for h in range(1, 5))
    with pytest.raises(ValueError):
        coeff_closed_sequence(6, 2, 0)


def test_route_equivalence_full_grid():
    # identical values from the recurrence and the closed form, including
    # h beyond i - 1 (the algebra does not need h <= i - 1)
    for n in range(1, 21):
        for i in range(1, n + 1):
            assert coeff_recurrence(n, i, 12) == coeff_closed_sequence(n, i, 12)


def test_first_coefficient_and_alternating_signs():
    for n in range(1, 21):
        for i in range(1, n + 1):
            values = coeff_closed_sequence(n, i, 12)
            assert values[0] == 1
            for h, value in enumerate(values, start=1):
                assert value != 0
                assert (value > 0) == (h % 2 == 1)


def test_verify_convolution_examples():
    report = verify_convolution(5, 3, coeff_closed_sequence(5, 3, 2))
    assert report.ok
    assert [check.observed for check in report.checks] == [1, 1]
    assert verify_convolution(6, 2, coeff_closed_sequence(6, 2, 4)).ok


def test_verify_convolution_reports_bad_sequences():
    report = verify_convolution(5, 3, (1, -2))
    assert not report.ok
    assert [check.label for check in report.checks] == ["h=1", "h=2"]
    assert report.failures()[0].label == "h=2"
    with pytest.raises(ValueError):
        verify_convolution(3, 5, (1,))


# Each verifier that takes an order i, called as (n, i, truncation order); the
# coefficient and layer verifiers have no truncation order of their own.
ORDER_CHECKED = {
    "verify_convolution": lambda n, i, order: verify_convolution(n, i, (1,) * order),
    "verify_gf_untransformed": verify_gf_untransformed,
    "verify_gf_transformed": verify_gf_transformed,
    "verify_layer_decomposition": lambda n, i, order: verify_layer_decomposition(RootSet(tuple(range(1, n + 1))), i),
}


@pytest.mark.parametrize("name", ORDER_CHECKED)
def test_every_verifier_refuses_an_order_outside_1_to_n_with_one_message(name):
    verifier = ORDER_CHECKED[name]
    for n in (1, 4):
        assert verifier(n, n, 1).ok
        for i in (0, n + 1):
            # A bad truncation order as well (0) still gets the message about i.
            for order in (2, 0):
                with pytest.raises(ValueError, match=f"^{re.escape(f'need 1 <= i <= n, got i={i}, n={n}')}$"):
                    verifier(n, i, order)
    if name.startswith("verify_gf"):
        with pytest.raises(ValueError, match="^need order >= 1, got 0$"):
            verifier(4, 2, 0)


def test_vandermonde_examples():
    assert vandermonde_degeneration_check(5, 3, 0).ok
    report = vandermonde_degeneration_check(5, 3, 2)
    assert report.ok
    terms = [check.observed for check in report.checks[1:]]
    assert terms == [1, -3, 6]
    assert vandermonde_degeneration_check(4, 4, 3).ok


def test_vandermonde_full_grid():
    for n in range(1, 21):
        for i in range(1, n + 1):
            assert vandermonde_degeneration_check(n, i, 12).ok


def test_pairwise_identification():
    # C(-n+i-1, k-1) = (-1)^(k-1) * multichoose(n-i+1, k-1)
    for n in range(1, 21):
        for i in range(1, n + 1):
            for k in range(1, 13):
                lhs = binomial_first(-n + i - 1, k - 1)
                rhs = (-1) ** (k - 1) * binomial_second(n - i + 1, k - 1)
                assert lhs == rhs == coeff_closed(n, i, k)
