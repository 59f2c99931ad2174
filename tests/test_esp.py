import json
import math
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symex import esp
from symex.bigcomb import binomial_first
from symex.cli import main
from symex.coeffs import coeff_closed
from symex.esp import (
    ExtractionDomainError,
    esp_all,
    esp_compare,
    esp_direct,
    esp_extraction,
    esp_extraction_all,
    esp_loworder,
    specialize,
)
from symex.rootset import RootSet

root_sets = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(lambda ms: RootSet(tuple(ms)))


def bypass_rootset(elements):
    # skips validation; only the extraction-on-zeros probe is allowed to do this
    roots = object.__new__(RootSet)
    object.__setattr__(roots, "elements", tuple(elements))
    return roots


def test_rootset_validation():
    with pytest.raises(ValueError):
        RootSet(())
    with pytest.raises(ValueError):
        RootSet((2, 0, 3))
    with pytest.raises(ValueError):
        RootSet((2, -1))
    with pytest.raises(ValueError):
        RootSet((2, 1.5))
    assert RootSet.parse("2,3,4").elements == (2, 3, 4)
    with pytest.raises(ValueError):
        RootSet.parse("2;3")
    roots = RootSet.of(2, 3, 4)
    assert roots.n == 3 and roots.total == 9


def test_rootset_rejects_bool():
    # bool is an int subclass, so True used to pass as the root 1
    for elements in ((True, 2), (2, False), (True,)):
        with pytest.raises(ValueError):
            RootSet(elements)
    with pytest.raises(ValueError):
        RootSet.of(True, 2)


def test_esp_direct_examples():
    assert esp_direct(RootSet.of(2, 3, 4), 2) == 26
    assert esp_direct(RootSet.of(5, 1, 7), 0) == 1  # empty product
    assert esp_direct(RootSet.of(1, 2, 3, 4), 4) == 24  # the full product
    assert esp_direct(RootSet.of(2, 3), 5) == 0


def test_esp_all_examples():
    assert esp_all(RootSet.of(2, 3, 4)) == [1, 9, 26, 24]
    assert esp_all(RootSet.of(1, 1, 1, 1)) == [1, 4, 6, 4, 1]
    assert esp_all(RootSet.of(5)) == [1, 5]


def test_extraction_breakdown_frozen_example():
    value, breakdown = esp_extraction(RootSet.of(2, 3, 4), 3)
    assert value == 24 == esp_direct(RootSet.of(2, 3, 4), 3)
    assert breakdown.head == 84
    first, second = breakdown.terms
    assert (first.h, first.coefficient, first.bracket_total) == (1, -1, 65)
    assert tuple(entry for _, entry in first.bracket) == (10, 20, 35)
    assert (second.h, second.coefficient, second.bracket_total) == (2, 1, 5)
    assert tuple(entry for _, entry in second.bracket) == (0, 1, 4)
    assert breakdown.total == 24 == breakdown.head + sum(t.coefficient * t.bracket_total for t in breakdown.terms)


def test_extraction_small_cases():
    value, breakdown = esp_extraction(RootSet.of(2, 3), 2)
    assert value == 6
    assert breakdown.head == 10
    assert breakdown.terms[0].bracket_total == 4
    assert tuple(entry for _, entry in breakdown.terms[0].bracket) == (1, 3)
    assert esp_extraction(RootSet.of(1, 1, 1, 1, 1), 3)[0] == 10  # C(5,3)


def test_extraction_boundaries():
    roots = RootSet.of(2, 3, 4)
    value, breakdown = esp_extraction(roots, 0)
    assert value == 1 and breakdown.terms == ()
    with pytest.raises(ExtractionDomainError):
        esp_extraction(roots, 4)
    with pytest.raises(ValueError):
        esp_extraction(roots, -1)


@given(roots=root_sets)
def test_extraction_order_one_is_the_accumulate(roots):
    assert esp_extraction(roots, 1)[0] == roots.total


@given(roots=root_sets, data=st.data())
def test_oracle_equivalence_random(roots, data):
    i = data.draw(st.integers(1, roots.n))
    per_order = esp_all(roots)
    value, breakdown = esp_extraction(roots, i)
    assert value == esp_direct(roots, i) == per_order[i]
    assert breakdown.head + sum(t.coefficient * t.bracket_total for t in breakdown.terms) == value


def test_oracle_equivalence_exhaustive_small():
    # n <= 4, m <= 4 here; the n <= 6 sweep lives in the acceptance suite
    for n in range(1, 5):
        for tup in product(range(1, 5), repeat=n):
            roots = RootSet(tup)
            per_order = esp_all(roots)
            for i in range(1, n + 1):
                assert esp_extraction(roots, i, explain_limit=0)[0] == esp_direct(roots, i) == per_order[i]


def test_boundary_order_equals_size():
    for tup in ((2, 3), (5,), (2, 2, 2), (1, 4, 2, 3)):
        roots = RootSet(tup)
        assert esp_extraction(roots, roots.n)[0] == math.prod(tup)


@given(roots=root_sets, data=st.data())
def test_permutation_invariance(roots, data):
    i = data.draw(st.integers(1, roots.n))
    shuffled = RootSet(tuple(data.draw(st.permutations(roots.elements))))
    assert esp_direct(roots, i) == esp_direct(shuffled, i)
    assert esp_extraction(roots, i)[0] == esp_extraction(shuffled, i)[0]


def test_bracket_sizes_and_weights_match_closed_coefficients():
    roots = RootSet.of(3, 1, 4, 1, 5, 9, 2)
    n = roots.n
    for i in range(1, n + 1):
        _, breakdown = esp_extraction(roots, i)
        for term in breakdown.terms:
            assert len(term.bracket) == binomial_first(n, i - term.h)
            assert term.coefficient == -coeff_closed(n, i, term.h)


def test_detail_lists_subsets_in_combinations_order():
    # The library's detail follows itertools.combinations order, the order in
    # which `compute --explain` makes its own labels, sums and entries.
    roots = RootSet.of(5, 1, 1 << 40, 9, 1, 3, 7)
    for i in range(1, roots.n + 1):
        _, breakdown = esp_extraction(roots, i)
        for term in breakdown.terms:
            size = i - term.h
            assert [indices for indices, _ in term.bracket] == list(combinations(range(1, roots.n + 1), size))
            assert [entry for _, entry in term.bracket] == [
                math.comb(sum(combo), i) for combo in combinations(roots.elements, size)
            ]


def test_explain_limit_drops_detail_but_not_totals():
    roots = RootSet.of(2, 3, 4)
    full = esp_extraction(roots, 3)
    compact = esp_extraction(roots, 3, explain_limit=2)
    assert compact[0] == full[0]
    assert all(term.bracket is None for term in compact[1].terms)
    assert [t.bracket_total for t in compact[1].terms] == [t.bracket_total for t in full[1].terms]


@given(
    others=st.lists(st.integers(0, 6), min_size=0, max_size=5),
    position=st.integers(0, 5),
    data=st.data(),
)
@settings(max_examples=60)
def test_extraction_also_holds_with_zero_roots(others, position, data):
    # beyond the validated domain: zeros are rejected at construction, but the
    # sieve still agrees with the definition when smuggled past validation
    elements = list(others)
    elements.insert(min(position, len(elements)), 0)
    roots = bypass_rootset(elements)
    i = data.draw(st.integers(1, len(elements)))
    assert esp_extraction(roots, i)[0] == esp_direct(roots, i)
    assert esp_extraction(roots, i, explain_limit=0)[0] == esp_direct(roots, i)


def test_esp_loworder_matches_direct():
    for tup in ((2, 3, 4, 5), (1, 1, 2, 9, 4), (3, 3, 3, 3, 3, 3), (6, 1, 2, 4, 5, 9, 7, 8)):
        roots = RootSet(tup)
        for i in range(1, 6):
            assert esp_loworder(roots, i) == esp_direct(roots, i)
    with pytest.raises(ValueError):
        esp_loworder(RootSet.of(1, 2), 4)  # needs n >= i - 1
    with pytest.raises(ValueError):
        esp_loworder(RootSet.of(1, 2, 3, 4, 5, 6), 6)  # only 1..5 spelled out


def test_esp_compare_examples():
    assert esp_compare(RootSet.of(2, 3, 4), 2) == {"direct": 26, "dp": 26, "extraction": 26}
    # frozen from the per-order recurrence oracle
    assert set(esp_compare(RootSet.of(1, 2, 3, 4, 5), 3).values()) == {225}
    assert set(esp_compare(RootSet.of(1, 2, 3, 4, 5, 6), 3).values()) == {735}
    assert set(esp_compare(RootSet.of(7,), 1).values()) == {7}
    with pytest.raises(ExtractionDomainError):
        esp_compare(RootSet.of(2, 3), 5)


def test_every_method_refuses_a_negative_order():
    # `dp` once returned esp_all(roots)[-1], i.e. e_n, for i = -1
    for route in esp.METHODS.values():
        with pytest.raises(ValueError, match="order must be >= 0"):
            route(RootSet.of(2, 3, 4), -1)


def test_specialize_pascal():
    triangle = specialize("pascal", 4)
    assert triangle[-1] == [1, 4, 6, 4, 1]
    assert triangle == [[math.comb(n, i) for i in range(n + 1)] for n in range(1, 5)]


def test_specialize_stirling1():
    assert specialize("stirling1", 1) == [[1, 1]]
    triangle = specialize("stirling1", 3)
    assert triangle[-1] == [1, 6, 11, 6]
    # rows are the e_i of {1..n}
    for n, row in enumerate(triangle, start=1):
        assert row == esp_all(RootSet(tuple(range(1, n + 1))))


def test_specialize_rejects_unknown_family():
    with pytest.raises(ValueError):
        specialize("fibonacci", 3)
    with pytest.raises(ValueError):
        specialize("pascal", 0)


def _compact_matches_detail(roots, i):
    # Both breakdowns take their totals from the support rows; the enumerated
    # detail is the independent side, and its entries must sum to each total.
    detail = esp_extraction(roots, i, explain_limit=roots.n)
    compact = esp_extraction(roots, i, explain_limit=0)
    assert compact[0] == detail[0]
    assert compact[1].head == detail[1].head
    assert [(t.h, t.coefficient, t.bracket_total) for t in compact[1].terms] == [
        (t.h, t.coefficient, t.bracket_total) for t in detail[1].terms
    ]
    assert all(t.bracket is None for t in compact[1].terms)
    assert all(t.bracket_total == sum(entry for _, entry in t.bracket) for t in detail[1].terms)


# Each root draws its own bit width in 1..80, so one set mixes slot sizes.
wide_roots = st.integers(1, 80).flatmap(lambda width: st.integers(1 << (width - 1), (1 << width) - 1))


@given(elements=st.lists(wide_roots, min_size=2, max_size=12))
@settings(max_examples=40, deadline=None)
def test_compact_brackets_equal_enumerated_brackets(elements):
    roots = RootSet(tuple(elements))
    for i in range(2, roots.n + 1):
        _compact_matches_detail(roots, i)


def test_compact_brackets_at_extremes():
    small = RootSet.of(3, 1, 4, 1, 5, 9, 2, 6, 5)
    cases = [
        RootSet((1,) * 12),
        RootSet(((1 << 60) - 1,) * 10),
        RootSet(((1 << 80), *small.elements)),
        RootSet((*small.elements, 1 << 80)),
    ]
    for roots in cases:
        for i in range(2, roots.n + 1):
            _compact_matches_detail(roots, i)
    # past the enumerating range, against the product recurrence
    for roots in (RootSet((1,) * 30), RootSet(((1 << 60) - 1,) * 20), RootSet(((1 << 80), *small.elements * 2))):
        per_order = esp_all(roots)
        for i in range(1, roots.n + 1):
            value, breakdown = esp_extraction(roots, i, explain_limit=0)
            assert value == per_order[i] == breakdown.head + sum(t.coefficient * t.bracket_total for t in breakdown.terms)


def test_compact_path_enumerates_no_subsets(monkeypatch):
    def refuse(*args):
        raise AssertionError("the compact path must not enumerate subsets")

    monkeypatch.setattr(esp, "combinations", refuse)
    monkeypatch.setattr(esp, "k_subsets", refuse)
    roots = RootSet.of(9, 4, 7, 1, 1, 8, 3, 12, 5, 6, 2, 10, 11, 4, 9, 7)
    per_order = esp_all(roots)
    for i in range(roots.n + 1):
        assert esp_extraction(roots, i, explain_limit=0)[0] == per_order[i]
    with pytest.raises(AssertionError):
        esp_extraction(roots, 3, explain_limit=roots.n)


def test_compact_sieve_is_polynomial_time(capsys):
    # Enumerating the brackets here would take sum_{s<20} C(40, s), about 5e11 subsets.
    rng = random.Random(40)
    roots = RootSet(tuple(rng.randrange(1 << 39, 1 << 40) for _ in range(40)))
    start = time.perf_counter()
    code = main(["compute", "--roots", ",".join(map(str, roots.elements)), "--i", "20", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["value"] == str(esp_all(roots)[20])
    assert len(payload["breakdown"]["terms"]) == 19
    assert elapsed < 5.0


@pytest.fixture
def cold_factors():
    # The packed factors live for the whole process: start from none, and drop
    # any built under a patch so no later test sees them.
    esp._binomial_factor.cache_clear()
    yield
    esp._binomial_factor.cache_clear()


def test_bracket_totals_build_one_factor_per_distinct_root(monkeypatch, cold_factors):
    calls = []

    def counted(m, k):
        calls.append((m, k))
        return binomial_first(m, k)

    monkeypatch.setattr(esp, "binomial_first", counted)
    assert esp._bracket_totals((1,) * 8, 5) == [0] * 5
    assert sorted(calls) == [(1, 1)]
    # the factor is kept: the same table again builds none
    calls.clear()
    assert esp._bracket_totals((1,) * 8, 5) == [0] * 5
    assert calls == []
    calls.clear()
    elements = (3, 1, 3, 1, 3)
    assert esp._bracket_totals(elements, 3) == [
        sum(binomial_first(sum(combo), 3) for combo in combinations(elements, s)) for s in range(3)
    ]
    assert sorted(calls) == [(1, 1), (3, 1), (3, 2), (3, 3)]


def _enumerated_table(elements, top):
    # sum_{|J|=s} C(sigma_J, k) for s < top and k <= top, enumerated over
    # sub-multisets: picking j of the c copies of a value is C(c, j) subsets.
    counts = Counter(elements)
    rows = [[0] * (top + 1) for _ in range(top)]
    for picks in product(*(range(count + 1) for count in counts.values())):
        s = sum(picks)
        if s < top:
            ways = math.prod(math.comb(count, j) for count, j in zip(counts.values(), picks))
            sigma = sum(m * j for m, j in zip(counts, picks))
            for k in range(top + 1):
                rows[s][k] += ways * math.comb(sigma, k)
    return rows


def _assert_slots_hold_the_enumerated_table(elements, top):
    rows, b = esp._bracket_table(elements, top)
    expected = _enumerated_table(elements, top)
    # each packed row is exactly its enumerated slots: no slot overflowed into
    # the next and nothing is left above slot top
    assert rows == [sum(value << (b * k) for k, value in enumerate(row)) for row in expected]
    assert all(value < 1 << b for row in expected for value in row)
    # the slot width never exceeds the earlier bound n + top * bitlen(N) + 1
    assert b <= len(elements) + top * sum(elements).bit_length() + 1


def _table_width(elements, top):
    # the slot width _bracket_table packs B in
    n, total = len(elements), sum(elements)
    return math.comb(n, n // 2).bit_length() + math.comb(total, min(top, total // 2)).bit_length() + 1


def _tables_of_area(area):
    # (elements, top) with b * top == area: for each top in 2..16 dividing area,
    # top = n roots (m, 1, ..., 1) with the smallest m whose slots are area / top
    # bits wide, where one is (the width never falls as m grows)
    cells = []
    for top in range(2, 17):
        if area % top:
            continue
        wide = lambda m: _table_width((m,) + (1,) * (top - 1), top) >= area // top  # noqa: E731
        low, high = 0, 1
        while not wide(high):
            low, high = high, 2 * high
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (low, middle) if wide(middle) else (middle, high)
        elements = (high,) + (1,) * (top - 1)
        if _table_width(elements, top) * top == area:
            cells.append((elements, top))
    return cells


def test_table_routes_agree_at_the_direct_rule(monkeypatch):
    # b * top = _DIRECT_BELOW - 1 is filled directly, _DIRECT_BELOW from the
    # support rows; both routes give the same rows in the same b-bit slots
    assert esp._DIRECT_BELOW == 496 and esp._DIRECT_BELOW <= esp._NEWTON_ABOVE
    taken = []
    for route in ("direct", "support"):
        run = getattr(esp, f"_{route}_rows")
        monkeypatch.setattr(esp, f"_{route}_rows", lambda *args, run=run, route=route: taken.append(route) or run(*args))
    rule = esp._DIRECT_BELOW
    for area, route in ((rule - 1, "direct"), (rule, "support")):
        cells = _tables_of_area(area)
        # several tables of several rows on each side
        assert len(cells) >= 3, area
        for elements, top in cells:
            tables = {}
            for forced, below in (("direct", math.inf), ("support", 0)):
                monkeypatch.setattr(esp, "_DIRECT_BELOW", below)
                taken.clear()
                tables[forced] = esp._bracket_table(elements, top)
                assert taken == [forced]
            assert tables["direct"] == tables["support"]
            monkeypatch.setattr(esp, "_DIRECT_BELOW", rule)
            taken.clear()
            _assert_slots_hold_the_enumerated_table(elements, top)
            assert taken == [route] and tables[route][1] * top == area


# Narrow roots put top >= N/2, where C(N, k) peaks inside the kept slots.
mixed_roots = st.one_of(st.integers(1, 3), wide_roots)


@given(elements=st.lists(mixed_roots, min_size=1, max_size=8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_bracket_table_slots_hold_the_enumerated_totals(elements, data):
    top = data.draw(st.integers(1, len(elements) + 1))
    _assert_slots_hold_the_enumerated_table(tuple(elements), top)


def test_bracket_table_slot_width_at_its_edges():
    small = (3, 1, 4, 1, 5, 9, 2, 6, 5)
    cases = [
        (1,) * 12,  # N = n: top >= N/2 from top = 6 on
        (1, 1, 2),
        (1,),  # N = 1
        (7,),  # a single root
        ((1 << 60) - 1,) * 20,
        (1 << 80, *small),
        (*small, 1 << 80),
    ]
    for elements in cases:
        for top in range(1, len(elements) + 2):
            _assert_slots_hold_the_enumerated_table(elements, top)
    # all-ones at top = n: slots of C(12, 6) * C(12, 6) < 2^20, against 61 bits before
    assert esp._bracket_table((1,) * 12, 12)[1] == 21


def _enumerated_support(elements, top):
    # F[t][k] = sum_{|J|=t} sum_{U subset of J} (-1)^(t-|U|) C(sigma_U, k) for t < top
    # and k <= top, over sub-multisets: J picks j of the c copies of a value
    # (C(c, j) index sets) and U picks u of those j (C(j, u) index sets).
    counts = Counter(elements)
    rows = [[0] * (top + 1) for _ in range(top)]
    for picks in product(*(range(count + 1) for count in counts.values())):
        t = sum(picks)
        if t >= top:
            continue
        ways = math.prod(math.comb(count, j) for count, j in zip(counts.values(), picks))
        for sub in product(*(range(j + 1) for j in picks)):
            signed = (-1) ** (t - sum(sub)) * ways * math.prod(math.comb(j, u) for j, u in zip(picks, sub))
            sigma = sum(m * u for m, u in zip(counts, sub))
            for k in range(top + 1):
                rows[t][k] += signed * math.comb(sigma, k)
    return rows


@given(elements=st.lists(mixed_roots, min_size=1, max_size=8))
@example(elements=[(1 << 60) - 1] * 20)
@settings(max_examples=60, deadline=None)
def test_support_rows_hold_the_enumerated_support_sums(elements):
    n, total = len(elements), sum(elements)
    support = _enumerated_support(elements, n + 1)
    # below slot t row t is zero, and every value is within F[t][k] <= C(N, k)
    assert all(value == 0 for t, row in enumerate(support) for value in row[:t])
    assert all(0 <= value <= math.comb(total, k) for row in support for k, value in enumerate(row))
    for top in range(1, n + 2):
        # the narrowest slots the bound allows, as the per-order sieve packs F
        b = math.comb(total, min(top, total // 2)).bit_length()
        rows, width = esp._support_rows(tuple(elements), top, b)
        # row t is exactly F[t][t..top], moved down t slots, in slots at least
        # b bits wide: no slot overflowed into the next and nothing is left
        # above slot top - t
        assert width >= b
        assert rows == [sum(support[t][k] << (width * (k - t)) for k in range(t, top + 1)) for t in range(top)]


def _support_width(elements, top):
    # the slot width _bracket_totals packs F in
    total = sum(elements)
    return math.comb(total, min(top, total // 2)).bit_length()


# Roots of 1..600 bits mixed with 1..3, drawn with repeats: a root below top
# has a factor shorter than the rows.
kernel_roots = st.one_of(st.integers(1, 3), st.integers(1, 600).flatmap(lambda w: st.integers(1 << (w - 1), (1 << w) - 1)))


def _newton_width(top, b):
    # the slots _support_rows gives the Newton route: t * F[t][k] < 2^b * t
    return b + (top - 1).bit_length()


def _narrowed(rows, width, b):
    # rows of width-bit slots moved into b-bit slots, each slot kept whole
    slot, top = (1 << width) - 1, len(rows)
    return [sum((row >> (width * k) & slot) << (b * k) for k in range(top - t + 1)) for t, row in enumerate(rows)]


@given(elements=st.lists(mixed_roots, min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_newton_rows_hold_the_enumerated_support_sums(elements):
    elements = tuple(elements)
    # F[t][k] for t < top and k <= top is the same sum for every top, so one
    # enumeration at top = n + 1 serves each smaller top
    support = _enumerated_support(elements, len(elements) + 1)
    for top in range(1, len(elements) + 2):
        b = _newton_width(top, _support_width(elements, top))
        rows = esp._newton_rows(elements, top, b)
        assert rows == esp._packed_rows(elements, top, b)
        assert rows == [sum(support[t][k] << (b * (k - t)) for k in range(t, top + 1)) for t in range(top)]


@given(
    elements=st.lists(kernel_roots, min_size=1, max_size=4).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=8)
    )
)
@settings(max_examples=30, deadline=None)
def test_newton_rows_equal_the_packed_rows_on_kernel_roots(elements):
    elements = tuple(elements)
    n = len(elements)
    for top in range(1, n + 2):
        narrow = _support_width(elements, top)
        for b in (narrow, math.comb(n, n // 2).bit_length() + narrow + 1):  # F slots, then B slots
            width = _newton_width(top, b)
            rows = esp._newton_rows(elements, top, width)
            assert rows == esp._packed_rows(elements, top, width)
            # and the packed DP in the b-bit slots themselves
            assert _narrowed(rows, width, b) == esp._packed_rows(elements, top, b)


def _power_sum_slots(elements, top):
    # P_r[k] = sum_j [z^k] ((1+z)^m_j - 1)^r for r, k <= top, by the binomial theorem
    counts = Counter(elements)
    return [
        [
            sum(count * (-1) ** (r - q) * math.comb(r, q) * math.comb(q * m, k) for m, count in counts.items() for q in range(r + 1))
            for k in range(top + 1)
        ]
        for r in range(top + 1)
    ]


def test_newton_route_at_the_slot_width_edges():
    # the cases of test_bracket_table_slot_width_at_its_edges
    small = (3, 1, 4, 1, 5, 9, 2, 6, 5)
    overflowed = 0
    for elements in ((1,) * 12, (1, 1, 2), (1,), (7,), ((1 << 60) - 1,) * 20, (1 << 80, *small), (*small, 1 << 80)):
        closed_form = _power_sum_slots(elements, len(elements) + 1)
        for top in range(1, len(elements) + 2):
            narrow = _support_width(elements, top)
            b = _newton_width(top, narrow)
            rows = esp._newton_rows(elements, top, b)
            # the packed DP's rows, which the other edge tests hold to the enumerated
            # table, in these slots and in the narrower ones _bracket_totals packs F in
            assert rows == esp._packed_rows(elements, top, b)
            assert _narrowed(rows, b, narrow) == esp._packed_rows(elements, top, narrow)
            slot = (1 << b) - 1
            # the one bound the route needs: every slot of t * F_t fits
            assert all(t * (rows[t] >> (b * k) & slot) < 1 << b for t in range(top) for k in range(top - t + 1))
            # P_r is its closed form, slot for slot, shifted down r slots
            power_sums = esp._power_sums(elements, top, b)
            for r in range(1, top):
                slots = closed_form[r][: top + 1]
                assert slots[:r] == [0] * r
                assert power_sums[r] == sum(value << (b * (k - r)) for k, value in enumerate(slots) if k >= r)
                overflowed += any(value >> b for value in slots)
    # P_r's slots may exceed 2^b: each product and the sum are reduced mod
    # 2^(b(top-t+1)), so only t * F_t must fit, and these cases show it
    assert overflowed > 0


ROUTES = ("packed", "newton")


def _kernel_taken(monkeypatch, elements, top, b):
    taken = []
    for route in ROUTES:
        monkeypatch.setattr(esp, f"_{route}_rows", lambda *args, route=route: taken.append(route))
    esp._support_rows(elements, top, b)
    return taken


def _random_roots(rng, n, bits):
    return tuple(rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(n))


def _pinned_cells():
    rng = random.Random(13)
    packed = [((9,) * n, top) for n in range(1, 11) for top in range(1, n + 1)]  # the largest random-sweep sets
    packed.append((tuple(rng.randint(1, 9) for _ in range(200)), 100))
    # short factors: one root below top keeps a sieve_compact-like cell on the DP
    packed += [((3, *_random_roots(rng, n - 1, bits)), top) for n, bits, top in ((14, 30, 6), (16, 24, 9), (18, 20, 12))]
    # wide roots near i = n, and a wide set with short factors
    newton = [
        ((10**400 - 1,) * 12, 12),
        (((1 << 60) - 1,) * 30, 29),
        (tuple(rng.randrange(10**399, 10**400) for _ in range(18)), 17),
    ]
    packed.append(((3**160, 1, 5**110 + 2, 2, 3**160, 7**90), 6))
    # sieve_compact-like cells, n 14..18 and root widths 20..40
    newton += [(_random_roots(rng, n, bits), top) for n, bits, top in ((14, 20, 9), (15, 25, 8), (16, 30, 6), (17, 35, 12), (18, 40, 16), (16, 40, 14))]
    newton.append((tuple(rng.randrange(1 << 19, 1 << 20) for _ in range(12)), 12))  # compute --method at n = 12
    newton.append((tuple(rng.randrange(10**399, 10**400) for _ in range(12)), 6))
    newton.append(((10, *_random_roots(rng, 15, 30)), 10))  # the smallest root equal to top
    newton.append((((1 << 500) - 1,) * 40, 20))
    return {"packed": packed, "newton": newton}


def test_support_kernel_choice_is_pinned(monkeypatch):
    for route, cells in _pinned_cells().items():
        for elements, top in cells:
            assert _kernel_taken(monkeypatch, elements, top, _support_width(elements, top)) == [route], (len(elements), top)
    # every ordered tuple of {1..4}^n, n <= 6, in the all-orders table's wider slots
    for n in range(1, 7):
        for elements in product(range(1, 5), repeat=n):
            b = math.comb(n, n // 2).bit_length() + _support_width(elements, n) + 1
            assert _kernel_taken(monkeypatch, elements, n, b) == ["packed"]


def test_route_guards_sit_at_their_constants(monkeypatch):
    # b * top = _NEWTON_ABOVE opens the Newton route, at exactly its constant
    # (top = 8, so b = area / 8)
    assert esp._NEWTON_ABOVE == 1000
    for area, route in ((992, "packed"), (1000, "newton"), (4992, "newton"), (5000, "newton")):
        assert _kernel_taken(monkeypatch, (1 << 40,) * 8, 8, area // 8) == [route], area


def _per_order_sieve(roots):
    return [esp_extraction(roots, i, explain_limit=0)[0] for i in range(roots.n + 1)]


@given(elements=st.lists(wide_roots, min_size=1, max_size=14))
@settings(max_examples=40, deadline=None)
def test_all_orders_sieve_equals_the_per_order_sieve(elements):
    roots = RootSet(tuple(elements))
    assert esp_extraction_all(roots) == _per_order_sieve(roots) == esp_all(roots)


def test_all_orders_sieve_on_every_ordered_small_tuple():
    # verify sweeps multisets, sorted; the table routes read each root's
    # position, so every ordering of {1..4}^n, n <= 6, is checked here.
    tuples = [elements for n in range(1, 7) for elements in product(range(1, 5), repeat=n)]
    assert len(tuples) == 5460
    for elements in tuples:
        roots = RootSet(elements)
        assert esp_extraction_all(roots) == esp_all(roots) == [esp_direct(roots, i) for i in range(roots.n + 1)], elements


def test_all_orders_sieve_at_extremes():
    small = (3, 1, 4, 1, 5, 9, 2, 6, 5)
    for elements in ((1,) * 30, ((1 << 60) - 1,) * 20, (1 << 80, *small), (*small, 1 << 80), (5,)):
        roots = RootSet(elements)
        assert esp_extraction_all(roots) == _per_order_sieve(roots) == esp_all(roots)
    assert esp_extraction_all(RootSet((1,) * 30)) == [math.comb(30, i) for i in range(31)]


def test_all_orders_sieve_enumerates_no_subsets(monkeypatch):
    def refuse(*args):
        raise AssertionError("the all-orders sieve must not enumerate subsets")

    monkeypatch.setattr(esp, "combinations", refuse)
    monkeypatch.setattr(esp, "k_subsets", refuse)
    for roots in (RootSet.of(9, 4, 7, 1, 1, 8, 3, 12, 5, 6, 2, 10, 11, 4, 9, 7), RootSet.of(2, 3, 4)):
        assert esp_extraction_all(roots) == esp_all(roots)


def test_all_orders_sieve_builds_one_table(monkeypatch):
    tops = []
    table = esp._bracket_table

    def counted(elements, top):
        tops.append(top)
        return table(elements, top)

    monkeypatch.setattr(esp, "_bracket_table", counted)
    roots = RootSet.of(9, 4, 7, 1, 1, 8, 3)
    assert esp_extraction_all(roots) == esp_all(roots)
    assert tops == [7]
    tops.clear()
    # one DP per triangle row, each with top = n, not one per order
    assert specialize("stirling1", 12) == [esp_all(RootSet(tuple(range(1, n + 1)))) for n in range(1, 13)]
    assert tops == list(range(1, 13))
    tops.clear()
    assert specialize("pascal", 12)[-1] == [math.comb(12, i) for i in range(13)]
    assert tops == list(range(1, 13))
