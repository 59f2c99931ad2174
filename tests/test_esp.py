import json
import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symex import esp
from symex.bigcomb import binomial_first, stirling_first_signed
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
    object.__setattr__(roots, "n", len(roots.elements))
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
    triangle = list(specialize("pascal", 4))
    assert triangle[-1] == [1, 4, 6, 4, 1]
    assert triangle == [[math.comb(n, i) for i in range(n + 1)] for n in range(1, 5)]


def test_specialize_stirling1():
    assert list(specialize("stirling1", 1)) == [[1, 1]]
    triangle = list(specialize("stirling1", 3))
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


def _slot_by_slot_factor(m, top, b):
    return sum(math.comb(m, k) << (b * k) for k in range(min(m, top) + 1))


@pytest.mark.parametrize("top", [1, 2, 5, 9])
@pytest.mark.parametrize("slack", [0, 3, 17])
def test_binomial_factor_is_the_slot_by_slot_packing(top, slack):
    # either side of the pow rule at 64, a root at and just past top, and a
    # 40-bit root; b as narrow as the largest kept C(m, k) allows, and wider,
    # for each root alone and for all of them in one fill
    elements = (top, top + 1, 63, 64, (1 << 40) - 3)
    widths = [max(math.comb(m, k).bit_length() for k in range(min(m, top) + 1)) + slack for m in elements]
    for m, b in zip(elements, widths):
        assert list(esp._binomial_factors((m,), top, b)) == [_slot_by_slot_factor(m, top, b)]
    b = max(widths)
    assert list(esp._binomial_factors(elements, top, b)) == [_slot_by_slot_factor(m, top, b) for m in elements]


def test_bracket_totals_do_not_depend_on_the_calls_before_them():
    # cells that share roots at other orders and slot widths, on both sides of
    # the pow rule, plus one wide enough to convert support rows
    cells = [
        ((1,) * 8, 5),
        ((3, 1, 3, 1, 3), 3),
        ((3, 1, 3, 1, 3), 5),
        ((3, 1, 3, 1, 3, 70, 70), 5),
        ((63, 64, 2, 9), 3),
        ((63, 64, 2, 9), 4),
        (((1 << 40) - 1, 5, (1 << 39) + 7, 1, 3), 4),
    ]
    assert esp._table_width(*cells[-1]) * 4 >= esp._DIRECT_BELOW
    expected = {
        cell: [sum(math.comb(sum(combo), cell[1]) for combo in combinations(cell[0], s)) for s in range(cell[1])]
        for cell in cells
    }
    shuffled = cells * 2
    random.Random(26).shuffle(shuffled)
    for order in (cells, cells[::-1], shuffled):
        assert [esp._bracket_totals(*cell) for cell in order] == [expected[cell] for cell in order]


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


def _slots(rows, b, top):
    # each row's slots 0..top, read from its b-bit packing
    return [[row >> (b * k) & ((1 << b) - 1) for k in range(top + 1)] for row in rows]


def test_table_routes_agree_at_the_direct_rule(monkeypatch):
    # b * top = _DIRECT_BELOW - 1 is filled directly, _DIRECT_BELOW from the
    # Newton rows; both routes give the same slot values, the support table's
    # slots bitlen(top - 1) bits wider than the direct fill's
    assert esp._DIRECT_BELOW == 496
    taken = []
    for route in ("direct", "newton"):
        run = getattr(esp, f"_{route}_rows")
        monkeypatch.setattr(esp, f"_{route}_rows", lambda *args, run=run, route=route: taken.append(route) or run(*args))
    rule = esp._DIRECT_BELOW
    for area, route in ((rule - 1, "direct"), (rule, "newton")):
        cells = _tables_of_area(area)
        # several tables of several rows on each side
        assert len(cells) >= 3, area
        for elements, top in cells:
            tables = {}
            for forced, below in (("direct", math.inf), ("newton", 0)):
                monkeypatch.setattr(esp, "_DIRECT_BELOW", below)
                taken.clear()
                tables[forced] = esp._bracket_table(elements, top)
                assert taken == [forced]
            (direct, b), (newton, w) = tables["direct"], tables["newton"]
            assert b * top == area and w == b + (top - 1).bit_length()
            assert _slots(direct, b, top) == _slots(newton, w, top)
            monkeypatch.setattr(esp, "_DIRECT_BELOW", rule)
            taken.clear()
            _assert_slots_hold_the_enumerated_table(elements, top)
            assert taken == [route]


def test_per_order_brackets_take_the_direct_rule(monkeypatch):
    # per order the rule reads b * i, b the width of a table with top = i:
    # _DIRECT_BELOW - 1 reads slot i of the direct fill, _DIRECT_BELOW
    # converts the top slots of the Newton rows; both give the enumerated
    # brackets
    taken = []
    for route in ("direct", "newton"):
        run = getattr(esp, f"_{route}_rows")
        monkeypatch.setattr(esp, f"_{route}_rows", lambda *args, run=run, route=route: taken.append(route) or run(*args))
    rule = esp._DIRECT_BELOW
    for area, route in ((rule - 1, "direct"), (rule, "newton")):
        cells = _tables_of_area(area)
        assert len(cells) >= 3, area
        for elements, i in cells:
            brackets = [row[i] for row in _enumerated_table(elements, i)]
            for forced, below in (("direct", math.inf), ("newton", 0), (route, rule)):
                monkeypatch.setattr(esp, "_DIRECT_BELOW", below)
                taken.clear()
                assert esp._bracket_totals(elements, i) == brackets, (elements, i, forced)
                assert taken == [forced]


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


def _packed_support(support, top, width):
    # row t of the enumerated support sums, F[t][t..top], moved down t slots
    # and packed in width-bit slots
    return [sum(support[t][k] << (width * (k - t)) for k in range(t, top + 1)) for t in range(top)]


def _support_width(elements, top):
    # the slot width _bracket_totals bounds F by
    total = sum(elements)
    return math.comb(total, min(top, total // 2)).bit_length()


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
        # the narrowest bound the slots allow, as the per-order sieve takes F
        b = _support_width(elements, top)
        rows, width = esp._newton_rows(tuple(elements), top, b)
        # row t is exactly F[t][t..top], moved down t slots, in slots
        # bitlen(top - 1) bits wider: no slot overflowed into the next and
        # nothing is left above slot top - t
        assert width == b + (top - 1).bit_length()
        assert rows == _packed_support(support, top, width)


@given(elements=st.lists(mixed_roots, min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_newton_rows_hold_the_enumerated_support_sums(elements):
    elements = tuple(elements)
    # F[t][k] for t < top and k <= top is the same sum for every top, so one
    # enumeration at top = n + 1 serves each smaller top; here in the slots
    # of a table of B, as _bracket_table converts them
    support = _enumerated_support(elements, len(elements) + 1)
    for top in range(1, len(elements) + 2):
        b = _table_width(elements, top)
        rows, width = esp._newton_rows(elements, top, b)
        assert width == b + (top - 1).bit_length()
        assert rows == _packed_support(support, top, width)


# Roots of 1..600 bits mixed with 1..3, drawn with repeats: a root below top
# has a factor shorter than the rows.
kernel_roots = st.one_of(st.integers(1, 3), st.integers(1, 600).flatmap(lambda w: st.integers(1 << (w - 1), (1 << w) - 1)))


@given(
    elements=st.lists(kernel_roots, min_size=1, max_size=4).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=8)
    )
)
@example(elements=[1, 2, 3, 3, (1 << 40) - 5, (1 << 40) - 5, 5, 9])
@settings(max_examples=30, deadline=None)
def test_newton_rows_hold_the_enumerated_support_sums_on_kernel_roots(elements):
    elements = tuple(elements)
    n = len(elements)
    support = _enumerated_support(elements, n + 1)
    for top in range(1, n + 2):
        # short roots below top among wide ones, in the slots of F and then
        # in those of a table of B
        for b in (_support_width(elements, top), _table_width(elements, top)):
            rows, width = esp._newton_rows(elements, top, b)
            assert width == b + (top - 1).bit_length()
            assert rows == _packed_support(support, top, width)


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
    # the cases of test_bracket_table_slot_width_at_its_edges, short roots among them
    small = (3, 1, 4, 1, 5, 9, 2, 6, 5)
    overflowed = 0
    for elements in ((1,) * 12, (1, 1, 2), (1,), (7,), ((1 << 60) - 1,) * 20, (1 << 80, *small), (*small, 1 << 80)):
        closed_form = _power_sum_slots(elements, len(elements) + 1)
        support = _enumerated_support(elements, len(elements) + 1)
        for top in range(1, len(elements) + 2):
            # in the slots of F, as _bracket_totals takes them, and of a table of B
            for narrow in (_support_width(elements, top), _table_width(elements, top)):
                rows, b = esp._newton_rows(elements, top, narrow)
                assert rows == _packed_support(support, top, b)
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


@given(elements=st.lists(mixed_roots, min_size=1, max_size=7))
@example(elements=[1, 1, 2, 3, (1 << 80) - 1])
@settings(max_examples=40, deadline=None)
def test_power_sums_are_their_closed_form(elements):
    elements = tuple(elements)
    # P_r[k] for k <= top is the same sum for every top, so one closed form
    # at top = n + 1 serves each smaller top
    closed_form = _power_sum_slots(elements, len(elements) + 1)
    for top in range(1, len(elements) + 2):
        # in the slots of F, of a table of B, and of a table with 7 spare bits
        for b in (_support_width(elements, top), _table_width(elements, top), _table_width(elements, top) + 7):
            power_sums = esp._power_sums(elements, top, b)
            assert len(power_sums) == top and power_sums[0] == 0
            for r in range(1, top):
                assert power_sums[r] == sum(value << (b * (k - r)) for k, value in enumerate(closed_form[r][r : top + 1], start=r))


def test_power_sum_table_is_built_once_per_order_in_a_bounded_cache():
    table = esp._power_sum_table
    table.cache_clear()
    for elements in ((1,) * 12, (3, 1, 4, 1, 5, 9, 2, 6), ((1 << 60) - 1,) * 9, (1 << 80, 7)):
        for top in range(1, 10):
            esp._newton_rows(elements, top, _table_width(elements, top))
    # four root sets, nine orders: one table per order, every other call a hit
    assert table.cache_info()[:2] == (27, 9)
    # the table at top = 5 holds s(k, a) * 5!/k!, S(a, r) and 5!/k!
    falling, second, ratios = esp._power_sum_table(5)
    assert ratios == (120, 120, 60, 20, 5, 1)
    assert falling == tuple(tuple(stirling_first_signed(k, a) * ratios[k] for k in range(a, 6)) for a in range(1, 6))
    assert second == tuple(tuple(_stirling_second(a, r) for a in range(r, 6)) for r in range(1, 5))
    # bounded by entries: one more order than it keeps evicts the oldest
    size = table.cache_info().maxsize
    assert size == 32
    for top in range(1, size + 2):
        table(top)
    assert table.cache_info().currsize == size
    table.cache_clear()


def _stirling_second(a, r):
    # S(a, r) by inclusion-exclusion over the empty blocks
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** a for j in range(r + 1)) // math.factorial(r)


@given(elements=st.lists(mixed_roots, min_size=1, max_size=8))
@example(elements=[(1 << 60) - 1] * 20)
@settings(max_examples=60, deadline=None)
def test_newton_rows_hold_e_t_in_slot_zero(elements):
    # F[t][t] = e_t(m): each term of g_m starts at m * z, so the lowest slot
    # of row t multiplies t of the roots' lowest coefficients
    elements = tuple(elements)
    values = esp_all(RootSet(elements))
    for top in range(1, len(elements) + 2):
        for b in (_support_width(elements, top), _table_width(elements, top)):
            rows, width = esp._newton_rows(elements, top, b)
            assert [row & ((1 << width) - 1) for row in rows] == values[:top]


def test_sieve_weights_cancel_every_support_term_for_n_up_to_20():
    # sieve - e_i = sum_{t=1..i-1} c_t F[t][i] with c_t = 1 + sum_h w_h C(n-t, i-t-h),
    # w = _weights(n, i), and the F[t][i] are nonzero polynomials in the
    # roots: so the sieve holds for every root set of size n at order i if
    # and only if every c_t is 0
    count = 0
    for n in range(21):
        for i in range(n + 1):
            weights = esp._weights(n, i)
            for t in range(1, i):
                c = 1 + sum(w * math.comb(n - t, i - t - h) for h, w in enumerate(weights[: i - t], start=1))
                assert c == 0, (n, i, t)
                count += 1
    assert count == 1330


def _random_roots(rng, n, bits):
    return tuple(rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(n))


def _cells_above_the_direct_rule():
    # (elements, top) with every root at least top and b * top in 496..999, b
    # the slot width _bracket_totals bounds F by: n = top and n = 8 random
    # roots, at the narrowest and the widest root width whose cell lies in the
    # band
    rng = random.Random(7)
    cells = []
    for top in range(2, 9):
        for n in sorted({top, 8}):
            band = []
            for bits in range(2, 260):
                elements = _random_roots(rng, n, bits)
                if min(elements) >= top and esp._DIRECT_BELOW <= _support_width(elements, top) * top <= 999:
                    band.append(elements)
            cells += [(band[0], top), (band[-1], top)]
    return cells


def test_support_rows_and_brackets_hold_just_above_the_direct_rule(monkeypatch):
    # Each cell, and the same cell with one root at top - 1, whose factor is
    # shorter than the rows: the Newton rows are the enumerated support sums,
    # and the per-order sieve converts them into the enumerated brackets.
    taken = []
    run = esp._newton_rows
    monkeypatch.setattr(esp, "_newton_rows", lambda *args: taken.append(args[1]) or run(*args))
    cells = _cells_above_the_direct_rule()
    areas = [_support_width(elements, top) * top for elements, top in cells]
    assert len(cells) == 26 and min(areas) < 500 and max(areas) > 990
    for elements, top in cells:
        for cell in (elements, (top - 1, *elements[1:])):
            b = _support_width(cell, top)
            rows, width = esp._newton_rows(cell, top, b)
            assert width == b + (top - 1).bit_length()
            assert rows == _packed_support(_enumerated_support(cell, top), top, width), (cell, top)
            # the per-order sieve at i = top converts support rows here
            assert _table_width(cell, top) * top >= esp._DIRECT_BELOW
            roots = RootSet(cell)
            taken.clear()
            value, breakdown = esp_extraction(roots, top, explain_limit=0)
            assert taken == [top]
            brackets = [row[top] for row in _enumerated_table(cell, top)]
            assert [term.bracket_total for term in breakdown.terms] == brackets[top - 1 : 0 : -1]
            assert value == esp_all(roots)[top]


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


def _triangle_prefixes(family, rows):
    elements = (1,) * rows if family == "pascal" else tuple(range(1, rows + 1))
    return [esp_all(RootSet(elements[:n])) for n in range(1, rows + 1)]


def test_specialize_runs_one_direct_fill(monkeypatch):
    def refuse(*args):
        raise AssertionError("specialize must not build a table per row")

    for name in ("_bracket_table", "_newton_rows", "esp_extraction_all"):
        monkeypatch.setattr(esp, name, refuse)
    factors, fills, yielded = esp._binomial_factors, [], []

    def counted(elements, top, b):
        fills.append(len(elements))
        for factor in factors(elements, top, b):
            yielded.append(factor)
            yield factor

    monkeypatch.setattr(esp, "_binomial_factors", counted)
    caches = esp._conversion.cache_info(), esp._direct_layout.cache_info()
    for family in ("pascal", "stirling1"):
        fills.clear()
        yielded.clear()
        assert list(specialize(family, 24)) == _triangle_prefixes(family, 24)
        # one fill with one packed product per root, for the whole triangle
        assert fills == [24] and len(yielded) == 24
    assert (esp._conversion.cache_info(), esp._direct_layout.cache_info()) == caches


@pytest.mark.parametrize("family", ["pascal", "stirling1"])
def test_specialize_rows_are_the_prefix_sets(family):
    # each row count sets its own top, slot width and stride
    for rows in range(1, 41):
        assert list(specialize(family, rows)) == _triangle_prefixes(family, rows), rows


@pytest.mark.parametrize("family", ["pascal", "stirling1"])
def test_specialize_row_60_is_the_per_row_sieve(family):
    roots = RootSet((1,) * 60 if family == "pascal" else tuple(range(1, 61)))
    *_, row = specialize(family, 60)
    assert row == esp_extraction_all(roots) == esp_all(roots)


def test_direct_stride_is_the_bound_in_whole_bytes():
    # the bound leaves about b spare bits on the triangles, so no value test
    # sees a stride a byte short: the bound itself is checked, for the one
    # layout that every direct fill takes
    for top in range(1, 41):
        for b in range(1, 80):
            stride, keep, row = esp._direct_layout.__wrapped__(top, b)
            bound = b * (2 * top + 2) + 1
            assert stride % 8 == 0 and stride - 8 < bound <= stride, (top, b)
            assert row == (1 << (b * (top + 1))) - 1, (top, b)
            assert keep == sum(row << (stride * s) for s in range(top)), (top, b)


@pytest.mark.parametrize("family, rows", [("pascal", 80), ("stirling1", 40)])
def test_the_triangle_drops_each_cut_before_the_next_product(monkeypatch, family, rows):
    # The traced peak is the mask, the table and the update's temporaries,
    # about 5.5 tables here; a cut kept across the next product adds one more
    # (6.5).  _weights runs uncached, so no cache grows inside the trace.
    monkeypatch.setattr(esp, "_weights", esp._weights.__wrapped__)
    elements = (1,) * rows if family == "pascal" else tuple(range(1, rows + 1))
    stride = esp._direct_layout.__wrapped__(rows, esp._table_width(elements, rows))[0]
    tracemalloc.start()
    try:
        for _ in specialize(family, rows):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * rows * stride // 8
