"""The shared verify checks must report failures when a route is wrong."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from symex import bigcomb, coeffs, esp, polyexpand, series, subsets, verify
from symex.cli import main
from symex.rootset import RootSet


@pytest.fixture
def cold_layer_tables():
    # The layer tables live for the whole process: start from none, and drop
    # any built under a patch so no later test sees them.
    polyexpand._layer_table.cache_clear()
    yield
    polyexpand._layer_table.cache_clear()


@pytest.fixture
def cold_sieve_weights():
    # The sieve's weight rows live for the whole process too: drop any built
    # before a patch, and any built under it.
    esp._weights.cache_clear()
    yield
    esp._weights.cache_clear()


def labels(report):
    return [check.label for check in report.failures()]


def swept_wide():
    """The root tuples of verify.WIDE_SETS, as the equivalence sweeps take them after their other sets."""
    return [roots.elements for roots in verify.WIDE_SETS]


def swept_multisets():
    """The root tuples the multiset sweep checks, in its order: 1,715 multisets, then the wide sets."""
    return [*verify._multisets(6, 7), *swept_wide()]


def swept_layer_sets():
    """The root tuples the layer sweep checks, in its order: the 461 multisets of 1..5 roots from 1..6."""
    return list(verify._multisets(5, 6))


def swept_random(seed):
    """The root tuples the random sweep checks at `seed`, in its order: 300 drawn sets, then the wide sets."""
    rng = random.Random(seed)
    return [*(verify._random_roots(rng, 1, 10, 9) for _ in range(300)), *swept_wide()]


def plant_loworder_defect_at_order_4(monkeypatch):
    spelled_out = esp.esp_loworder
    monkeypatch.setattr(esp, "esp_loworder", lambda roots, i: spelled_out(roots, i) + (i == 4))


def plant_c2_defect_at_n6(monkeypatch):
    recurrence = coeffs.coeff_recurrence

    def wrong_c2_at_n6(n, i, h_max):
        values = recurrence(n, i, h_max)
        if n != 6:
            return values
        return (values[0], values[1] + 1, *values[2:])

    monkeypatch.setattr(coeffs, "coeff_recurrence", wrong_c2_at_n6)


def test_loworder_forms_report_a_planted_defect(monkeypatch):
    plant_loworder_defect_at_order_4(monkeypatch)
    check = verify.loworder_forms(random.Random(42))
    assert check.detail == "80 instances"
    assert len(labels(check)) == 20 and {i for _, i in labels(check)} == {4}


def test_convolution_checks_report_a_planted_defect(monkeypatch):
    plant_c2_defect_at_n6(monkeypatch)
    routes, by_recurrence, by_closed = verify.convolution_checks()
    assert labels(routes) == [(6, i) for i in range(1, 7)]
    assert labels(by_recurrence) == [(6, i, "h=2") for i in range(1, 7)]
    assert by_closed.ok and by_closed.detail == "210 (n,i) pairs, h<=12"


def test_a_failing_sweep_carries_its_values(monkeypatch):
    plant_loworder_defect_at_order_4(monkeypatch)
    plant_c2_defect_at_n6(monkeypatch)
    wrong_forms = verify.loworder_forms(random.Random(42)).failures()
    assert len(wrong_forms) == 20
    assert all(check.observed == check.expected + 1 for check in wrong_forms)
    routes, by_recurrence, _ = verify.convolution_checks()
    first_route, first_sum = routes.failures()[0], by_recurrence.failures()[0]
    assert first_route.label == (6, 1) and first_route.observed[1] == first_route.expected[1] + 1
    assert first_sum.label == (6, 1, "h=2") and first_sum.expected == 1 and first_sum.observed != 1
    # a passing sweep holds no checks, a fixed list holds every value
    assert verify.vandermonde_check().checks == []
    assert [len(report.checks) for report in verify.layer_checks()[:2]] == [4, 8]


def wrong_c3_at_n5(closed):
    return lambda n, i, h: closed(n, i, h) + (n == 5 and h == 3)


def test_gf_checks_report_a_planted_defect(monkeypatch):
    monkeypatch.setattr(series, "coeff_closed", wrong_c3_at_n5(coeffs.coeff_closed))
    untransformed, transformed = verify.gf_checks(30)
    assert labels(untransformed) == labels(transformed) == [(5, i) for i in range(1, 6)]
    assert untransformed.detail == transformed.detail == "78 (n,i) pairs, T=30"


def test_vandermonde_check_reports_a_planted_defect(monkeypatch):
    monkeypatch.setattr(coeffs, "coeff_closed", wrong_c3_at_n5(coeffs.coeff_closed))
    check = verify.vandermonde_check()
    assert labels(check) == [(5, i, "term k=2") for i in range(1, 6)]
    assert check.detail == "210 (n,i) pairs, h=12"


def test_layer_checks_report_a_planted_defect(monkeypatch, cold_layer_tables):
    multinomial = polyexpand.multinomial
    monkeypatch.setattr(polyexpand, "multinomial", lambda p, parts: multinomial(p, parts) + (parts == (2, 1)))
    quartet, ones, layers = verify.layer_checks()
    assert labels(quartet) == [(2, 1)] and ones.ok
    # m_a^2 m_b enters the expansion at every order from 3 on, so each of those instances fails
    assert layers.detail == "1980 instances"
    assert labels(layers) == [(elements, i) for elements in swept_layer_sets() for i in range(3, len(elements) + 1)]


def test_layer_checks_see_a_planted_defect_in_the_definition(monkeypatch, capsys):
    # The top layer is compared with esp_direct looked up on symex.esp, so a
    # defect there fails the layers suite as well as equivalence.
    direct = esp.esp_direct
    monkeypatch.setattr(esp, "esp_direct", lambda roots, i: direct(roots, i) + (i == 2))
    _, _, layers = verify.layer_checks()
    assert labels(layers) == [(elements, 2) for elements in swept_layer_sets() if len(elements) >= 2]
    assert len(labels(layers)) == 461 - 6
    assert main(["verify", "--suite", "layers"]) == 1
    assert "FAIL layer decomposition multisets n<=5 m<=6, proves n<=5 (1980 instances)" in capsys.readouterr().out


def test_layer_checks_catch_a_flipped_sign_convention(monkeypatch, cold_layer_tables):
    # the listing -22/4!, +18/4!, -4/4!, -6/4! of the rejected convention, with all-ones -1
    signed = polyexpand.stirling_first_signed
    monkeypatch.setattr(polyexpand, "stirling_first_signed", lambda i, p: -signed(i, p))
    quartet, ones, _ = verify.layer_checks()
    assert labels(quartet) == [(1, 1), (2, 1), (3, 1), (2, 2)]
    assert labels(ones) == list(range(1, 9))
    assert all(check.observed == -check.expected for check in quartet.checks + ones.checks)


def test_layer_tables_are_built_once(monkeypatch, cold_layer_tables):
    calls = []
    multinomial = polyexpand.multinomial

    def counted(p, parts):
        calls.append(parts)
        return multinomial(p, parts)

    monkeypatch.setattr(polyexpand, "multinomial", counted)
    # The order-i tables hold every composition of every p = 1..i, 2^i - 1 of
    # them; the 4 + 8 single coefficients are computed on each run.
    assert all(check.ok for check in verify.layer_checks())
    assert len(calls) == sum(2**i - 1 for i in range(1, 6)) + 4 + 8
    calls.clear()
    assert all(check.ok for check in verify.layer_checks())
    assert len(calls) == 4 + 8


def layer_memo_info():
    # (evaluations, entries) summed over the subset memos of every swept table, i <= 5
    infos = [polyexpand._layer_table(i, s).cache_info() for i in range(1, 6) for s in range(1, i + 1)]
    return sum(info.misses for info in infos), sum(info.currsize for info in infos)


def test_layer_checks_evaluate_each_subset_once(monkeypatch, cold_layer_tables):
    # Each memo key is a sorted s-tuple of roots in 1..6, a sub-multiset of a
    # swept multiset, so the sweep has sum_{i<=5} sum_{s<=i} C(s+5, s) = 786
    # of them.  Order-i, size-s tables hold C(i, s) exponent vectors, one
    # product each: sum_{i<=5} sum_{s<=i} C(i, s) C(s+5, s) = 2,358.  The
    # ordered tuples' memo is counted in tests/test_polyexpand.py.
    products = []

    def counted(factors):
        products.append(None)
        return math.prod(factors)

    monkeypatch.setattr(polyexpand, "math", SimpleNamespace(prod=counted, factorial=math.factorial))
    assert all(check.ok for check in verify.layer_checks())
    assert layer_memo_info() == (786, 786)
    assert len(products) == 2358
    products.clear()
    reports = verify.layer_checks()
    assert all(check.ok for check in reports) and reports[2].detail == "1980 instances"
    assert layer_memo_info() == (786, 786)
    assert products == []


def test_planted_layer_defects_show_after_a_warm_sweep(monkeypatch, cold_layer_tables):
    # A warm, unpatched sweep fills every table and its subset memo.  The one
    # cache_clear that cold_layer_tables makes must drop both, or the planted
    # defects of the two tests above would be hidden by the stale sums.
    for planted in (test_layer_checks_report_a_planted_defect, test_layer_checks_catch_a_flipped_sign_convention):
        assert all(check.ok for check in verify.layer_checks())
        with monkeypatch.context() as patch:
            patch.setattr(polyexpand, "multinomial", lambda p, parts: bigcomb.multinomial(p, parts) + 1)
            assert verify.layer_checks()[2].ok  # the warm tables do not see a patch
            polyexpand._layer_table.cache_clear()
        with monkeypatch.context() as patch:
            planted(patch, None)
        polyexpand._layer_table.cache_clear()


def test_layer_memo_keeps_each_subset_in_its_order(monkeypatch, cold_layer_tables):
    # A correct subset sum is symmetric, so only an asymmetric defect shows a
    # memo that sorts its keys.  With multinomial(3; 2, 1) one too large, the
    # order-3 total gains a^2 b / 3! for each pair (a, b) in the order given.
    multinomial = polyexpand.multinomial
    monkeypatch.setattr(polyexpand, "multinomial", lambda p, parts: multinomial(p, parts) + (parts == (2, 1)))
    for elements in ((1, 2, 3), (3, 2, 1), (2, 3, 1), (1, 2, 3)):
        full, _ = polyexpand.verify_layer_decomposition(RootSet(elements), 3).checks
        extra = sum(a * a * b for a, b in itertools.combinations(elements, 2))
        assert full.observed - full.expected == Fraction(extra, 6)


def test_sieve_weights_are_built_once_per_order(monkeypatch):
    # The multiset sweep reads the rows (n, i) for n <= 6, i <= n: 21 rows of
    # i - 1 closed-form coefficients, one multichoose each, 35 in all, built
    # once and shared.
    calls = []

    def counted(x, k):
        calls.append((x, k))
        return bigcomb.binomial_second(x, k)

    esp._weights.cache_clear()
    monkeypatch.setattr(coeffs, "binomial_second", counted)
    assert verify.equivalence_exhaustive().ok
    assert len(calls) == 35 and esp._weights.cache_info().misses == 21
    calls.clear()
    report = verify.equivalence_exhaustive()
    assert report.ok and report.detail == "9025 instances"
    assert calls == []
    random_sweep = verify.equivalence_random(random.Random(42))
    assert random_sweep.ok and random_sweep.detail == "1725 instances"
    esp._weights.cache_clear()
    # a shared row is a tuple, so no caller can change it for the next
    assert esp._weights(6, 4) == (-1, 3, -6) and esp._weights(6, 4) is esp._weights(6, 4)


def test_sieve_weights_are_the_verified_closed_coefficients(monkeypatch, cold_sieve_weights):
    # The weights come from coeffs.coeff_closed, the coefficient the convolution,
    # Vandermonde and gf suites check.  A wrong C_3 at n = 5 moves e_i by the
    # bracket sum_{|J|=i-3} C(sigma_J, i), so exactly the n = 5 sets at i >= 4
    # whose bracket is nonzero fail.
    monkeypatch.setattr(coeffs, "coeff_closed", wrong_c3_at_n5(coeffs.coeff_closed))
    expected = [
        (elements, i)
        for elements in swept_multisets()
        if len(elements) == 5
        for i in (4, 5)
        if sum(math.comb(sum(combo), i) for combo in itertools.combinations(elements, i - 3))
    ]
    exhaustive = verify.equivalence_exhaustive()
    assert exhaustive.detail == "9025 instances"
    assert len(expected) > 0 and labels(exhaustive) == expected
    # the spelled-out forms hard-code their weights, so they still agree with the definition
    assert verify.loworder_forms(random.Random(42)).ok


def test_equivalence_sweeps_report_a_planted_defect_in_the_all_orders_sieve(monkeypatch):
    # Slot 2 of row 1 holds B[1][2], read only at order 2 from a table with
    # top > 2: the all-orders sieve reads it there for every n >= 3.  Both
    # sweeps run the all-orders sieve, the random one on sets in the order
    # drawn; the per-order sieve builds no table.
    table = esp._bracket_table

    def off_by_one(elements, top):
        rows, b = table(elements, top)
        if top > 2:
            rows[1] += 1 << (2 * b)
        return rows, b

    monkeypatch.setattr(esp, "_bracket_table", off_by_one)
    exhaustive = verify.equivalence_exhaustive()
    assert exhaustive.detail == "9025 instances"
    assert labels(exhaustive) == [(elements, 2) for elements in swept_multisets() if len(elements) >= 3]
    random_sweep = verify.equivalence_random(random.Random(42))
    assert random_sweep.detail == "1725 instances"
    assert labels(random_sweep) == [(elements, 2) for elements in swept_random(42) if len(elements) >= 3]
    # each failing instance shows which route was wrong: (per order, all orders, recurrence)
    first = random_sweep.failures()[0]
    assert first.observed[0] == first.observed[2] == first.expected[0] != first.observed[1]


def plant_vanishing_defect_at_order_4(monkeypatch):
    # Adds prod_j (m_j-1)(m_j-2)(m_j-3)(m_j-4) to e_4 of the all-orders sieve
    # on sets whose roots are all at most 9.  It vanishes whenever a root is
    # in 1..4, so on every tuple over {1..4}, and spares the wide sets.
    sieve = esp.esp_extraction_all

    def planted(roots):
        values = sieve(roots)
        if roots.n >= 4 and max(roots.elements) <= 9:
            values[4] += math.prod((m - 1) * (m - 2) * (m - 3) * (m - 4) for m in roots.elements)
        return values

    monkeypatch.setattr(esp, "esp_extraction_all", planted)


def test_the_multiset_sweep_catches_a_defect_that_vanishes_on_small_roots(monkeypatch, capsys):
    plant_vanishing_defect_at_order_4(monkeypatch)
    assert main(["verify", "--suite", "equivalence"]) == 1
    assert [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["FAIL", "FAIL", "PASS", "result:"]
    # the multisets of n >= 4 with every root in {5, 6, 7}, at order 4, and no wide set
    exhaustive = verify.equivalence_exhaustive()
    expected = [(elements, 4) for elements in swept_multisets() if len(elements) >= 4 and set(elements) <= {5, 6, 7}]
    assert len(expected) == 15 + 21 + 28 and labels(exhaustive) == expected


def _wide(label):
    return label[0] in {roots.elements for roots in verify.WIDE_SETS}


def test_equivalence_sweeps_convert_support_rows_only_on_the_wide_sets(monkeypatch):
    # the direct fill of small tables and per-order brackets, and the
    # support columns of the wide sets.  Both routes follow b * n < 496,
    # b = f + n a table's width up to the order; below it lie every multiset
    # and, at this seed, every random set at every order (a ten-root set
    # would convert its table and order 10 from N = 73, and order 9 from
    # N = 88).
    runs = {"direct": [], "newton": []}
    for route, name in (("direct", "_direct_rows"), ("newton", "_support_columns")):
        kernel = getattr(esp, name)

        def counted(elements, top, b, kernel=kernel, route=route):
            runs[route].append((tuple(elements), top))
            return kernel(elements, top, b)

        monkeypatch.setattr(esp, name, counted)
    sweeps = (
        # the all-orders table alone, top = n
        (verify.equivalence_exhaustive, swept_multisets(), lambda n: [n]),
        # the per-order brackets at each order >= 2, top = i, then the table
        (lambda: verify.equivalence_random(random.Random(42)), swept_random(42), lambda n: [*range(2, n + 1), n]),
    )
    for sweep, swept, tops in sweeps:
        for taken in runs.values():
            taken.clear()
        assert sweep().ok
        # every multiset's table is filled directly, once; at this seed so is
        # every random set's, and every one of its per-order bracket rows; no
        # wide set's is
        assert runs["direct"] == [(elements, top) for elements in swept[:-3] for top in tops(len(elements))]
        # and support columns are converted for the three wide sets alone,
        # at every top the direct fill takes for the other sets
        assert runs["newton"] == [(elements, top) for elements in swept[-3:] for top in tops(len(elements))]


def test_each_sweep_builds_one_root_set_per_swept_set(monkeypatch, serial_verify):
    recorded = serial_verify.sweeps("42")
    built = []
    monkeypatch.setattr(verify, "RootSet", lambda elements: built.append(elements) or RootSet(elements))
    # one RootSet per swept tuple, 1,715 multisets, then 300 random sets; the
    # wide sets are RootSets already
    assert verify.equivalence_exhaustive() == recorded[0] and built == swept_multisets()[:1715]
    built.clear()
    rng = random.Random(42)
    assert verify.equivalence_random(rng) == recorded[1] and built == swept_random(42)[:300]
    assert rng.getstate() == recorded[2]


def test_layer_checks_build_one_root_set_per_set(monkeypatch, cold_layer_tables):
    built = []
    monkeypatch.setattr(verify, "RootSet", lambda elements: built.append(elements) or RootSet(elements))
    _, _, layers = verify.layer_checks()
    # 1,980 (set, order) cases from 461 sets
    assert layers.ok and layers.detail == "1980 instances"
    assert built == swept_layer_sets() and len(built) == 461


def plant_vanishing_layer_defect(monkeypatch):
    # Each tuple's i!-scaled layer sum gains prod_m (m-1)(m-2)(m-3)(m-4).  It
    # vanishes whenever a root is in 1..4, so on every tuple over {1..4}.
    table = polyexpand._layer_table

    def planted(i, s):
        subset_sum = table(i, s)
        return lambda ms: subset_sum(ms) + math.prod((m - 1) * (m - 2) * (m - 3) * (m - 4) for m in ms)

    monkeypatch.setattr(polyexpand, "_layer_table", planted)


def test_the_layer_sweep_catches_a_defect_that_vanishes_on_small_roots(monkeypatch, capsys):
    plant_vanishing_layer_defect(monkeypatch)
    # the 6,372 cases of the ordered tuples of {1..4}^n, n <= 5, all pass under it
    ordered = [elements for n in range(1, 6) for elements in itertools.product(range(1, 5), repeat=n)]
    for elements in ordered:
        assert all(polyexpand.verify_layer_decomposition(RootSet(elements), i).ok for i in range(1, len(elements) + 1))
    assert main(["verify", "--suite", "layers"]) == 1
    assert [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["PASS", "PASS", "FAIL", "result:"]
    # a root of 5 or 6 adds 24 or 120 to the s = 1 layer, and nothing takes
    # it away, so every order of each multiset holding one fails
    _, _, layers = verify.layer_checks()
    expected = [(elements, i) for elements in swept_layer_sets() if max(elements) >= 5 for i in range(1, len(elements) + 1)]
    assert layers.detail == "1980 instances" and len(expected) == 1476 and labels(layers) == expected


@pytest.mark.parametrize("grid, sweep", [
    ("EQUIVALENCE_GRID", verify.equivalence_exhaustive),
    ("LAYER_GRID", lambda: verify.layer_checks()[2]),
])
def test_each_proving_sweep_has_more_values_than_its_largest_n(monkeypatch, grid, sweep):
    # The error of each swept identity has degree at most n in each root, so
    # "proves n<=k" holds only on a grid of more than k values per root.
    n_max, m_max = getattr(verify, grid)
    assert m_max > n_max
    swept = []
    monkeypatch.setattr(verify, "_multisets", lambda *grid: swept.append(grid) or ())
    report = sweep()
    assert swept == [(n_max, m_max)]
    assert f" multisets n<={n_max} m<={m_max}, proves n<={n_max}" in report.name


def test_multiplicity_check_reports_a_superset_pass_that_drops_one_subset(monkeypatch, capsys):
    counted = subsets.superset_counts

    def one_short(n, s):
        # the pass at (5, 3) misses J = (1, 2, 3), so each of its 8 subsets is counted once too few
        counts = counted(n, s)
        if (n, s) == (5, 3):
            counts.subtract(itertools.chain.from_iterable(itertools.combinations((1, 2, 3), t) for t in range(4)))
        return counts

    monkeypatch.setattr(subsets, "superset_counts", one_short)
    assert main(["verify", "--suite", "multiplicity"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines[1:]] == ["FAIL", "result:"]
    wrong = verify.multiplicity_check().failures()
    assert [check.label for check in wrong] == [
        (5, fixed, 3) for t in range(4) for fixed in itertools.combinations((1, 2, 3), t)
    ]
    assert all(check.observed == check.expected - 1 for check in wrong)


def plant_direct_factor_defect(monkeypatch):
    factors = esp._binomial_factors

    def off_by_one(elements, top, b):
        # C(m, 0) read as 2, in the factors that only the direct fill takes
        for factor in factors(elements, top, b):
            yield factor + 1

    monkeypatch.setattr(esp, "_binomial_factors", off_by_one)


def plant_direct_stride_defect(monkeypatch):
    @functools.lru_cache
    def narrow(top, b):
        # room for one slot above a row, not top + 1 and a guard bit, still
        # in whole bytes; cached like the layout, whose __wrapped__ the triangle calls
        size, row = (b * (top + 2) + 8) // 8, (1 << (b * (top + 1))) - 1
        return 8 * size, int.from_bytes(row.to_bytes(size, "little") * top, "little"), row

    monkeypatch.setattr(esp, "_direct_layout", narrow)


@pytest.mark.parametrize("plant", [plant_direct_factor_defect, plant_direct_stride_defect])
def test_verify_fails_when_the_direct_table_route_is_wrong(monkeypatch, capsys, plant):
    plant(monkeypatch)
    assert main(["verify", "--suite", "equivalence"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # both sweeps fill small tables directly, and the random one its per-order brackets too
    assert [line.split(" ")[0] for line in lines[1:]] == ["FAIL", "FAIL", "PASS", "result:"]
    failed = labels(verify.equivalence_exhaustive())
    assert failed and not any(map(_wide, failed))
    wrong = verify.equivalence_random(random.Random(42)).failures()
    assert wrong and not any(_wide(check.label) for check in wrong)
    # observed is (per order, all orders, recurrence): each sieve fails, the recurrence never
    assert all(check.observed[2] == check.expected[0] for check in wrong)
    assert all(any(check.observed[route] != check.expected[0] for check in wrong) for route in (0, 1))
    # the triangle takes the same factors and layout, and fails its recurrence check
    capsys.readouterr()
    assert main(["specialize", "--family", "stirling1", "--rows", "12"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_the_narrowed_direct_layout_also_fails_the_triangle(monkeypatch, capsys):
    # The triangle takes the same layout.  Pascal's factors 1 + z fit the
    # narrowed stride, but stirling1's products carry past it, so the cut
    # after root 5 overflows and the command exits 1 after four rows.
    plant_direct_stride_defect(monkeypatch)
    assert main(["specialize", "--family", "stirling1", "--rows", "12"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [" ".join(map(str, esp.esp_all(RootSet(tuple(range(1, n + 1)))))) for n in range(1, 5)]
    assert err == "error: int too big to convert\n"


def plant_newton_defect(monkeypatch):
    log_derivative = esp._log_derivative

    def shifted(elements, top, f):
        # every D_l one slot up: its coefficient of y^r where that of
        # y^(r-1) belongs
        return [value << f for value in log_derivative(elements, top, f)]

    monkeypatch.setattr(esp, "_log_derivative", shifted)


def test_verify_fails_when_the_newton_power_sums_are_off_by_one_slot(monkeypatch, capsys):
    plant_newton_defect(monkeypatch)
    assert main(["verify", "--suite", "equivalence"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines[1:]] == ["FAIL", "FAIL", "PASS", "result:"]
    # Only the wide sets convert support columns, so only they fail, all three at
    # every order from 2 on: WIDE_SETS[1], whose roots 1 and 2 lie below
    # those orders, as well as the two whose roots are all wide.
    for report in (verify.equivalence_exhaustive(), verify.equivalence_random(random.Random(42))):
        assert labels(report) == [(roots.elements, i) for roots in verify.WIDE_SETS for i in range(2, roots.n + 1)]


# ---------------------------------------------------------------------------
# The one fork site: run_suites runs the unseeded suites in one forked child,
# merged as the serial run orders them.


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def count_forks(monkeypatch):
    """The list that each later os.fork call appends its caller's pid to."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forked_run(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with two CPUs, and the forks it made."""
    forks = count_forks(monkeypatch)
    set_cpus(monkeypatch, 2)
    run = (main(argv), *capsys.readouterr())
    assert_no_child_left()
    return run, len(forks)


def serial_and_forked(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with one CPU and with two, and the forks made with two."""
    set_cpus(monkeypatch, 1)
    serial = (main(argv), *capsys.readouterr())
    assert_no_child_left()
    forked, forks = forked_run(monkeypatch, capsys, argv)
    return (serial, forked), forks


@pytest.mark.parametrize("seed", ["42", "7", "1"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_two_processes_print_the_serial_bytes(monkeypatch, capsys, serial_verify, seed, json_flag):
    argv = ["verify", "--suite", "all", "--seed", seed, *json_flag]
    serial = serial_verify(*argv)
    forked, forks = forked_run(monkeypatch, capsys, argv)
    # one child for the unseeded suites; no sweep forks
    assert forks == 1 and serial[0] == 0 and forked == serial


def test_two_processes_print_the_serial_bytes_of_the_equivalence_suite(monkeypatch, capsys, serial_verify):
    argv = ["verify", "--suite", "equivalence", "--seed", "7"]
    serial = serial_verify(*argv)
    forked, forks = forked_run(monkeypatch, capsys, argv)
    # a single suite runs in this process, and none of its sweeps forks
    assert forks == 0 and serial[0] == 0 and forked == serial


def test_two_cpu_sweeps_equal_their_serial_reports(monkeypatch, serial_verify):
    # With two CPUs the sweeps still run serially in this process, and leave
    # the rng where the serial run leaves it.
    recorded = {seed: serial_verify.sweeps(seed) for seed in ("42", "7", "1")}
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert verify.equivalence_exhaustive() == recorded["42"][0]
    for seed, (_, random_report, state) in recorded.items():
        rng = random.Random(int(seed))
        assert verify.equivalence_random(rng) == random_report and rng.getstate() == state


def test_two_processes_print_the_serial_bytes_when_child_suites_fail(monkeypatch, capsys, cold_sieve_weights):
    closed = coeffs.coeff_closed
    monkeypatch.setattr(coeffs, "coeff_closed", lambda n, i, h: closed(n, i, h) + 1)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    assert forks == 1 and forked == serial
    assert serial[0] == 1 and "FAIL recurrence equals closed form" in serial[1]


def test_two_processes_print_the_serial_bytes_when_equivalence_fails(monkeypatch, capsys):
    plant_newton_defect(monkeypatch)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all", "--json"])
    assert forks == 1 and forked == serial
    assert serial[0] == 1 and '"passed": false, "detail": "9025 instances"' in serial[1]


class Undrawable:
    """An rng whose every draw raises."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the rng: {name}")


def test_seeded_suites_are_suites_and_a_draw_is_caught():
    assert set(verify.SEEDED_SUITES) <= set(verify.SUITES)
    with pytest.raises(AssertionError, match="drew from the rng"):
        verify.loworder_forms(Undrawable())


@pytest.mark.parametrize("name", [name for name in verify.SUITES if name not in verify.SEEDED_SUITES])
def test_unseeded_suites_never_draw_from_the_rng(name):
    reports = verify.SUITES[name](Undrawable(), 30)
    assert reports and all(report.ok for report in reports)


class Site:
    """A quick `verify --suite all`, set up on `patch`, whose one fork splits
    the suites.  plant(side, action) calls action() each time the work planted
    on that side of the split has run, in whichever process ran it.  Serially,
    the child's side runs last."""

    argv, checks = ["verify", "--suite", "all"], 11

    def __init__(self, patch):
        self.patch = patch
        # A seeded stand-in that draws from the rng, so each run takes milliseconds.
        patch.setitem(verify.SUITES, "equivalence", lambda rng, truncation: [verify.loworder_forms(rng)])

    def plant(self, side, action):
        name = "equivalence" if side == "parent" else "multiplicity"
        suite = verify.SUITES[name]

        def planted_suite(rng, truncation):
            reports = suite(rng, truncation)
            action()
            return reports

        self.patch.setitem(verify.SUITES, name, planted_suite)


def test_a_child_that_exits_early_gives_the_full_serial_output(monkeypatch, capsys):
    parent, site = os.getpid(), Site(monkeypatch)
    site.plant("child", lambda: os.getpid() != parent and os._exit(7))
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, site.argv)
    assert forks == 1 and forked == serial and serial[0] == 0
    assert serial[1].endswith(f"result: PASS ({site.checks}/{site.checks} checks)\n")


def test_a_child_that_exits_non_zero_after_writing_is_not_trusted(monkeypatch, capsys):
    parent, exit_now, site = os.getpid(), os._exit, Site(monkeypatch)
    runs_here = []
    site.plant("child", lambda: os.getpid() == parent and runs_here.append(None))
    # Only the child calls os._exit; it now exits 3 after writing its half.
    monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, site.argv)
    assert forks == 1 and forked == serial and serial[0] == 0
    assert len(runs_here) == 2  # once serially, once in place of the child


def planted_error(side):
    def action():
        raise ArithmeticError(f"planted on the {side}'s side")

    return action


def test_a_child_suite_that_raises_gives_the_serial_error(monkeypatch, capsys):
    # The child sends its exception back, and it is raised here after this
    # process's half, as serially.
    Site(monkeypatch).plant("child", planted_error("child"))
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, Site.argv)
    assert forks == 1 and forked == serial == (1, "", "error: planted on the child's side\n")


def test_a_suite_defect_exits_one_with_one_line_naming_the_command(monkeypatch, capsys):
    # An error that no cross-check raises is a defect, on either side of the
    # fork: one line names the command, the error's type and its message.
    for side in ("parent", "child"):
        for error in (ValueError("planted"), KeyError("planted"), AssertionError("planted")):

            def defect(error=error):
                raise error

            Site(monkeypatch).plant(side, defect)
            (serial, forked), forks = serial_and_forked(monkeypatch, capsys, Site.argv)
            line = f"error: verify: {type(error).__name__}: {error}\n"
            assert forks == 1 and forked == serial == (1, "", line)
            monkeypatch.undo()


def test_a_parent_half_that_raises_gives_the_serial_error(monkeypatch, capsys):
    # Alone or beside a raise on the child's side, the raise in this process's
    # half is the serial run's error: the seeded suite runs first.
    for sides in (["parent"], ["parent", "child"]):
        site = Site(monkeypatch)
        for side in sides:
            site.plant(side, planted_error(side))
        (serial, forked), forks = serial_and_forked(monkeypatch, capsys, site.argv)
        assert forks == 1 and forked == serial == (1, "", "error: planted on the parent's side\n")
        monkeypatch.undo()


@pytest.mark.parametrize("side", ["parent", "child"])
def test_a_suite_that_raises_once_fails_as_serially(monkeypatch, capsys, tmp_path, side):
    # A file marks the raise, so the planted half raises once across processes
    # and would pass if run again: no half that raised is retried.
    raised = tmp_path / "raised"

    def once():
        if not raised.exists():
            raised.touch()
            raise ArithmeticError(f"planted once on the {side}'s side")

    Site(monkeypatch).plant(side, once)
    forks = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        raised.unlink(missing_ok=True)
        set_cpus(monkeypatch, cpus)
        runs.append((main(Site.argv), *capsys.readouterr()))
        assert_no_child_left()
    assert len(forks) == 1 and runs[0] == runs[1] == (1, "", f"error: planted once on the {side}'s side\n")


def test_a_seeded_suite_after_another_runs_in_this_process(monkeypatch):
    # Serially convolution runs first, so it must raise first: no split.
    Site(monkeypatch)
    names = ["convolution", "equivalence"]
    set_cpus(monkeypatch, 1)
    serial = verify.run_suites(names, random.Random(42), 30)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert verify.run_suites(names, random.Random(42), 30) == serial


def test_an_interrupted_parent_kills_and_reaps_the_child(monkeypatch):
    parent = os.getpid()

    def interrupted():
        raise KeyboardInterrupt

    site = Site(monkeypatch)
    site.plant("parent", interrupted)
    site.plant("child", lambda: os.getpid() != parent and time.sleep(60))
    set_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(site.argv)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def refuse_to_fork():
    raise AssertionError("forked")


def test_a_failed_fork_runs_the_serial_loop(monkeypatch, capsys):
    def no_fork():
        raise BlockingIOError("no process slots")

    Site(monkeypatch)
    (serial, _), _ = serial_and_forked(monkeypatch, capsys, Site.argv)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert (main(Site.argv), *capsys.readouterr()) == serial
    assert_no_child_left()


def test_a_single_suite_runs_in_this_process(monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert main(["verify", "--suite", "gf"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS (2/2 checks)\n")


def test_a_process_with_a_second_thread_runs_serially(monkeypatch, capsys):
    site = Site(monkeypatch)
    set_cpus(monkeypatch, 1)
    serial = (main(site.argv), *capsys.readouterr())
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert (main(site.argv), *capsys.readouterr()) == serial
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert serial[0] == 0 and serial[1].endswith(f"result: PASS ({site.checks}/{site.checks} checks)\n")
    assert_no_child_left()


def test_the_child_flushes_no_inherited_buffer_and_runs_no_exit_handler():
    script = (
        "import atexit, os, random, sys\n"
        "from symex import verify\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
        "verify.SUITES['equivalence'] = lambda rng, truncation: [verify.loworder_forms(rng)]\n"
        "atexit.register(print, 'exit handler')\n"
        "sys.stdout.write('buffered ')\n"
        "reports = verify.run_suites(['equivalence', 'vandermonde'], random.Random(42), 30)\n"
        "print([report.ok for report in reports], len(forks))\n"
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path}
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "buffered [True, True] 1\nexit handler\n", "")
