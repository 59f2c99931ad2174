"""The shared verify checks must report failures when a route is wrong."""

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

from symex import bigcomb, coeffs, esp, polyexpand, series, verify
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
    assert layers.detail == "6372 instances"
    assert labels(layers) == [
        (roots.elements, i) for roots in verify._exhaustive_roots(5, 4) for i in range(3, roots.n + 1)
    ]


def test_layer_checks_see_a_planted_defect_in_the_definition(monkeypatch, capsys):
    # The top layer is compared with esp_direct looked up on symex.esp, so a
    # defect there fails the layers suite as well as equivalence.
    direct = esp.esp_direct
    monkeypatch.setattr(esp, "esp_direct", lambda roots, i: direct(roots, i) + (i == 2))
    _, _, layers = verify.layer_checks()
    assert labels(layers) == [(roots.elements, 2) for roots in verify._exhaustive_roots(5, 4) if roots.n >= 2]
    assert len(labels(layers)) == 1360
    assert main(["verify", "--suite", "layers"]) == 1
    assert "FAIL layer decomposition rebuilds the binomial" in capsys.readouterr().out


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
    # Each memo key is an ordered s-tuple of roots in 1..4, so the sweep has
    # sum_{i<=5} sum_{s<=i} 4^s = 1,812 of them.  Order-i, size-s tables hold
    # C(i, s) exponent vectors, one product each: sum_{i<=5} (5^i - 1) = 3,900.
    products = []

    def counted(factors):
        products.append(None)
        return math.prod(factors)

    monkeypatch.setattr(polyexpand, "math", SimpleNamespace(prod=counted, factorial=math.factorial))
    assert all(check.ok for check in verify.layer_checks())
    assert layer_memo_info() == (1812, 1812)
    assert len(products) == 3900
    products.clear()
    reports = verify.layer_checks()
    assert all(check.ok for check in reports) and reports[2].detail == "6372 instances"
    assert layer_memo_info() == (1812, 1812)
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
    # The exhaustive sweep reads the rows (n, i) for n <= 6, i <= n: 21 rows of
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
    assert report.ok and report.detail == "30964 instances"
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
        (roots.elements, i)
        for roots in itertools.chain(verify._exhaustive_roots(6, 4), verify.WIDE_SETS)
        if roots.n == 5
        for i in (4, 5)
        if sum(math.comb(sum(combo), i) for combo in itertools.combinations(roots.elements, i - 3))
    ]
    exhaustive = verify.equivalence_exhaustive()
    assert exhaustive.detail == "30964 instances"
    assert len(expected) > 0 and labels(exhaustive) == expected
    # the spelled-out forms hard-code their weights, so they still agree with the definition
    assert verify.loworder_forms(random.Random(42)).ok


def test_equivalence_sweeps_report_a_planted_defect_in_the_all_orders_sieve(monkeypatch):
    # Slot 2 of row 1 holds B[1][2], read only at order 2 from a table with
    # top > 2: the all-orders sieve reads it there for every n >= 3, while
    # the per-order sieve reads slot i of a table with top = i only.
    table = esp._bracket_table

    def off_by_one(elements, top):
        rows, b = table(elements, top)
        if top > 2:
            rows[1] += 1 << (2 * b)
        return rows, b

    monkeypatch.setattr(esp, "_bracket_table", off_by_one)
    # With two CPUs the failing sets sit in both halves of the split, so the
    # labels show that the child's failures are merged back in set order.
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    exhaustive = verify.equivalence_exhaustive()
    assert exhaustive.detail == "30964 instances"
    swept = itertools.chain(verify._exhaustive_roots(6, 4), verify.WIDE_SETS)
    assert labels(exhaustive) == [(roots.elements, 2) for roots in swept if roots.n >= 3]
    random_sweep = verify.equivalence_random(random.Random(42))
    assert random_sweep.ok and random_sweep.detail == "1725 instances"
    assert len(forks) == 2
    assert_no_child_left()


def _wide(label):
    return label[0] in {roots.elements for roots in verify.WIDE_SETS}


def test_equivalence_sweeps_run_both_support_kernels(monkeypatch):
    # both support-row routes: the packed DP and the Newton-Girard route.  The
    # calls are counted in this process, so the sweeps run with one CPU here.
    runs = {"packed": [], "newton": []}
    for route in runs:
        kernel = getattr(esp, f"_{route}_rows")

        def counted(elements, top, b, kernel=kernel, route=route):
            runs[route].append((tuple(elements), b * top))
            return kernel(elements, top, b)

        monkeypatch.setattr(esp, f"_{route}_rows", counted)
    wide = {roots.elements for roots in verify.WIDE_SETS}
    for sweep in (verify.equivalence_exhaustive, lambda: verify.equivalence_random(random.Random(42))):
        set_cpus(monkeypatch, 1)
        report = sweep()
        assert report.ok
        # the Newton route runs on the wide sets, at least once, and on nothing else
        assert runs["newton"] and {elements for elements, _ in runs["newton"]} <= wide
        # WIDE_SETS[1]'s roots 1 and 2 keep it off Newton: it is the one set
        # whose packed rows reach the wide slots where Newton may run
        assert {elements for elements, area in runs["packed"] if area >= esp._NEWTON_ABOVE} == {verify.WIDE_SETS[1].elements}
        for taken in runs.values():
            taken.clear()
        set_cpus(monkeypatch, 2)
        assert sweep() == report


def plant_newton_defect(monkeypatch):
    power_sums = esp._power_sums

    def shifted(elements, top, b):
        # every P_r one slot up: P_r[k] where P_r[k-1] belongs
        return [value << b for value in power_sums(elements, top, b)]

    monkeypatch.setattr(esp, "_power_sums", shifted)


def test_verify_fails_when_the_newton_power_sums_are_off_by_one_slot(monkeypatch, capsys):
    plant_newton_defect(monkeypatch)
    assert main(["verify", "--suite", "equivalence"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines[1:]] == ["FAIL", "FAIL", "PASS", "result:"]
    # Only the wide sets take the Newton route, so only they fail: WIDE_SETS[0]
    # and [2], at orders 2..5.  Both CPU counts give the same labels, in set order.
    for sweep in (verify.equivalence_exhaustive, lambda: verify.equivalence_random(random.Random(42))):
        set_cpus(monkeypatch, 1)
        report = sweep()
        assert labels(report) == [(verify.WIDE_SETS[w].elements, i) for w in (0, 2) for i in range(2, 6)]
        set_cpus(monkeypatch, 2)
        assert sweep() == report
    assert_no_child_left()


# ---------------------------------------------------------------------------
# The two fork sites: run_suites runs the unseeded suites in one forked child,
# and each equivalence sweep runs every other root set in one, both merged as
# the serial run orders them.


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
    # one child for the unseeded suites, one for each equivalence sweep
    assert forks == 3 and serial[0] == 0 and forked == serial


def test_two_processes_print_the_serial_bytes_of_the_equivalence_suite(monkeypatch, capsys, serial_verify):
    argv = ["verify", "--suite", "equivalence", "--seed", "7"]
    serial = serial_verify(*argv)
    forked, forks = forked_run(monkeypatch, capsys, argv)
    # a single suite runs in this process, and each of its sweeps forks once
    assert forks == 2 and serial[0] == 0 and forked == serial


def test_two_cpu_sweeps_equal_their_serial_reports(monkeypatch, serial_verify):
    recorded = {seed: serial_verify.sweeps(seed) for seed in ("42", "7", "1")}
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert verify.equivalence_exhaustive() == recorded["42"][0]
    parent, sieve = os.getpid(), esp.esp_extraction

    def dies_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(7)
        return sieve(*args, **kwargs)

    for child_dies in (False, True):
        if child_dies:
            # A dead child's sets are run here: the ones drawn before the fork, not new draws.
            monkeypatch.setattr(esp, "esp_extraction", dies_in_the_child)
        for seed, (_, random_report, state) in recorded.items():
            rng = random.Random(int(seed))
            assert verify.equivalence_random(rng) == random_report
            # every set is drawn before the fork, so the rng ends in the serial state
            assert rng.getstate() == state
    assert len(forks) == 7
    assert_no_child_left()


def test_two_processes_print_the_serial_bytes_when_child_suites_fail(monkeypatch, capsys, cold_sieve_weights):
    closed = coeffs.coeff_closed
    monkeypatch.setattr(coeffs, "coeff_closed", lambda n, i, h: closed(n, i, h) + 1)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    assert forks == 3 and forked == serial
    assert serial[0] == 1 and "FAIL recurrence equals closed form" in serial[1]


def test_two_processes_print_the_serial_bytes_when_equivalence_fails(monkeypatch, capsys):
    plant_newton_defect(monkeypatch)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all", "--json"])
    assert forks == 3 and forked == serial
    assert serial[0] == 1 and '"passed": false, "detail": "30964 instances"' in serial[1]


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


# Small root sets for the sweep site: 14 sets of n <= 3, m <= 2, then the wide ones.
def few_exhaustive_roots(n_max, m_max, exhaustive_roots=verify._exhaustive_roots):
    return exhaustive_roots(3, 2)


class Site:
    """A quick `verify` call whose one fork is at the named site, set up on
    `patch`.  plant(side, action) calls action() each time the work planted on
    that side of the split has run, in whichever process ran it.  Serially, the
    child's side runs first at the sweep site and last at the suites site."""

    def __init__(self, name, patch):
        self.name, self.patch = name, patch
        if name == "suites":
            # A seeded stand-in that draws from the rng, so each run takes milliseconds.
            patch.setitem(verify.SUITES, "equivalence", lambda rng, truncation: [verify.loworder_forms(rng)])
            self.argv, self.checks = ["verify", "--suite", "all"], 11
        else:
            # verify --suite equivalence runs in this process; only its one sweep forks.
            patch.setattr(verify, "_exhaustive_roots", few_exhaustive_roots)
            patch.setitem(verify.SUITES, "equivalence", lambda rng, truncation: [verify.equivalence_exhaustive()])
            self.argv, self.checks = ["verify", "--suite", "equivalence"], 1

    def plant(self, side, action):
        if self.name == "suites":
            name = "equivalence" if side == "parent" else "multiplicity"
            suite = verify.SUITES[name]

            def planted_suite(rng, truncation):
                reports = suite(rng, truncation)
                action()
                return reports

            self.patch.setitem(verify.SUITES, name, planted_suite)
        else:
            # the set at position 2 runs in this process, the one at position 1 in the child
            planted = list(itertools.chain(few_exhaustive_roots(6, 4), verify.WIDE_SETS))[2 if side == "parent" else 1]
            sieve = esp.esp_extraction_all

            def planted_sieve(roots):
                values = sieve(roots)
                if roots == planted:
                    action()
                return values

            self.patch.setattr(esp, "esp_extraction_all", planted_sieve)


def sites(monkeypatch):
    """Each fork site in turn, with every patch of the one before undone."""
    for name in ("suites", "sweep"):
        yield Site(name, monkeypatch)
        monkeypatch.undo()


def test_a_child_that_exits_early_gives_the_full_serial_output(monkeypatch, capsys):
    parent = os.getpid()
    for site in sites(monkeypatch):
        site.plant("child", lambda: os.getpid() != parent and os._exit(7))
        (serial, forked), forks = serial_and_forked(monkeypatch, capsys, site.argv)
        assert forks == 1 and forked == serial and serial[0] == 0
        assert serial[1].endswith(f"result: PASS ({site.checks}/{site.checks} checks)\n")


def test_a_child_that_exits_non_zero_after_writing_is_not_trusted(monkeypatch, capsys):
    parent, exit_now = os.getpid(), os._exit
    for site in sites(monkeypatch):
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
    # The child's failed half is rerun here, where it raises as serially.
    for site in sites(monkeypatch):
        site.plant("child", planted_error("child"))
        (serial, forked), forks = serial_and_forked(monkeypatch, capsys, site.argv)
        assert forks == 1 and forked == serial == (1, "", "error: planted on the child's side\n")


def test_a_parent_half_that_raises_reruns_serially(monkeypatch, capsys):
    # Alone, the raise in this process's half is the serial run's error too.
    # Planted on both sides, the child's comes first in the sweep's set order,
    # so only the serial rerun of the whole split gives the serial error.
    for sides in (["parent"], ["parent", "child"]):
        for site in sites(monkeypatch):
            for side in sides:
                site.plant(side, planted_error(side))
            first = "child" if site.name == "sweep" and len(sides) == 2 else "parent"
            (serial, forked), forks = serial_and_forked(monkeypatch, capsys, site.argv)
            assert forks == 1 and forked == serial == (1, "", f"error: planted on the {first}'s side\n")


def test_a_parent_half_that_fails_once_reruns_from_the_same_draws(monkeypatch):
    # The seeded suites have drawn from the rng when they raise, so the serial
    # rerun starts from the state the split started from.
    site = Site("suites", monkeypatch)
    set_cpus(monkeypatch, 1)
    rng = random.Random(42)
    serial = verify.run_suites(list(verify.SUITES), rng, 30), rng.getstate()
    raised = []

    def once():
        if not raised:
            raised.append(None)
            raise ArithmeticError("transient")

    site.plant("parent", once)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    rng = random.Random(42)
    assert (verify.run_suites(list(verify.SUITES), rng, 30), rng.getstate()) == serial
    assert raised and len(forks) == 1
    assert_no_child_left()


def test_an_interrupted_parent_kills_and_reaps_the_child(monkeypatch):
    parent = os.getpid()

    def interrupted():
        raise KeyboardInterrupt

    for site in sites(monkeypatch):
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

    for site in sites(monkeypatch):
        (serial, _), _ = serial_and_forked(monkeypatch, capsys, site.argv)
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert (main(site.argv), *capsys.readouterr()) == serial
        assert_no_child_left()


def test_a_single_suite_runs_in_this_process(monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert main(["verify", "--suite", "gf"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS (2/2 checks)\n")


def test_a_process_with_a_second_thread_runs_serially(monkeypatch, capsys):
    for site in sites(monkeypatch):
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
        "exhaustive_roots = verify._exhaustive_roots\n"
        "verify._exhaustive_roots = lambda n_max, m_max: exhaustive_roots(3, 2)\n"
        "atexit.register(print, 'exit handler')\n"
        "sys.stdout.write('buffered ')\n"
        "reports = verify.run_suites(['equivalence', 'vandermonde'], random.Random(42), 30)\n"
        "reports.append(verify.equivalence_exhaustive())\n"
        "print([report.ok for report in reports], len(forks))\n"
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path}
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "buffered [True, True, True] 2\nexit handler\n", "")
