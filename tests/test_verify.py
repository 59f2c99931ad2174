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
    exhaustive = verify.equivalence_exhaustive()
    assert exhaustive.detail == "30964 instances"
    swept = itertools.chain(verify._exhaustive_roots(6, 4), verify.WIDE_SETS)
    assert labels(exhaustive) == [(roots.elements, 2) for roots in swept if roots.n >= 3]
    random_sweep = verify.equivalence_random(random.Random(42))
    assert random_sweep.ok and random_sweep.detail == "1725 instances"


def _wide(label):
    return label[0] in {roots.elements for roots in verify.WIDE_SETS}


def test_equivalence_sweeps_run_both_support_kernels(monkeypatch):
    runs = {"packed": [], "listed": []}
    for name, key in (("_packed_rows", "packed"), ("_listed_rows", "listed")):
        kernel = getattr(esp, name)

        def counted(elements, top, b, kernel=kernel, key=key):
            runs[key].append(tuple(elements))
            return kernel(elements, top, b)

        monkeypatch.setattr(esp, name, counted)
    wide = {roots.elements for roots in verify.WIDE_SETS}
    for sweep in (verify.equivalence_exhaustive, lambda: verify.equivalence_random(random.Random(42))):
        assert sweep().ok
        # the list kernel runs on the wide sets, at least once, and on nothing else
        assert runs["listed"] and set(runs["listed"]) <= wide
        assert runs["packed"]
        runs["listed"].clear()
        runs["packed"].clear()


def plant_list_kernel_slot_defect(monkeypatch):
    listed = esp._listed_rows

    def shifted(elements, top, b):
        # the factor C(m, 0..min(m, top)-1), one slot below C(m, 1..min(m, top))
        with monkeypatch.context() as patch:
            patch.setattr(esp, "binomial_first", lambda m, k: bigcomb.binomial_first(m, k - 1))
            return listed(elements, top, b)

    monkeypatch.setattr(esp, "_listed_rows", shifted)


def test_verify_fails_when_the_list_kernel_factor_is_off_by_one_slot(monkeypatch, capsys):
    plant_list_kernel_slot_defect(monkeypatch)
    assert main(["verify", "--suite", "equivalence"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines[1:]] == ["FAIL", "FAIL", "PASS", "result:"]
    for report in (verify.equivalence_exhaustive(), verify.equivalence_random(random.Random(42))):
        assert report.failures() and all(map(_wide, labels(report)))


# ---------------------------------------------------------------------------
# run_suites: the unseeded suites in one forked child, merged as the serial loop runs them


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_and_forked(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with one CPU and with two, and the forks made with two."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    runs = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        runs.append((main(argv), *capsys.readouterr()))
        assert_no_child_left()
    return runs, len(forks)


@pytest.mark.parametrize("seed", ["42", "7", "1"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_two_processes_print_the_serial_bytes(monkeypatch, capsys, seed, json_flag):
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all", "--seed", seed, *json_flag])
    assert forks == 1 and serial[0] == 0 and forked == serial


def test_two_processes_print_the_serial_bytes_when_child_suites_fail(monkeypatch, capsys, cold_sieve_weights):
    closed = coeffs.coeff_closed
    monkeypatch.setattr(coeffs, "coeff_closed", lambda n, i, h: closed(n, i, h) + 1)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    assert forks == 1 and forked == serial
    assert serial[0] == 1 and "FAIL recurrence equals closed form" in serial[1]


def test_two_processes_print_the_serial_bytes_when_equivalence_fails(monkeypatch, capsys):
    plant_list_kernel_slot_defect(monkeypatch)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all", "--json"])
    assert forks == 1 and forked == serial
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


@pytest.fixture
def quick_equivalence(monkeypatch):
    # A seeded stand-in that draws from the rng, so the fork's edge cases run in milliseconds.
    monkeypatch.setitem(verify.SUITES, "equivalence", lambda rng, truncation: [verify.loworder_forms(rng)])


def test_a_child_suite_that_raises_gives_the_serial_error(monkeypatch, capsys, quick_equivalence):
    def planted(rng, truncation):
        raise ArithmeticError("planted")

    monkeypatch.setitem(verify.SUITES, "gf", planted)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    assert forks == 1 and forked == serial == (1, "", "error: planted\n")


def test_a_child_that_exits_early_gives_the_full_serial_output(monkeypatch, capsys, quick_equivalence):
    parent, multiplicity = os.getpid(), verify.SUITES["multiplicity"]

    def dies_in_the_child(rng, truncation):
        if os.getpid() != parent:
            os._exit(7)
        return multiplicity(rng, truncation)

    monkeypatch.setitem(verify.SUITES, "multiplicity", dies_in_the_child)
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    assert forks == 1 and forked == serial and serial[0] == 0
    assert serial[1].endswith("result: PASS (11/11 checks)\n")


def test_a_child_that_exits_non_zero_after_writing_is_not_trusted(monkeypatch, capsys, quick_equivalence):
    parent, exit_now, multiplicity = os.getpid(), os._exit, verify.SUITES["multiplicity"]
    runs_here = []

    def counted(rng, truncation):
        if os.getpid() == parent:
            runs_here.append(truncation)
        return multiplicity(rng, truncation)

    monkeypatch.setitem(verify.SUITES, "multiplicity", counted)
    # Only the child calls os._exit; it now exits 3 after writing its reports.
    monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))
    (serial, forked), forks = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    assert forks == 1 and forked == serial and serial[0] == 0
    assert len(runs_here) == 2  # once serially, once in place of the child


def test_an_interrupted_parent_kills_and_reaps_the_child(monkeypatch, quick_equivalence):
    parent = os.getpid()

    def interrupted(rng, truncation):
        raise KeyboardInterrupt

    def stalls_in_the_child(rng, truncation):
        if os.getpid() != parent:
            time.sleep(60)
        return []

    monkeypatch.setitem(verify.SUITES, "equivalence", interrupted)
    monkeypatch.setitem(verify.SUITES, "convolution", stalls_in_the_child)
    set_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suites(list(verify.SUITES), random.Random(42), 30)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def refuse_to_fork():
    raise AssertionError("forked")


def test_a_failed_fork_runs_the_serial_loop(monkeypatch, capsys, quick_equivalence):
    def no_fork():
        raise BlockingIOError("no process slots")

    (serial, _), _ = serial_and_forked(monkeypatch, capsys, ["verify", "--suite", "all"])
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert (main(["verify", "--suite", "all"]), *capsys.readouterr()) == serial


def test_a_single_suite_runs_in_this_process(monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert main(["verify", "--suite", "gf"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS (2/2 checks)\n")


def test_a_process_with_a_second_thread_runs_serially(monkeypatch, capsys, quick_equivalence):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert main(["verify", "--suite", "all"]) == 0
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert capsys.readouterr().out.endswith("result: PASS (11/11 checks)\n")


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
