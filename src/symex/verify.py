"""The identity sweeps that `symex verify` runs and the acceptance tests assert on.

Each sweep checks one identity over a fixed range and returns a `Report`
whose detail says what was swept.  Over instances it adds a check, labelled
by the instance, only for a failing one; over a fixed list it adds every
value.  Randomized sweeps draw from the `rng` they are given, so a caller
that shares one generator gets the same draws every run.

`run_suites` runs the suites of one `symex verify` call.  Only the suites
of `SEEDED_SUITES` draw from the rng.  When a call asks for suites on both
sides, and the process has at least two CPUs in its affinity mask and no
second thread, it forks once: the parent runs the seeded suites on the
shared rng while the child runs the others and pickles their reports back
through a pipe.  The reports are merged in `names` order, so they equal the
serial loop's.  A child that fails in any way exits non-zero having written
nothing; then, or if its payload does not load, the parent runs the
child's suites itself, so a failing suite raises or reports as it does in
the serial loop (which runs `SUITES` order, seeded suites first).  With one
CPU (e.g. under `taskset -c 0`), or one side empty, the serial loop runs.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable

# Routes are called through their home modules, so a patch or wrapper on
# `symex.esp.esp_extraction` and the like also sees the calls made here.
from . import bigcomb, coeffs, esp, polyexpand, series, subsets
from .report import Report
from .rootset import RootSet

__all__ = [
    "SUITES",
    "SEEDED_SUITES",
    "run_suites",
    "equivalence_exhaustive",
    "equivalence_random",
    "loworder_forms",
    "convolution_checks",
    "vandermonde_check",
    "gf_checks",
    "layer_checks",
    "multiplicity_check",
]

# Largest n and sieve index h of the coefficient grids.
COEFF_N_MAX = 20
COEFF_H = 12

# Fixed root sets wide enough that the support-layer rows reach the slots where
# the Newton-Girard route may run.  The first and third take it at some orders;
# the second, whose roots 1 and 2 keep it off Newton, takes the packed DP there.
# Every other swept set takes the packed DP in narrow slots.
WIDE_SETS = (
    RootSet(((1 << 256) - 1,) * 5),
    RootSet((3**160, 1, 5**110 + 2, 2, 3**160, 7**90)),
    RootSet((2**250 + 1, 3**150, 5**100 + 3, 7**85, 11**70)),
)


def _random_roots(rng: random.Random, n_low: int, n_high: int, m_max: int) -> RootSet:
    n = rng.randint(n_low, n_high)
    return RootSet(tuple(rng.randint(1, m_max) for _ in range(n)))


def _exhaustive_roots(n_max: int, m_max: int):
    for n in range(1, n_max + 1):
        for tup in product(range(1, m_max + 1), repeat=n):
            yield RootSet(tup)


def _pairs(n_max: int) -> list[tuple[int, int]]:
    return [(n, i) for n in range(1, n_max + 1) for i in range(1, n + 1)]


def _sweep(report: Report, cases: Iterable[tuple], verifier: Callable[..., Report], tagged: bool = False) -> None:
    """Add each case's first failing check of verifier(*case), labelled by the case (plus its label if `tagged`)."""
    for case in cases:
        failures = verifier(*case).failures()
        if failures:
            first = failures[0]
            report.add((*case, first.label) if tagged else case, first.expected, first.observed)


def _routes_agree(name: str, root_sets, sieve: Callable[[RootSet], list[int]]) -> Report:
    """Definition, recurrence and sieve(roots), the sieve's e_0..e_n, at orders 1..n of
    each set; a failing (roots, i) expects (e_i, e_i) and observes (sieve, recurrence).
    The exhaustive sweep checks the all-orders sieve, the random sweep the per-order one."""
    report = Report(name)
    instances = 0
    for roots in root_sets:
        per_order = esp.esp_all(roots)
        by_sieve = sieve(roots)
        for i in range(1, roots.n + 1):
            instances += 1
            by_definition = esp.esp_direct(roots, i)
            if not by_definition == by_sieve[i] == per_order[i]:
                report.add((roots.elements, i), (by_definition, by_definition), (by_sieve[i], per_order[i]))
    report.detail = f"{instances} instances"
    return report


def equivalence_exhaustive() -> Report:
    root_sets = chain(_exhaustive_roots(6, 4), WIDE_SETS)
    return _routes_agree(f"equivalence exhaustive n<=6 m<=4, {len(WIDE_SETS)} wide sets", root_sets, esp.esp_extraction_all)


def equivalence_random(rng: random.Random) -> Report:
    def per_order(roots):
        return [1] + [esp.esp_extraction(roots, i, explain_limit=0)[0] for i in range(1, roots.n + 1)]

    root_sets = chain((_random_roots(rng, 1, 10, 9) for _ in range(300)), WIDE_SETS)
    return _routes_agree(f"equivalence 300 random sets n<=10 m<=9, {len(WIDE_SETS)} wide sets", root_sets, per_order)


def loworder_forms(rng: random.Random) -> Report:
    """The spelled-out e2..e5 expressions against the definition."""
    report = Report("spelled-out e2..e5 forms, 20 random sets n in 4..8", "80 instances")
    for _ in range(20):
        roots = _random_roots(rng, 4, 8, 9)
        for i in range(2, 6):
            spelled_out = esp.esp_loworder(roots, i)
            by_definition = esp.esp_direct(roots, i)
            if spelled_out != by_definition:
                report.add((roots.elements, i), by_definition, spelled_out)
    return report


def convolution_checks() -> list[Report]:
    """Both coefficient routes agree, and each satisfies the complete convolution."""
    pairs = _pairs(COEFF_N_MAX)
    detail = f"{len(pairs)} (n,i) pairs, h<={COEFF_H}"
    routes = Report("recurrence equals closed form", detail)
    recurrence, closed = {}, {}
    for n, i in pairs:
        recurrence[n, i] = coeffs.coeff_recurrence(n, i, COEFF_H)
        closed[n, i] = coeffs.coeff_closed_sequence(n, i, COEFF_H)
        if recurrence[n, i] != closed[n, i]:
            routes.add((n, i), closed[n, i], recurrence[n, i])
    recurrence_sums = Report("convolution sums = 1 (recurrence route)", detail)
    _sweep(recurrence_sums, pairs, lambda n, i: coeffs.verify_convolution(n, i, recurrence[n, i]), tagged=True)
    closed_sums = Report("convolution sums = 1 (closed route)", detail)
    _sweep(closed_sums, pairs, lambda n, i: coeffs.verify_convolution(n, i, closed[n, i]), tagged=True)
    return [routes, recurrence_sums, closed_sums]


def vandermonde_check() -> Report:
    pairs = _pairs(COEFF_N_MAX)
    report = Report("vandermonde degeneration sum and term identification", f"{len(pairs)} (n,i) pairs, h={COEFF_H}")
    _sweep(report, pairs, lambda n, i: coeffs.vandermonde_degeneration_check(n, i, COEFF_H), tagged=True)
    return report


def gf_checks(truncation: int) -> list[Report]:
    pairs = _pairs(12)
    detail = f"{len(pairs)} (n,i) pairs, T={truncation}"
    untransformed = Report("series identity in powers of x/(1-x)", detail)
    _sweep(untransformed, pairs, lambda n, i: series.verify_gf_untransformed(n, i, truncation))
    transformed = Report("substituted series matches closed coefficients", detail)
    _sweep(transformed, pairs, lambda n, i: series.verify_gf_transformed(n, i, truncation))
    return [untransformed, transformed]


def layer_checks() -> list[Report]:
    """Expansion coefficients of the binomial product, and the layer
    decomposition whose top layer is e_i.  The order-4 and all-ones values
    pin the sign convention that `symex.polyexpand` describes."""
    quartet = {
        (1, 1): Fraction(22, 24),
        (2, 1): Fraction(-18, 24),
        (3, 1): Fraction(4, 24),
        (2, 2): Fraction(6, 24),
    }
    coefficients = Report("order-4 two-element coefficients 22,18,4,6 over 4!", f"{len(quartet)} values")
    for lam, want in quartet.items():
        coefficients.add(lam, want, polyexpand.monomial_coefficient(4, lam))
    ones = Report("all-ones exponent coefficient = 1 for i<=8", "8 values")
    for i in range(1, 9):
        ones.add(i, 1, polyexpand.monomial_coefficient(i, (1,) * i))
    cases = [(roots.elements, i) for roots in _exhaustive_roots(5, 4) for i in range(1, roots.n + 1)]
    layers = Report("layer decomposition rebuilds the binomial, n<=5 m<=4", f"{len(cases)} instances")
    _sweep(layers, cases, lambda elements, i: polyexpand.verify_layer_decomposition(RootSet(elements), i))
    return [coefficients, ones, layers]


def multiplicity_check() -> Report:
    report = Report("superset counts match C(n-t, s-t), n<=8 exhaustive")
    instances = 0
    for n in range(1, 9):
        for s in range(n + 1):
            for t in range(s + 1):
                for fixed in subsets.k_subsets(n, t):
                    instances += 1
                    counted = subsets.count_containing_supersets(n, fixed, s)
                    expected = bigcomb.binomial_first(n - t, s - t)
                    if counted != expected:
                        report.add((n, fixed, s), expected, counted)
    report.detail = f"{instances} instances"
    return report


# Suite name -> checks, called as suite(rng, truncation).
SUITES: dict[str, Callable[[random.Random, int], list[Report]]] = {
    "equivalence": lambda rng, truncation: [equivalence_exhaustive(), equivalence_random(rng), loworder_forms(rng)],
    "convolution": lambda rng, truncation: convolution_checks(),
    "vandermonde": lambda rng, truncation: [vandermonde_check()],
    "gf": lambda rng, truncation: gf_checks(truncation),
    "layers": lambda rng, truncation: layer_checks(),
    "multiplicity": lambda rng, truncation: [multiplicity_check()],
}

# The suites that draw from the rng; every other suite runs the same on any rng.
SEEDED_SUITES = ("equivalence",)


def run_suites(names: list[str], rng: random.Random, truncation: int) -> list[Report]:
    """The reports of SUITES[name](rng, truncation) for each name in turn.  With
    suites on both sides of SEEDED_SUITES, the unseeded ones run in a forked child."""
    unseeded = [name for name in names if name not in SEEDED_SUITES]
    if not 0 < len(unseeded) < len(names) or not _may_fork():
        return _serial(names, rng, truncation)
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _serial(names, rng, truncation)
    if pid == 0:
        # The child never returns into the caller: it runs no atexit handler,
        # flushes no inherited stdio buffer, and on failure writes nothing.
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps([SUITES[name](rng, truncation) for name in unseeded], pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            seeded = [SUITES[name](rng, truncation) for name in names if name in SEEDED_SUITES]
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    try:
        forked = pickle.loads(payload) if status == 0 else None
    except Exception:
        forked = None
    if forked is None:
        # Run the failed child's suites here, to report or raise as the serial loop does.
        forked = [SUITES[name](rng, truncation) for name in unseeded]
    seeded_reports, forked_reports = iter(seeded), iter(forked)
    return [report for name in names for report in next(seeded_reports if name in SEEDED_SUITES else forked_reports)]


def _serial(names: list[str], rng: random.Random, truncation: int) -> list[Report]:
    return [report for name in names for report in SUITES[name](rng, truncation)]


def _may_fork() -> bool:
    """Whether a child can run beside this process: two CPUs in its affinity
    mask (no such call on macOS or Windows) and no second thread to lose in the child."""
    import threading

    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2 and threading.active_count() == 1
