"""The identity sweeps that `symex verify` runs and the acceptance tests assert on.

Each sweep checks one identity over a fixed range and returns a `Report`
whose detail says what was swept.  Over instances it adds a check, labelled
by the instance, only for a failing one; over a fixed list it adds every
value.  Randomized sweeps draw from the `rng` they are given, so a caller
that shares one generator gets the same draws every run.

`run_suites` is the one place that forks, through `_forked`: the suites
outside `SEEDED_SUITES` run in one child while this process runs the
seeded ones on the shared rng.  So two processes share two CPUs during
`verify --suite all`, and the reports are merged in suite order, each equal
to the serial one.  It forks only with at least two CPUs in the affinity
mask and no second thread.  The child always ends in `os._exit`; one that
fails in any way exits non-zero having written nothing, and then, or if its
payload does not load, this process runs the child's suites itself.  If
this process's own suites raise an `Exception`, the child is killed and the
whole split reruns serially (`run_suites` first puts the rng back as it
was), so what raises is what the serial run raises; an interrupt kills and
reaps the child and propagates.  With one CPU (e.g. under `taskset -c 0`)
everything runs serially in one process.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
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
# All three tables lie above esp._DIRECT_BELOW, so both sweeps also check the
# support rows and their conversion.  Every multiset's table is filled
# directly, and so is a random set's unless n = 10 and C(N, 10) >= 2^40; its
# per-order brackets come from the packed DP in narrow slots.
WIDE_SETS = (
    RootSet(((1 << 256) - 1,) * 5),
    RootSet((3**160, 1, 5**110 + 2, 2, 3**160, 7**90)),
    RootSet((2**250 + 1, 3**150, 5**100 + 3, 7**85, 11**70)),
)


def _random_roots(rng: random.Random, n_low: int, n_high: int, m_max: int) -> tuple[int, ...]:
    n = rng.randint(n_low, n_high)
    return tuple(rng.randint(1, m_max) for _ in range(n))


def _exhaustive_roots(n_max: int, m_max: int) -> Iterable[tuple[int, ...]]:
    return chain.from_iterable(product(range(1, m_max + 1), repeat=n) for n in range(1, n_max + 1))


def _multisets(n_max: int, m_max: int) -> Iterable[tuple[int, ...]]:
    return chain.from_iterable(combinations_with_replacement(range(1, m_max + 1), n) for n in range(1, n_max + 1))


def _pairs(n_max: int) -> list[tuple[int, int]]:
    return [(n, i) for n in range(1, n_max + 1) for i in range(1, n + 1)]


def _sweep(report: Report, cases: Iterable[tuple], verifier: Callable[..., Report], tagged: bool = False) -> None:
    """Add each case's first failing check of verifier(*case), labelled by the case (plus its label if `tagged`)."""
    for case in cases:
        failures = verifier(*case).failures()
        if failures:
            first = failures[0]
            report.add((*case, first.label) if tagged else case, first.expected, first.observed)


def _routes_agree(name: str, root_sets: Iterable[tuple[int, ...]], *sieves: Callable[[RootSet], list[int]]) -> Report:
    """Definition, recurrence and each sieve(roots), that sieve's e_0..e_n, at
    orders 1..n of each root tuple's set and then of each WIDE_SETS set; a
    failing (elements, i) expects e_i from each sieve and the recurrence and
    observes their values, in that order."""
    report, instances = Report(f"{name}, {len(WIDE_SETS)} wide sets"), 0
    for roots in chain(map(RootSet, root_sets), WIDE_SETS):
        per_order = esp.esp_all(roots)
        rows = [*(sieve(roots) for sieve in sieves), per_order]
        for i in range(1, roots.n + 1):
            instances += 1
            by_definition = esp.esp_direct(roots, i)
            observed = tuple(row[i] for row in rows)
            if observed != (by_definition,) * len(rows):
                report.add((roots.elements, i), (by_definition,) * len(rows), observed)
    report.detail = f"{instances} instances"
    return report


def equivalence_exhaustive() -> Report:
    """The all-orders sieve on every multiset of 1..6 roots from 1..7.  e_i
    minus the sieve's value is symmetric and of degree at most i <= 6 in each
    root, so a pass (zero on every multiset, so on {1..7}^n) proves the identity
    for every root set of n <= 6 (N. Alon, Combinatorial Nullstellensatz, CPC
    8, 1999, Lemma 2.1).  The route code itself is checked only at the sets swept."""
    return _routes_agree("equivalence multisets n<=6 m<=7, proves n<=6", _multisets(6, 7), esp.esp_extraction_all)


def equivalence_random(rng: random.Random) -> Report:
    """Both sieves, per order and all orders, on 300 random sets in the order drawn."""

    def per_order(roots):
        return [1] + [esp.esp_extraction(roots, i, explain_limit=0)[0] for i in range(1, roots.n + 1)]

    drawn = (_random_roots(rng, 1, 10, 9) for _ in range(300))
    return _routes_agree("equivalence 300 random sets n<=10 m<=9", drawn, per_order, esp.esp_extraction_all)


def loworder_forms(rng: random.Random) -> Report:
    """The spelled-out e2..e5 expressions against the definition."""
    report = Report("spelled-out e2..e5 forms, 20 random sets n in 4..8", "80 instances")
    for _ in range(20):
        roots = RootSet(_random_roots(rng, 4, 8, 9))
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
    built = {elements: RootSet(elements) for elements in _exhaustive_roots(5, 4)}
    cases = [(elements, i) for elements in built for i in range(1, len(elements) + 1)]
    layers = Report("layer decomposition rebuilds the binomial, n<=5 m<=4", f"{len(cases)} instances")
    _sweep(layers, cases, lambda elements, i: polyexpand.verify_layer_decomposition(built[elements], i))
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
    seeded = [name for name in names if name in SEEDED_SUITES]
    unseeded = [name for name in names if name not in SEEDED_SUITES]
    if seeded and unseeded:
        state = rng.getstate()
        halves = _forked(lambda: [SUITES[name](rng, truncation) for name in seeded],
                         lambda: [SUITES[name](rng, truncation) for name in unseeded])
        if halves is not None:
            seeded_reports, unseeded_reports = map(iter, halves)
            return [report for name in names for report in next(seeded_reports if name in SEEDED_SUITES else unseeded_reports)]
        rng.setstate(state)
    return [report for name in names for report in SUITES[name](rng, truncation)]


def _forked(here: Callable[[], object], there: Callable[[], object]) -> tuple | None:
    """(here(), there()), with there() run in a forked child while this process
    runs here(), or None when the caller must run both serially instead: no
    fork was allowed or made, or here() raised an Exception.  A child that
    fails has its half run here, so that it reports or raises as serially."""
    if not _may_fork():
        return None
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The child never returns into the caller: it runs no atexit handler,
        # flushes no inherited stdio buffer, and on failure writes nothing.
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(there(), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    payload = None
    try:
        with open(read_fd, "rb") as pipe:
            mine = here()
            payload = pipe.read()
    except Exception:
        return None
    finally:
        if payload is None:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if status == 0:
        try:
            return mine, pickle.loads(payload)
        except Exception:
            pass
    return mine, there()


def _may_fork() -> bool:
    """Whether a child can run beside this process: two CPUs in its affinity
    mask (no such call on macOS or Windows) and no second thread to lose in the child."""
    import threading

    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2 and threading.active_count() == 1
