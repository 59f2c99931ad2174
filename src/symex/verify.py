"""The identity sweeps that `symex verify` runs and the acceptance tests assert on.

Each sweep checks one identity over a fixed range and returns a `Report`
whose detail says what was swept.  Over instances it adds a check, labelled
by the instance, only for a failing one; over a fixed list it adds every
value.  Randomized sweeps draw from the `rng` they are given, so a caller
that shares one generator gets the same draws every run.  A sweep named
`..., proves n<=k` runs over the multisets of a grid with more values than
k, so by the grid lemma a pass proves its identity for every root set of
n <= k; the equivalence and layer sweeps do.  README's "What a pass proves"
says why, and what the coefficient and series grids prove.

`run_suites` is the one place that forks.  When the suites of
`SEEDED_SUITES` lead the names and others follow, as in `verify --suite
all`, the others run in one child while this process runs the seeded ones
on the shared rng, and the reports are merged in suite order, each equal
to the serial one.  It forks only with two CPUs in the affinity mask and no
second thread.  One failure rule keeps every exit code and error message
the serial run's, which runs the seeded half first: an exception in this
process's half kills and reaps the child and propagates; the child sends
back its reports or the exception its suites raised, which this process
raises after its own half; and the half of a child that delivers nothing
loadable (killed, a non-zero exit, an unpicklable result) is rerun here.
With one CPU (e.g. under `taskset -c 0`) everything runs serially.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import chain, combinations_with_replacement
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

# (largest n, largest root) of each proving multiset sweep.  Its error has
# degree at most n in each root, so a pass proves the identity for every root
# set of that n only while the grid's m values outnumber n.
EQUIVALENCE_GRID = (6, 7)
LAYER_GRID = (5, 6)

# Fixed root sets wide enough that all three tables, and their per-order
# brackets, lie above esp._DIRECT_BELOW, so both sweeps also check the
# support columns and their conversion.  The second set's roots 1 and 2 lie
# below every order from 3 on, so it checks columns whose factors g_m are
# shorter than the columns.  Every multiset's table is filled directly.  So are
# a random set's table and its per-order brackets at every order, unless
# n = 10 and b = f + 10 reaches 50 bits: from N = 73 (C(N, 10) >= 2^39)
# order 10 and the table convert support columns, and from N = 88
# (C(N, 9) >= 2^39) order 9 does too.  The wide sets are where the sweeps
# check those columns at every order.
WIDE_SETS = (
    RootSet(((1 << 256) - 1,) * 5),
    RootSet((3**160, 1, 5**110 + 2, 2, 3**160, 7**90)),
    RootSet((2**250 + 1, 3**150, 5**100 + 3, 7**85, 11**70)),
)


def _random_roots(rng: random.Random, n_low: int, n_high: int, m_max: int) -> tuple[int, ...]:
    n = rng.randint(n_low, n_high)
    return tuple(rng.randint(1, m_max) for _ in range(n))


def _multisets(n_max: int, m_max: int) -> Iterable[tuple[int, ...]]:
    return chain.from_iterable(combinations_with_replacement(range(1, m_max + 1), n) for n in range(1, n_max + 1))


def _proving(identity: str, grid: tuple[int, int]) -> str:
    """The name of the sweep of `identity` over _multisets(*grid), saying what a pass proves."""
    n_max, m_max = grid
    return f"{identity} multisets n<={n_max} m<={m_max}, proves n<={n_max}"


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
    observes their values, in that order.  Each set's rows are compared whole
    with [1, e_1..e_n] by the definition; only a set whose rows differ is
    checked order by order."""
    report, instances = Report(f"{name}, {len(WIDE_SETS)} wide sets"), 0
    for roots in chain(map(RootSet, root_sets), WIDE_SETS):
        per_order = esp.esp_all(roots)
        rows = [*(sieve(roots) for sieve in sieves), per_order]
        by_definition = [1] + [esp.esp_direct(roots, i) for i in range(1, roots.n + 1)]
        instances += roots.n
        if any(row != by_definition for row in rows):
            for i in range(1, roots.n + 1):
                observed = tuple(row[i] for row in rows)
                if observed != (by_definition[i],) * len(rows):
                    report.add((roots.elements, i), (by_definition[i],) * len(rows), observed)
    report.detail = f"{instances} instances"
    return report


def equivalence_exhaustive() -> Report:
    """The all-orders sieve on every multiset of EQUIVALENCE_GRID, 1..6 roots
    from 1..7.  e_i minus the sieve's value is symmetric and of degree at most
    i <= 6 in each root, so a pass (zero on every multiset, so on {1..7}^n)
    proves the identity for every root set of n <= 6 (N. Alon, Combinatorial
    Nullstellensatz, CPC 8, 1999, Lemma 2.1).  The route code itself is
    checked only at the sets swept."""
    return _routes_agree(_proving("equivalence", EQUIVALENCE_GRID), _multisets(*EQUIVALENCE_GRID), esp.esp_extraction_all)


def equivalence_random(rng: random.Random) -> Report:
    """Both sieves, per order and all orders, on 300 random sets in the order drawn."""

    def per_order(roots):
        return [1] + [esp.esp_extraction(roots, i)[0] for i in range(1, roots.n + 1)]

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
    decomposition whose top layer is e_i on every multiset of LAYER_GRID,
    1..5 roots from 1..6.  Both sides of each of its two checks are
    symmetric polynomials of degree at most i <= 5 in each root, so a pass
    proves the decomposition for every root set of n <= 5, as for
    `equivalence_exhaustive`.  The order-4 and all-ones values pin the sign
    convention that `symex.polyexpand` describes."""
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
    built = {elements: RootSet(elements) for elements in _multisets(*LAYER_GRID)}
    cases = [(elements, i) for elements in built for i in range(1, len(elements) + 1)]
    layers = Report(_proving("layer decomposition", LAYER_GRID), f"{len(cases)} instances")
    _sweep(layers, cases, lambda elements, i: polyexpand.verify_layer_decomposition(built[elements], i))
    return [coefficients, ones, layers]


def multiplicity_check() -> Report:
    """Each t-subset of {1..n} lies in C(n-t, s-t) of the s-subsets, for every
    t <= s <= n <= 8: the counted side of each (n, s) is one superset_counts
    pass, an enumeration independent of the formula."""
    report = Report("superset counts match C(n-t, s-t), n<=8 exhaustive")
    instances = 0
    for n in range(1, 9):
        for s in range(n + 1):
            counts = subsets.superset_counts(n, s)
            for t in range(s + 1):
                for fixed in subsets.k_subsets(n, t):
                    instances += 1
                    counted = counts[fixed]
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
    """The reports of SUITES[name](rng, truncation) for each name in turn.  When
    SEEDED_SUITES lead `names` and others follow, the others run in a forked
    child if _may_fork(), under the failure rule of the module docstring."""

    def run(suites: list[str]) -> list[Report]:
        return [report for name in suites for report in SUITES[name](rng, truncation)]

    seeded = [name for name in names if name in SEEDED_SUITES]
    rest = names[len(seeded):]
    if not (seeded and rest and names[: len(seeded)] == seeded and _may_fork()):
        return run(names)
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return run(names)
    if pid == 0:
        # The child never returns into the caller: it runs no atexit handler,
        # flushes no inherited stdio buffer, and on failure writes nothing.
        status = 1
        try:
            os.close(read_fd)
            try:
                result = run(rest)
            except Exception as error:
                result = error
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    payload = None
    try:
        with open(read_fd, "rb") as pipe:
            mine = run(seeded)
            payload = pipe.read()
    finally:
        if payload is None:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    try:
        theirs = pickle.loads(payload) if status == 0 else None
    except Exception:
        theirs = None
    if isinstance(theirs, Exception):
        raise theirs
    return mine + (run(rest) if theirs is None else theirs)


def _may_fork() -> bool:
    """Whether a child can run beside this process: two CPUs in its affinity
    mask (no such call on macOS or Windows) and no second thread to lose in the child."""
    import threading

    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2 and threading.active_count() == 1
