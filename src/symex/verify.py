"""The identity sweeps that `symex verify` runs and the acceptance tests assert on.

Each sweep checks one identity the sieve rests on over a fixed range and
returns a SuiteCheck naming the range and listing every failing instance.
Randomized sweeps draw from the `rng` they are given, so a caller that
shares one generator across sweeps gets the same draws every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

# Routes are called through their home modules, so a patch or wrapper on
# `symex.esp.esp_extraction` and the like also sees the calls made here.
from . import bigcomb, coeffs, esp, polyexpand, series, subsets
from .rootset import RootSet

__all__ = [
    "SuiteCheck",
    "SUITES",
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


@dataclass(frozen=True)
class SuiteCheck:
    """One swept identity: its name, what was swept, and the failing instances."""

    name: str
    detail: str
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_roots(rng: random.Random, n_low: int, n_high: int, m_max: int) -> RootSet:
    n = rng.randint(n_low, n_high)
    return RootSet(tuple(rng.randint(1, m_max) for _ in range(n)))


def _exhaustive_roots(n_max: int, m_max: int):
    for n in range(1, n_max + 1):
        for tup in product(range(1, m_max + 1), repeat=n):
            yield RootSet(tup)


def _pairs(n_max: int) -> list[tuple[int, int]]:
    return [(n, i) for n in range(1, n_max + 1) for i in range(1, n + 1)]


def _routes_agree(root_sets, sieve: Callable[[RootSet], list[int]]) -> tuple[int, tuple]:
    """Definition, recurrence and sieve(roots), the sieve's e_0..e_n, at orders 1..n
    of each set; returns the instance count and the failing (roots, i).  The exhaustive
    sweep checks the all-orders sieve, the random sweep the per-order one."""
    instances = 0
    failures = []
    for roots in root_sets:
        per_order = esp.esp_all(roots)
        by_sieve = sieve(roots)
        for i in range(1, roots.n + 1):
            instances += 1
            if not esp.esp_direct(roots, i) == by_sieve[i] == per_order[i]:
                failures.append((roots.elements, i))
    return instances, tuple(failures)


def equivalence_exhaustive() -> SuiteCheck:
    instances, failures = _routes_agree(_exhaustive_roots(6, 4), lambda roots: esp.esp_extraction_all(roots))
    return SuiteCheck("equivalence exhaustive n<=6 m<=4", f"{instances} instances", failures)


def equivalence_random(rng: random.Random) -> SuiteCheck:
    def per_order(roots):
        return [1] + [esp.esp_extraction(roots, i, explain_limit=0)[0] for i in range(1, roots.n + 1)]

    instances, failures = _routes_agree((_random_roots(rng, 1, 10, 9) for _ in range(300)), per_order)
    return SuiteCheck("equivalence 300 random sets n<=10 m<=9", f"{instances} instances", failures)


def loworder_forms(rng: random.Random) -> SuiteCheck:
    """The spelled-out e2..e5 expressions against the definition."""
    instances = 0
    failures = []
    for _ in range(20):
        roots = _random_roots(rng, 4, 8, 9)
        for i in range(2, 6):
            instances += 1
            if esp.esp_loworder(roots, i) != esp.esp_direct(roots, i):
                failures.append((roots.elements, i))
    return SuiteCheck("spelled-out e2..e5 forms, 20 random sets n in 4..8", f"{instances} instances", tuple(failures))


def convolution_checks() -> list[SuiteCheck]:
    """Both coefficient routes agree, and each satisfies the complete convolution."""
    pairs = _pairs(COEFF_N_MAX)
    mismatched = []
    bad = {"recurrence": [], "closed_form": []}
    for n, i in pairs:
        by_recurrence = coeffs.coeff_recurrence(n, i, COEFF_H)
        by_closed = coeffs.coeff_closed_sequence(n, i, COEFF_H)
        if by_recurrence != by_closed:
            mismatched.append((n, i))
        for route, values in (("recurrence", by_recurrence), ("closed_form", by_closed)):
            wrong = coeffs.verify_convolution(n, i, values).failures()
            if wrong:
                bad[route].append((n, i, wrong[0].label))
    detail = f"{len(pairs)} (n,i) pairs, h<={COEFF_H}"
    return [
        SuiteCheck("recurrence equals closed form", detail, tuple(mismatched)),
        SuiteCheck("convolution sums = 1 (recurrence route)", detail, tuple(bad["recurrence"])),
        SuiteCheck("convolution sums = 1 (closed route)", detail, tuple(bad["closed_form"])),
    ]


def vandermonde_check() -> SuiteCheck:
    pairs = _pairs(COEFF_N_MAX)
    failures = []
    for n, i in pairs:
        wrong = coeffs.vandermonde_degeneration_check(n, i, COEFF_H).failures()
        if wrong:
            failures.append((n, i, wrong[0].label))
    return SuiteCheck(
        "vandermonde degeneration sum and term identification",
        f"{len(pairs)} (n,i) pairs, h={COEFF_H}",
        tuple(failures),
    )


def gf_checks(truncation: int) -> list[SuiteCheck]:
    pairs = _pairs(12)
    untransformed = tuple(pair for pair in pairs if not series.verify_gf_untransformed(*pair, truncation).ok)
    transformed = tuple(pair for pair in pairs if not series.verify_gf_transformed(*pair, truncation).ok)
    detail = f"{len(pairs)} (n,i) pairs, T={truncation}"
    return [
        SuiteCheck("series identity in powers of x/(1-x)", detail, untransformed),
        SuiteCheck("substituted series matches closed coefficients", detail, transformed),
    ]


def layer_checks() -> list[SuiteCheck]:
    """Expansion coefficients of the binomial product, and the layer
    decomposition whose top layer is e_i (with its sign-convention note)."""
    quartet = {
        (1, 1): Fraction(22, 24),
        (2, 1): Fraction(-18, 24),
        (3, 1): Fraction(4, 24),
        (2, 2): Fraction(6, 24),
    }
    bad_quartet = tuple(lam for lam, want in quartet.items() if polyexpand.monomial_coefficient(4, lam) != want)
    bad_ones = tuple(i for i in range(1, 9) if polyexpand.monomial_coefficient(i, (1,) * i) != 1)

    instances = 0
    failures = []
    for roots in _exhaustive_roots(5, 4):
        for i in range(1, roots.n + 1):
            instances += 1
            decomposition = polyexpand.verify_layer_decomposition(roots, i)
            if not decomposition.ok:
                failures.append((roots.elements, i))
            if not any("sign" in note for note in decomposition.notes):
                failures.append(("missing sign-convention note", roots.elements, i))
    return [
        SuiteCheck("order-4 two-element coefficients 22,18,4,6 over 4!", f"{len(quartet)} values", bad_quartet),
        SuiteCheck("all-ones exponent coefficient = 1 for i<=8", "8 values", bad_ones),
        SuiteCheck("layer decomposition rebuilds the binomial, n<=5 m<=4", f"{instances} instances", tuple(failures)),
    ]


def multiplicity_check() -> SuiteCheck:
    instances = 0
    failures = []
    for n in range(1, 9):
        for s in range(n + 1):
            for t in range(s + 1):
                for fixed in subsets.k_subsets(n, t):
                    instances += 1
                    if subsets.count_containing_supersets(n, fixed, s) != bigcomb.binomial_first(n - t, s - t):
                        failures.append((n, fixed, s))
    return SuiteCheck(
        "superset counts match C(n-t, s-t), n<=8 exhaustive", f"{instances} instances", tuple(failures)
    )


# Suite name -> checks, called as suite(rng, truncation).
SUITES: dict[str, Callable[[random.Random, int], list[SuiteCheck]]] = {
    "equivalence": lambda rng, truncation: [equivalence_exhaustive(), equivalence_random(rng), loworder_forms(rng)],
    "convolution": lambda rng, truncation: convolution_checks(),
    "vandermonde": lambda rng, truncation: [vandermonde_check()],
    "gf": lambda rng, truncation: gf_checks(truncation),
    "layers": lambda rng, truncation: layer_checks(),
    "multiplicity": lambda rng, truncation: [multiplicity_check()],
}
