"""Four routes to the elementary symmetric polynomial e_i of a root set.

* esp_direct: the definition, summing products over i-element subsets.
* esp_all: the classical one-pass product recurrence, all orders at once.
* esp_extraction: the binomial-product sieve, which starts from
  C(m_1+...+m_n, i) and subtracts alternating multichoose-weighted sums of
  C(subset sum, i) over all (i-h)-subsets, h = 1..i-1.
* esp_extraction_all: the same sieve at every order 0..n at once, the
  sieve's counterpart of esp_all.

esp_extraction also returns a term-by-term breakdown so every bracket can
be inspected.  METHODS names the three per-order routes as e_i functions, and
esp_compare runs them on one input so their values can be checked against
each other.

A bracket total sum_{|J|=s} C(sigma_J, i) takes one of two routes.  With
per-subset detail (n <= explain limit) the C(n, s) subsets are enumerated.
Without it, the totals come from a support-layer DP over the roots.  By
Vandermonde, (1+z)^m = 1 + g_m(z) with g_m(z) = (1+z)^m - 1, so

    sum_s y^s sum_k B[s][k] z^k = prod_j (1 + y (1+z)^{m_j})
                                = sum_t F_t(z) y^t (1+y)^{n-t},

where B[s][k] = sum_{|J|=s} C(sigma_J, k) and F[t][k] = [y^t z^k]
prod_j (1 + y g_{m_j}(z)) groups the terms of B by their support T, |T| = t.
Hence B[s][k] = sum_{t<=s} C(n-t, s-t) F[t][k].  g_m has no constant term, so
F[t][k] = 0 for k < t: _support_rows keeps row t shifted down t slots, only
F[t][t..top], and each DP product is cut to those top-t+1 slots.  Each row is
returned packed into one integer of b-bit slots.  Two kernels build the same
rows.  _packed_rows keeps each row packed and multiplies whole rows: one
big-int product per root and row, which pads every slot to b bits and
computes the slots above top only to mask them away.  _listed_rows keeps each
row a list of slots and forms only the kept ones, each a dot product whose
terms are as wide as their operands, then packs once; it pays a Python step
per slot instead.  So packing wins on narrow slots and lists win once
operands are wide.  _kernel_costs predicts both costs from n, top, b and the
factor lengths, with constants fitted once, and the cheaper kernel runs.
All terms of F are nonnegative and
sum_t F[t][k] = C(N, k) where N = m_1+...+m_n, so F[t][k] <= C(N, k), and
B[s][k] <= C(n, s) * C(N, k).  Over k <= top, C(N, k) is largest at
k = min(top, floor(N/2)), and C(n, s) is largest at s = floor(n/2).  So
_bracket_totals, which packs F alone, takes
b = bitlen(C(N, min(top, floor(N/2)))), and _bracket_table, whose rows hold
B, takes b = bitlen(C(n, floor(n/2))) + that + 1 and runs the DP in those
wider slots, so the conversion needs no repacking.  Every slot is then
< 2^b, a carry never reaches a kept slot and the route costs O(n * top)
big-int products instead of sum_s C(n, s) binomials.
esp_extraction reads the top slot F[t][i] of each row of a DP with top = i
and converts those few integers; one table with top = n holds every order's
brackets, and esp_extraction_all reads each column i of it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from math import comb, prod
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import coeffs
from .bigcomb import binomial_first, binomial_second, stirling_first_signed
from .rootset import RootSet
from .subsets import IndexSubset, k_subsets

__all__ = [
    "DEFAULT_EXPLAIN_LIMIT",
    "METHODS",
    "ExtractionDomainError",
    "BreakdownTerm",
    "ExtractionBreakdown",
    "esp_direct",
    "esp_all",
    "esp_extraction",
    "esp_extraction_all",
    "esp_loworder",
    "esp_compare",
    "specialize",
]

# Above this root-set size, breakdowns keep bracket totals only: the number
# of per-subset lines is C(n, i-h) and blows up.
DEFAULT_EXPLAIN_LIMIT = 12


class ExtractionDomainError(ValueError):
    """The sieve was asked for an order outside its proven domain (i > n)."""


def esp_direct(roots: RootSet, i: int) -> int:
    """e_i by definition: the sum over all i-element index subsets of the
    product of the selected roots.  e_0 = 1 (empty product); i > n gives 0."""
    if i < 0:
        raise ValueError(f"order must be >= 0, got {i}")
    if i == 0:
        return 1
    if i > roots.n:
        return 0
    return sum(map(prod, combinations(roots.elements, i)))


def esp_all(roots: RootSet) -> list[int]:
    """All of e_0..e_n at once: coefficients of prod_j (1 + m_j x), built by
    the one-pass recurrence e_i += m_k * e_{i-1}."""
    values = [0] * (roots.n + 1)
    values[0] = 1
    for count, m in enumerate(roots.elements, start=1):
        for j in range(count, 0, -1):
            values[j] += m * values[j - 1]
    return values


class BreakdownTerm(NamedTuple):
    """One sieve bracket: the (i-h)-subset binomials and their signed weight.

    `coefficient` is the additive weight: total = head + sum of
    coefficient * bracket_total over all terms.  `bracket` holds the
    per-subset detail and is None when the root set exceeded the explain
    limit at construction time.
    """

    h: int
    coefficient: int
    bracket_total: int
    bracket: tuple[tuple[IndexSubset, int], ...] | None


class ExtractionBreakdown:
    """The sieve's value term by term: total = head + sum of each term's
    coefficient * bracket_total.  Immutable, compared and hashed by its fields."""

    __slots__ = ("i", "head", "terms", "total")
    i: int
    head: int
    terms: tuple[BreakdownTerm, ...]
    total: int

    def __init__(self, i: int, head: int, terms: tuple[BreakdownTerm, ...], total: int) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "total", total)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.i, self.head, self.terms, self.total

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return ExtractionBreakdown, self._key()

    def __repr__(self) -> str:
        return f"ExtractionBreakdown(i={self.i!r}, head={self.head!r}, terms={self.terms!r}, total={self.total!r})"


def esp_extraction(
    roots: RootSet,
    i: int,
    *,
    explain_limit: int = DEFAULT_EXPLAIN_LIMIT,
) -> tuple[int, ExtractionBreakdown]:
    """e_i via the binomial-product sieve, with its full term breakdown.

    head = C(m_1+...+m_n, i); for each h = 1..i-1 the bracket sums
    C(sum of m_j over J, i) over all (i-h)-subsets J, and is subtracted
    with weight C_h = (-1)^(h-1) * multichoose(n-i+1, h-1).

    Up to n = explain_limit every bracket enumerates its subsets and keeps
    the per-subset binomials, each math.comb of a nonnegative subset sum.
    Above it, the bracket totals come from the support-layer DP of the module
    docstring (_bracket_totals) in polynomial time, with no subset enumerated.

    Orders above n are refused rather than silently extrapolated.
    """
    n = roots.n
    if i < 0:
        raise ValueError(f"order must be >= 0, got {i}")
    if i == 0:
        return 1, ExtractionBreakdown(0, 1, (), 1)
    if i > n:
        raise ExtractionDomainError(f"order {i} exceeds root set size {n}; use the direct route")

    elements = roots.elements
    head = binomial_first(roots.total, i)
    brackets = {}
    if n <= explain_limit:
        totals = {}
        for s in range(1, i):
            entries = tuple(map(comb, map(sum, combinations(elements, s)), repeat(i)))
            brackets[s] = tuple(zip(k_subsets(n, s), entries))
            totals[s] = sum(entries)
    else:
        totals = _bracket_totals(elements, i) if i > 1 else []
    terms = tuple(BreakdownTerm(h, w, totals[i - h], brackets.get(i - h)) for h, w in enumerate(_weights(n, i), start=1))
    value = head + sum(term.coefficient * term.bracket_total for term in terms)
    return value, ExtractionBreakdown(i, head, terms, value)


def esp_extraction_all(roots: RootSet) -> list[int]:
    """All of e_0..e_n by the sieve, the counterpart of esp_all: one packed
    DP with top = n holds B[s][k] for every k <= n, so order i reads its
    bracket totals B[1..i-1][i] from column i of that one table instead of
    running a DP of its own.  No subset is enumerated."""
    n, total = roots.n, roots.total
    rows, b = _bracket_table(roots.elements, n)
    slot = (1 << b) - 1
    values = [1]
    for i in range(1, n + 1):
        terms = (weight * (rows[i - h] >> b * i & slot) for h, weight in enumerate(_weights(n, i), start=1))
        values.append(binomial_first(total, i) + sum(terms))
    return values


@lru_cache(maxsize=256)
def _weights(n: int, i: int) -> tuple[int, ...]:
    """The additive weight -C_h of each bracket h = 1..i-1, C_h being the
    closed-form coefficient that the coefficient verifiers check.  Depends on
    (n, i) only, so each row is built once and shared, immutable."""
    if i < 2:
        return ()
    return tuple(-c for c in coeffs.coeff_closed_sequence(n, i, i - 1))


@lru_cache(maxsize=256)
def _conversion(n: int, top: int) -> tuple[tuple[int, ...], ...]:
    """C(n-t, s-t) for t = 0..s, one row per s < top: B[s] = sum_t C(n-t, s-t) * F[t].
    Depends on (n, top) only, so each table is built once and shared, immutable."""
    return tuple(tuple(comb(n - t, s - t) for t in range(s + 1)) for s in range(top))


def _support_rows(elements: Sequence[int], top: int, b: int) -> list[int]:
    """The support-layer DP of the module docstring: rows[t] = F[t][t..top] in
    b-bit slots for t < top, row t shifted down t slots.  Adding a root m adds
    to row t the product of row t-1 and g_m(z)/z = C(m, 1..min(m, top)), cut
    to the top-t+1 slots row t keeps; the factor is built once per distinct
    root.  Exact when every F[t][k] < 2^b, which needs nonnegative elements.

    _packed_rows and _listed_rows build the same rows (module docstring);
    _kernel_costs prices both from sizes alone and the cheaper one runs.
    Below b * top = _PACKED_BELOW the packed kernel runs unpriced."""
    if b * top < _PACKED_BELOW:
        return _packed_rows(elements, top, b)
    packed, listed = _kernel_costs(len(elements), top, b, [min(m, top) for m in set(elements)])
    return (_listed_rows if listed < packed else _packed_rows)(elements, top, b)


def _packed_rows(elements: Sequence[int], top: int, b: int) -> list[int]:
    """_support_rows with each row one integer of b-bit slots: the factor is
    packed too, and factor and product are masked to the slots row t keeps."""
    keep = [(1 << (b * (top - t + 1))) - 1 for t in range(top)]
    factors = {}
    for m in elements:
        if m not in factors:
            factor = 0
            for k in range(min(m, top), 0, -1):
                factor = factor << b | binomial_first(m, k)
            factors[m] = factor
    rows = [1] + [0] * (top - 1)
    for count, m in enumerate(elements, start=1):
        factor = factors[m]
        for t in range(min(count, top - 1), 0, -1):
            mask = keep[t]
            rows[t] += (rows[t - 1] * (factor & mask)) & mask
    return rows


def _listed_rows(elements: Sequence[int], top: int, b: int) -> list[int]:
    """_support_rows with each row a list of slots: slot j of row t gains
    sum_q F[t-1][j+1-q] * C(m, q), the dot product of a slice of row t-1 with
    the reversed factor cut to min(m, top, j+1) terms.  The rows are packed
    into b-bit slots once, at the end."""
    factors = {}
    ends = range(1, top + 1)
    for m in elements:
        if m not in factors:
            reverse = [binomial_first(m, k) for k in range(min(m, top), 0, -1)]
            length = len(reverse)
            factors[m] = [max(0, end - length) for end in ends], [reverse[max(0, length - end) :] for end in ends]
    rows = [[1] + [0] * top] + [[0] * (top - t + 1) for t in range(1, top)]
    for count, m in enumerate(elements, start=1):
        starts, tails = factors[m]
        for t in range(min(count, top - 1), 0, -1):
            prev = rows[t - 1]
            rows[t] = [x + sum(map(mul, prev[s:e], f)) for x, s, e, f in zip(rows[t], starts, ends, tails)]
    packed = []
    for row in rows:
        value = 0
        for slot in reversed(row):
            value = value << b | slot
        packed.append(value)
    return packed


# _support_rows runs the packed kernel unpriced while b * top is below this.  On
# the fit grid no cell there gains more than x1.5 from the list kernel, none
# there is priced to take it, and every input with n <= 12 and roots below
# 2^20 stays there.
_PACKED_BELOW = 5000
# Nanoseconds per unit of each feature of _kernel_features, fitted once by
# least squares on the grid in the `layer` section of BENCH_13.json.
_PACKED_NS = (655.4, 465.8, 196.7, 0.8351)
_LISTED_NS = (1620.0, 747.1, 17.32, 251.4, 416.5, 138.9, 0.3467)


def _mul_cost(x: float, y: float) -> float:
    """Digit products in one x-digit by y-digit CPython multiplication of
    30-bit digits: schoolbook below 70 digits, Karatsuba above."""
    if x < y:
        x, y = y, x
    return x * y if y <= 70 else x * 70 * (y / 70) ** 0.585


def _kernel_features(n: int, top: int, b: int, lengths: Sequence[int]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """What each kernel of _support_rows does for n roots whose distinct values
    have factor lengths min(m, top) = `lengths`, from sizes alone: for
    _packed_rows (roots, factor slots, row steps, digit products) and for
    _listed_rows (roots, factor slots and slices, digits packed, row steps,
    slots, slot products, digit products).  The c-th root steps rows
    1..min(c, top-1), so row t is stepped by n - t + 1 roots, shared among
    the factor lengths as the distinct roots are.  A factor slot C(m, q) is
    taken as q * b / top bits wide when m >= top, and at most m bits when
    m < top; a list slot as a full b-bit slot.  Only estimates, in floats:
    they pick a kernel and never enter a value."""
    digits = b / 30 + 1
    steps = packed_work = slots = products = listed_work = 0.0
    for length, copies in Counter(lengths).items():
        bits = [q * b / top for q in range(length + 1)] if length == top else [length] * (length + 1)
        costs = [_mul_cost(digits, x / 30 + 1) for x in bits[1:]]
        cost_sums = [0, *accumulate(costs)]
        weighted_sums = [0, *accumulate(map(mul, costs, range(1, length + 1)))]
        g_steps = g_packed = g_slots = g_products = g_listed = 0
        for t in range(1, min(n, top - 1) + 1):
            width = top - t + 1
            kept = min(length, width)
            roots = n - t + 1
            g_steps += roots
            g_packed += roots * _mul_cost((width + 1) * digits, ((kept - 1) * b + bits[kept]) / 30 + 1)
            g_slots += roots * width
            g_products += roots * kept * (2 * width - kept + 1) // 2
            g_listed += roots * ((width + 1) * cost_sums[kept] - weighted_sums[kept])
        share = copies / len(lengths)
        steps += share * g_steps
        packed_work += share * g_packed
        slots += share * g_slots
        products += share * g_products
        listed_work += share * g_listed
    factor_slots = sum(lengths)
    return (
        (n, factor_slots, steps, packed_work),
        (n, factor_slots + len(lengths) * top, top * top * digits, steps, slots, products, listed_work),
    )


def _kernel_costs(n: int, top: int, b: int, lengths: Sequence[int]) -> tuple[float, float]:
    """Predicted nanoseconds of (_packed_rows, _listed_rows): the features of
    _kernel_features priced by the fitted constants.  Pure: runs no kernel."""
    packed, listed = _kernel_features(n, top, b, lengths)
    return sum(map(mul, _PACKED_NS, packed)), sum(map(mul, _LISTED_NS, listed))


def _bracket_table(elements: Sequence[int], top: int) -> tuple[list[int], int]:
    """Returns rows, rows[s] = B[s][0..top] in b-bit slots for s < top, and
    b: each support row moved back up to slots t..top and summed with the
    coefficients C(n-t, s-t).  Every coefficient is nonnegative and every
    B[s][k] < 2^b, so the packed sums carry nothing between slots."""
    n, total = len(elements), sum(elements)
    b = comb(n, n // 2).bit_length() + comb(total, min(top, total // 2)).bit_length() + 1
    rows = [row << (b * t) for t, row in enumerate(_support_rows(elements, top, b))]
    return [sum(map(mul, coefficients, rows)) for coefficients in _conversion(n, top)], b


def _bracket_totals(elements: Sequence[int], i: int) -> list[int]:
    """sum_{|J|=s} C(sigma_J, i) for s = 0..i-1, converted from the top slot
    F[t][i] of each support row alone, in slots as wide as F needs."""
    total = sum(elements)
    b = comb(total, min(i, total // 2)).bit_length()
    tops = [row >> (b * (i - t)) for t, row in enumerate(_support_rows(elements, i, b))]
    return [sum(map(mul, coefficients, tops)) for coefficients in _conversion(len(elements), i)]


def esp_loworder(roots: RootSet, i: int) -> int:
    """e_1..e_5 spelled out literally, bracket by bracket, with hard-coded
    multichoose weights and sign pattern.

    Kept deliberately independent of the general sieve loop so the two can
    cross-check each other.  Requires n >= i - 1 (the multichoose base
    n - i + 1 must stay nonnegative).
    """
    n = roots.n
    if not 1 <= i <= 5:
        raise ValueError(f"only orders 1..5 are spelled out, got {i}")
    if n < i - 1:
        raise ValueError(f"need n >= {i - 1} for order {i}, got n={n}")
    N = roots.total

    def bracket(size: int) -> int:
        return sum(binomial_first(sum(combo), i) for combo in combinations(roots.elements, size))

    if i == 1:
        return binomial_first(N, 1)
    if i == 2:
        return binomial_first(N, 2) - binomial_second(n - 1, 0) * bracket(1)
    if i == 3:
        return (
            binomial_first(N, 3)
            - binomial_second(n - 2, 0) * bracket(2)
            + binomial_second(n - 2, 1) * bracket(1)
        )
    if i == 4:
        return (
            binomial_first(N, 4)
            - binomial_second(n - 3, 0) * bracket(3)
            + binomial_second(n - 3, 1) * bracket(2)
            - binomial_second(n - 3, 2) * bracket(1)
        )
    return (
        binomial_first(N, 5)
        - binomial_second(n - 4, 0) * bracket(4)
        + binomial_second(n - 4, 1) * bracket(3)
        - binomial_second(n - 4, 2) * bracket(2)
        + binomial_second(n - 4, 3) * bracket(1)
    )


def _esp_dp(roots: RootSet, i: int) -> int:
    # e_i from the product recurrence: 0 above n, as the definition gives,
    # and a negative order is refused like the other routes refuse it.
    if i < 0:
        raise ValueError(f"order must be >= 0, got {i}")
    return esp_all(roots)[i] if i <= roots.n else 0


# e_i by each route, for `compute --method` and `bench --methods`.  Every
# entry looks its route up when called, so a patched module attribute sees
# each call.
METHODS: dict[str, Callable[[RootSet, int], int]] = {
    "direct": lambda roots, i: esp_direct(roots, i),
    "dp": _esp_dp,
    "extraction": lambda roots, i: esp_extraction(roots, i, explain_limit=0)[0],
}


def esp_compare(roots: RootSet, i: int) -> dict[str, int]:
    """Run every method of METHODS once on the same input and return
    {method: value}; callers compare the values for agreement."""
    if not 1 <= i <= roots.n:
        raise ExtractionDomainError(f"need 1 <= i <= n, got i={i}, n={roots.n}")
    return {method: run(roots, i) for method, run in METHODS.items()}


def specialize(family: str, rows: int) -> list[list[int]]:
    """Number-triangle specializations of the sieve.

    family "pascal": the all-ones root set of size n, whose e_i are the
    binomials C(n, i).  family "stirling1": the root set {1, ..., n}, whose
    e_i are unsigned Stirling numbers of the first kind; every row is
    cross-checked against the signed-Stirling recurrence before returning.
    """
    if family not in ("pascal", "stirling1"):
        raise ValueError(f"unknown family {family!r}, expected 'pascal' or 'stirling1'")
    if rows < 1:
        raise ValueError(f"need rows >= 1, got {rows}")
    triangle = []
    for n in range(1, rows + 1):
        if family == "pascal":
            roots = RootSet((1,) * n)
        else:
            roots = RootSet(tuple(range(1, n + 1)))
        row = esp_extraction_all(roots)
        if family == "stirling1":
            recurrence_row = [abs(stirling_first_signed(n + 1, n + 1 - i)) for i in range(n + 1)]
            if row != recurrence_row:
                raise ArithmeticError(
                    f"stirling1 row {n} disagrees with the recurrence triangle: {row} vs {recurrence_row}"
                )
        triangle.append(row)
    return triangle
