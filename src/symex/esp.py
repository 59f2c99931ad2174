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

A bracket total sum_{|J|=s} C(sigma_J, i) comes from support-layer rows or
from a directly filled table (both below), whether or not the per-subset
detail (n <= explain limit) enumerates the C(n, s) subsets beside it.  By Vandermonde,
(1+z)^m = 1 + g_m(z) with g_m(z) = (1+z)^m - 1, so

    sum_s y^s sum_k B[s][k] z^k = prod_j (1 + y (1+z)^{m_j})
                                = sum_t F_t(z) y^t (1+y)^{n-t},

where B[s][k] = sum_{|J|=s} C(sigma_J, k) and F_t = [y^t] prod_j (1 + y g_{m_j})
= e_t(g_{m_1}, ..., g_{m_n}), the t-th elementary symmetric polynomial of
the series g, groups the terms of B by their support T, |T| = t.  Hence
B[s][k] = sum_{t<=s} C(n-t, s-t) F[t][k].  g_m has no constant term, so
F[t][k] = 0 for k < t: _newton_rows keeps row t shifted down t slots, only
F[t][t..top], and every product is cut to those top-t+1 slots.  Each row is
returned packed into one integer of w-bit slots.

_newton_rows builds the rows by the Newton-Girard identities
(I. G. Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., 1995,
section I.2) on the power sums P_r = sum_j g_{m_j}^r:

    t * F_t = sum_{r=1..t} (-1)^(r-1) P_r F_{t-r},

top(top-1)/2 products whatever n is.  P_r has a closed form in the power
sums of the roots, p_a = sum_j m_j^a.  By the binomial theorem
[z^k] g_m^r = sum_q (-1)^(r-q) C(r, q) C(qm, k); C(x, k) = sum_a s(k, a) x^a / k!
with s the signed Stirling numbers of the first kind, and
sum_q (-1)^(r-q) C(r, q) q^a = r! S(a, r) with S those of the second kind, so

    P_r[k] = (r!/k!) sum_{a=r..k} S(a, r) s(k, a) p_a,

zero for k < r, so P_r is kept shifted down r slots as well.  All of it
but the p_a depends on top alone: the columns s(k, a) * top!/k! and
S(a, r) and the ratios top!/k! are built once per top (_power_sum_table).

Slot widths.  All terms of F are nonnegative and sum_t F[t][k] = C(N, k)
where N = m_1+...+m_n, so F[t][k] <= C(N, k), and B[s][k] <= C(n, s) * C(N, k).
Over k <= top, C(N, k) is largest at k = min(top, floor(N/2)), and C(n, s) is
largest at s = floor(n/2).  So _bracket_totals, which converts F alone, bounds
every slot by 2^b with b = bitlen(C(N, min(top, floor(N/2)))), and a table of
B by 2^b with b = bitlen(C(n, floor(n/2))) + that + 1 (_table_width).  The
identities have signs and the slots of P_r can exceed any such bound (P_r[k]
can reach n * C(r * max m, k)), so _newton_rows reasons modulo
M = 2^(w * (top-t+1)) for row t in w-bit slots.  A packed integer is its slot
polynomial evaluated at 2^w, exactly, whatever the size of its slots; so the
alternating sum of the cut products is congruent mod M to the slots of
t * F_t, and those lie in [0, t * 2^b).  With w = b + bitlen(top-1) every
such slot is < 2^w, so the sum reduced mod M is exactly t * F_t packed, and
dividing it by t is exact, for any nonnegative roots.  The modulus of row r
is a multiple of that of every row t >= r, so each signed (-1)^(r-1) P_r is
reduced once, mod 2^(w * (top-r+1)), and every row is one sum of
nonnegative products.  _newton_rows returns w beside the rows;
_bracket_table converts in w-bit slots, which hold every B[s][k] < 2^b, so
the conversion needs no repacking.

The rows cost polynomially many big-int products instead of
sum_s C(n, s) binomials.  From them esp_extraction reads the top slot
F[t][i] of each row with top = i and converts those few integers; one table
with top = n holds every order's brackets, and esp_extraction_all reads each
column i of it.

A table of B (_bracket_table, top = n) and the brackets of one order i
(_bracket_totals, top = i) each take one of two routes, by one rule on
b * top, b the slot width of a table of B with that top (_table_width).
From b * top = _DIRECT_BELOW on they convert the support rows as above.  Below
it, where a table costs more in Python steps than in big-int work, they fill
B directly (_direct_rows), with Kronecker substitution in both variables
(D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009).  The product in the first
identity, taken one root at a time, is B_s += (1+z)^m B_{s-1} for every s,
so all rows go into one integer X, row s in b-bit slots from bit s * stride
on, and each root costs one product with f_m = (1+z)^m cut after z^top in
b-bit slots:

    X = (X + (X * f_m << stride)) & keep,

where keep holds slots 0..top of rows 0..top-1.  Any stride of at least
b * (2 * top + 2) + 1 bits works.  Every partial B[s][k] is below its
final value, so below 2^b, and so is every slot of f_m (C(m, k) <= C(N, k)).
So a row is below 2^(b(top+1)), f_m below 2^(b(min(m, top)+1)), and their
product below 2^(b(top + min(m, top) + 2)) <= 2^(stride-1); adding row s of
X, also below that, gives less than 2^stride, so nothing carries into the
next row.  In the low b(top+1) bits of each row, the new slots k <= top are
sums of nonnegative terms below 2^b, so no carry reaches them from below
and the mask leaves exactly the new B[s][0..top].  Every fill takes its
factors from one generator, _binomial_factors, which builds 2^b + 1 and
the mask of slots 0..top once per fill: f_m is (2^b + 1)^m masked to those
slots for a root below 64, and built slot by slot from 64 on.  Every fill
takes its stride from _direct_layout: that bound rounded up to whole bytes,
whose spare bits only widen the gap between rows, so every row starts on a
byte and keep is one row's mask bytes repeated every stride.  The route
never calls _newton_rows, so it keeps the b of the table.  At top = i the brackets of
order i are slot i of each row, the row shifted down b * i bits: the mask
leaves nothing above it.

specialize reads a number triangle, e_0..e_n of each prefix m_1..m_n of one
root sequence, in one pass (_triangle_rows): a single direct fill with
top = rows, run once over the whole sequence.  After root n the table holds
the prefix's B[s][0..top], and row n of the triangle reads B[s][i] for
s < i <= n with the weights and the head C(m_1+...+m_n, i), as
esp_extraction_all reads its table.  One width serves every prefix: a
prefix's B[s][k] sums a subset of the nonnegative terms C(sigma_J, k) that
the whole set's B[s][k] sums, so the slot width b of the whole set
(_table_width) bounds every slot of every prefix, and every slot of f_m too.
Every row starts on a byte, so one to_bytes cuts every row filled so far out
of the table after each root.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, repeat, zip_longest
from math import comb, prod
from operator import and_, lshift, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import coeffs
from .bigcomb import _stirling_row, _stirling_second_row, binomial_first, binomial_second, stirling_first_signed
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


class ExtractionBreakdown(NamedTuple):
    """The sieve's value term by term: total = head + sum of each term's
    coefficient * bracket_total.  A named tuple of its four fields, like
    BreakdownTerm."""

    i: int
    head: int
    terms: tuple[BreakdownTerm, ...]
    total: int


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

    The bracket totals come from the support-layer rows or the direct table
    fill of the module docstring (_bracket_totals) in polynomial time.  Up to n = explain_limit
    each term also keeps its per-subset binomials, each math.comb of a
    nonnegative subset sum; above it no subset is enumerated.

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
    head = comb(roots.total, i)
    weights = _weights(n, i)
    # bracket h is B[i-h][i], so the terms read the totals down from s = i-1
    brackets = _bracket_totals(elements, i)[i - 1 : 0 : -1] if i > 1 else []

    details: Iterator[tuple[tuple[IndexSubset, int], ...] | None] = repeat(None)
    if n <= explain_limit:
        details = (tuple(zip(k_subsets(n, s), map(comb, map(sum, combinations(elements, s)), repeat(i)))) for s in range(i - 1, 0, -1))
    terms = tuple(map(BreakdownTerm, range(1, i), weights, brackets, details))
    value = head + sum(map(mul, weights, brackets))
    return value, ExtractionBreakdown(i, head, terms, value)


def esp_extraction_all(roots: RootSet) -> list[int]:
    """All of e_0..e_n by the sieve, the counterpart of esp_all: one table
    with top = n (_bracket_table) holds B[s][k] for every k <= n, so order i
    reads its bracket totals B[1..i-1][i] from column i of that one table
    instead of building brackets of its own.  No subset is enumerated."""
    return _read_orders(*_bracket_table(roots.elements, roots.n), roots.n, roots.total)


def _read_orders(rows: Sequence[int], b: int, n: int, total: int) -> list[int]:
    """e_0..e_n of n roots summing to total, from rows[s] holding B[s][i] in
    b-bit slot i for 0 < s < i <= n: e_i = C(total, i) + sum_h weight * B[i-h][i]."""
    slot = (1 << b) - 1
    values = [1]
    for i in range(1, n + 1):
        value, shift = comb(total, i), b * i
        for weight, row in zip(_weights(n, i), rows[i - 1:0:-1]):
            value += weight * (row >> shift & slot)
        values.append(value)
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


def _binomial_factors(elements: Iterable[int], top: int, b: int) -> Iterator[int]:
    """The factors of one direct fill, one per root m in turn: (1+z)^m cut
    after z^top, C(m, k) in b-bit slot k for k <= min(m, top).  The
    constants 2^b + 1 and the mask of slots 0..top are built once per fill,
    not once per root.  Exact when every such C(m, k) < 2^b, as the slot
    width of each direct fill ensures (C(m, k) <= C(N, k)).  Then
    (2^b + 1)^m = sum_k C(m, k) 2^(bk) has slots 0..top exact: the terms
    above top are multiples of 2^(b(top+1)), so no carry reaches a kept
    slot, and one pow masked to slots 0..top builds the factor.  That pow
    makes a b * m-bit integer, so it serves roots below 64 only; wider roots
    are built slot by slot, at min(m, top) binomials whatever m is, each one
    math.comb of m >= 64 and 1 <= k <= m.  Timed on the factors of one
    sieve_compact round (CPython 3.11, 2-core x86-64 VM), pow with its bound
    anywhere in 16..64 summed below the loop alone, and above it from 96 on
    (x3.4 at 256).  A generator, so a fill holds one factor at a time.  No
    cache: verify's sweeps alone ask for over a thousand distinct
    (m, top, b)."""
    base, slots = (1 << b) + 1, (1 << (b * (top + 1))) - 1
    for m in elements:
        if m < 64:
            yield pow(base, m) & slots
            continue
        factor = 0
        for k in range(min(m, top), 0, -1):
            factor = factor << b | comb(m, k)
        yield factor << b | 1


def _newton_rows(elements: Sequence[int], top: int, b: int) -> tuple[list[int], int]:
    """The support-layer rows of the module docstring, rows[t] = F[t][t..top]
    for t < top with row t shifted down t slots, and the slot width
    w = b + bitlen(top-1) they are packed in.  By the Newton-Girard
    identities, t * F_t = sum_{r=1..t} (-1)^(r-1) P_r * F_{t-r}, each operand
    cut to the top-t+1 slots row t keeps, the sum reduced mod 2^(w*(top-t+1))
    and divided by t.  Each (-1)^(r-1) P_r is stored once, as its residue
    mod 2^(w*(top-r+1)): that modulus is a multiple of row t's for every
    t >= r, so every operand is nonnegative and a row is one sum of products.
    Exact when every F[t][k] < 2^b, which needs nonnegative elements."""
    w = b + (top - 1).bit_length()
    # keeps[t], slots 0..top-t, is the modulus of row t and of P_t
    keeps = [(1 << (w * (top - t + 1))) - 1 for t in range(top)]
    signed = [(p if r % 2 else -p) & keep for r, p, keep in zip(range(top), _power_sums(elements, top, w), keeps)]
    rows = [1]
    for t in range(1, top):
        keep = keeps[t]
        rows.append((sum(map(mul, map(and_, signed[1 : t + 1], repeat(keep)), map(and_, reversed(rows), repeat(keep)))) & keep) // t)
    return rows, w


def _power_sums(elements: Sequence[int], top: int, b: int) -> list[int]:
    """P_r = sum_j g_{m_j}^r for r < top, shifted down r slots, P_r[r..top] packed
    in b-bit slots, with P_0 = 0.  From the closed form of the module
    docstring, top!/r! * P_r = sum_a S(a, r) p_a U_a, where U_a packs
    s(k, a) * top!/k! for k <= top: every sum is exact in integers, so the
    division by top!/r! is exact too.  A slot of P_r may exceed 2^b; the
    value is still sum_k P_r[k] 2^(b(k-r)).  Two zero triangles are skipped:
    s(k, a) = 0 for k < a, so U_a packs slots a..top only, shifted down a
    slots; and S(a, r) = 0 for a < r, so P_r sums a = r..top only, each term
    shifted up a - r slots.  Everything but the roots and b comes from
    _power_sum_table(top)."""
    sums, powers = [sum(elements)], elements
    for _ in range(1, top):
        powers = list(map(mul, powers, elements))
        sums.append(sum(powers))
    falling, second, ratios = _power_sum_table(top)
    shifts = range(0, b * (top + 1), b)
    weighted = [p * sum(map(lshift, column, shifts)) for p, column in zip(sums, falling)]
    return [0, *(sum(map(lshift, map(mul, column, weighted[r - 1 :]), shifts)) // ratio for r, column, ratio in zip(range(1, top), second, ratios[1:]))]


@lru_cache(maxsize=32)
def _power_sum_table(top: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """What _power_sums needs of order top alone: for a = 1..top the column
    s(k, a) * top!/k!, k = a..top; for r = 1..top-1 the column S(a, r),
    a = r..top; and top!/k! for k = 0..top.  The Stirling numbers come from
    the cached rows of bigcomb, transposed here once per top.  Cached for at
    most 32 orders, bounded by entries like _conversion: an entry takes
    13 KB at top = 17, sieve_compact's largest support order, and 2.2 MB at
    top = 150."""
    ratios = tuple(accumulate(range(top, 0, -1), mul, initial=1))[::-1]
    # zip_longest turns the rows into columns s(0..top, a) and S(0..top, r)
    falling = zip_longest(*map(_stirling_row, range(top + 1)), fillvalue=0)
    second = zip_longest(*map(_stirling_second_row, range(top + 1)), fillvalue=0)
    return (
        tuple(tuple(map(mul, column[a:], ratios[a:])) for a, column in enumerate(falling) if a),
        tuple(column[r:] for r, column in zip(range(top), second) if r),
        ratios,
    )


# Below this b * top, b the slot width of a table with that top, both
# _bracket_table (top = n) and _bracket_totals (top = i) fill their rows
# directly (_direct_rows).  In the `table_grid` bins of BENCH_29.json (Newton
# the one support kernel, no factor cache) the direct route takes 0.19-0.35
# of the support route's summed time per bin below 500, 0.42-0.60 at
# 500-750, and 1.04 or more from 750 on, so for tables alone the crossover
# lies near 750.  Per order, on sieve_compact's cells below 496, the direct
# fill gains below b * i = 300, loses at 300-495 and gains in sum (BENCH_25),
# so one rule serves both at 496 = 16 * 31, where both edges 495 and 496 are
# b * top of tables with several rows (499 is prime).  Every table of
# verify's exhaustive sweep (b * top at most 174) lies below it, and so does
# every cell of a random set unless n = 10 and N >= 78; every wide set
# (1,010 and up) lies above it.
_DIRECT_BELOW = 496


def _bracket_table(elements: Sequence[int], top: int) -> tuple[list[int], int]:
    """Returns rows, rows[s] = B[s][0..top] in w-bit slots for s < top, and
    w.  Below b * top = _DIRECT_BELOW, b = _table_width, the rows come from
    _direct_rows and w = b.  From there on each row of _newton_rows, in its
    w-bit slots, is moved back up to slots t..top and summed with the
    coefficients C(n-t, s-t).  Every coefficient is nonnegative and every
    B[s][k] < 2^b <= 2^w, so the packed sums carry nothing between slots."""
    b = _table_width(elements, top)
    if b * top < _DIRECT_BELOW:
        return _direct_rows(elements, top, b), b
    support, b = _newton_rows(elements, top, b)
    rows = [row << (b * t) for t, row in enumerate(support)]
    return [sum(map(mul, coefficients, rows)) for coefficients in _conversion(len(elements), top)], b


def _table_width(elements: Sequence[int], top: int) -> int:
    """The slot width b of a table of B with slots 0..top, as the module
    docstring bounds it: bitlen(C(n, floor(n/2))) + bitlen(C(N, min(top, floor(N/2)))) + 1."""
    n, total = len(elements), sum(elements)
    return comb(n, n // 2).bit_length() + comb(total, min(top, total // 2)).bit_length() + 1


def _direct_rows(elements: Sequence[int], top: int, b: int) -> list[int]:
    """B[s][0..top] for s < top in b-bit slots, by B_s += (1+z)^m B_{s-1} for
    each root m and every s at once: the rows sit in one integer, row s from
    bit s * stride on, so one product with each factor of
    _binomial_factors(elements, top, b) moves every row's update up one row.
    Exact when every B[s][k] < 2^b."""
    stride, keep, row = _direct_layout(top, b)
    table = 1
    for factor in _binomial_factors(elements, top, b):
        table = (table + (table * factor << stride)) & keep
    return [table >> (stride * s) & row for s in range(top)]


@lru_cache(maxsize=256)
def _direct_layout(top: int, b: int) -> tuple[int, int, int]:
    """The layout of every direct fill: its stride, b * (2 * top + 2) + 1 bits
    as the module docstring proves, rounded up to whole bytes; the mask of
    slots 0..top of rows 0..top-1, one row's mask bytes repeated every stride;
    and that of one row.  Cached for _direct_rows, which only tables below
    _DIRECT_BELOW reach; _triangle_rows builds its table-sized one uncached."""
    size, row = (b * (2 * top + 2) + 8) // 8, (1 << (b * (top + 1))) - 1
    return 8 * size, int.from_bytes(row.to_bytes(size, "little") * top, "little"), row


def _bracket_totals(elements: Sequence[int], i: int) -> list[int]:
    """sum_{|J|=s} C(sigma_J, i) for s = 0..i-1.  Below b * i = _DIRECT_BELOW,
    b the width of a table with top = i, they are slot i of the rows that
    _direct_rows fills; from there on they are converted from the top slot
    F[t][i] of each support row alone, in slots as wide as F needs."""
    b = _table_width(elements, i)
    if b * i < _DIRECT_BELOW:
        return [row >> (b * i) for row in _direct_rows(elements, i, b)]
    # F's own bound: the table width less C(n, floor(n/2))'s bits and the guard bit
    n = len(elements)
    support, b = _newton_rows(elements, i, b - comb(n, n // 2).bit_length() - 1)
    tops = [row >> (b * (i - t)) for t, row in enumerate(support)]
    return [sum(map(mul, coefficients, tops)) for coefficients in _conversion(n, i)]


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


def specialize(family: str, rows: int) -> Iterator[list[int]]:
    """Number-triangle specializations of the sieve, one row at a time.

    family "pascal": the all-ones root set of size n, whose e_i are the
    binomials C(n, i).  family "stirling1": the root set {1, ..., n}, whose
    e_i are unsigned Stirling numbers of the first kind; every row is
    cross-checked against the signed-Stirling recurrence before it is
    yielded, and a disagreement raises ArithmeticError after the rows
    before it.  The arguments are checked when called; the iterator returned
    yields rows n = 1..rows, e_0..e_n each, from one pass (_triangle_rows).
    """
    if family not in ("pascal", "stirling1"):
        raise ValueError(f"unknown family {family!r}, expected 'pascal' or 'stirling1'")
    if rows < 1:
        raise ValueError(f"need rows >= 1, got {rows}")
    elements = (1,) * rows if family == "pascal" else tuple(range(1, rows + 1))
    return _triangle_rows(elements, family == "stirling1")


def _triangle_rows(elements: Sequence[int], stirling: bool) -> Iterator[list[int]]:
    """e_0..e_n of each prefix elements[:n], n = 1..len(elements), from one
    direct fill with top = len(elements) in the width of the whole set: after
    root n the table holds the prefix's B[s][0..top], and its rows are cut
    out by one to_bytes, since the stride is whole bytes (_direct_layout).
    The cut is released before the next product.  With stirling, row n must
    equal the recurrence's |s(n+1, n+1-i)|."""
    top = len(elements)
    b = _table_width(elements, top)
    stride, keep, _ = _direct_layout.__wrapped__(top, b)
    size = stride // 8
    table, total = 1, 0
    for n, (m, factor) in enumerate(zip(elements, _binomial_factors(elements, top, b)), start=1):
        table = (table + (table * factor << stride)) & keep
        total += m
        data = table.to_bytes(size * (n + 1), "little")
        row = _read_orders([int.from_bytes(data[size * s : size * (s + 1)], "little") for s in range(n)], b, n, total)
        del data
        if stirling:
            recurrence_row = [abs(stirling_first_signed(n + 1, n + 1 - i)) for i in range(n + 1)]
            if row != recurrence_row:
                raise ArithmeticError(
                    f"stirling1 row {n} disagrees with the recurrence triangle: {row} vs {recurrence_row}"
                )
        yield row

