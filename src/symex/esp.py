"""Four routes to the elementary symmetric polynomial e_i of a root set.

* esp_direct: the definition, summing products over i-element subsets.
* esp_all: the classical one-pass product recurrence, all orders at once.
* esp_extraction: the binomial-product sieve, which starts from
  C(m_1+...+m_n, i) and subtracts alternating multichoose-weighted sums of
  C(subset sum, i) over all (i-h)-subsets, h = 1..i-1.
* esp_extraction_all: the same sieve at every order 0..n at once, the
  sieve's counterpart of esp_all.

esp_extraction also returns a term-by-term breakdown: head, weights and
bracket totals.  METHODS names the three per-order routes as e_i functions,
and esp_compare runs them on one input so their values can be checked
against each other.

A bracket total sum_{|J|=s} C(sigma_J, i) comes from support columns or
from a directly filled table (both below); no subset is enumerated.  By
Vandermonde, (1+z)^m = 1 + g_m(z) with g_m(z) = (1+z)^m - 1, so

    sum_s y^s sum_k B[s][k] z^k = prod_j (1 + y (1+z)^{m_j})
                                = sum_t F_t(z) y^t (1+y)^{n-t},

where B[s][k] = sum_{|J|=s} C(sigma_J, k) and F_t = [y^t] G with
G(y, z) = prod_j (1 + y g_{m_j}(z)), so F_t = e_t(g_{m_1}, ..., g_{m_n}), the
t-th elementary symmetric polynomial of the series g, groups the terms of B
by their support T, |T| = t.  Hence B[s][k] = sum_{t<=s} C(n-t, s-t) F[t][k].
g_m has no constant term, so F[t][k] = 0 for k < t, and G(y, 0) = 1.

_support_columns builds F column by column, A_k(y) = [z^k] G =
sum_t F[t][k] y^t, from the logarithmic derivative of G in z, as the
Newton identities do (I. G. Macdonald, Symmetric Functions and Hall
Polynomials, 2nd ed., 1995, section I.2): z dG/dz = D G with
D = z d/dz log G = sum_l D_l z^l, so

    k * A_k = sum_{l=1..k} D_l A_{k-l},    A_0 = 1,

top(top-1)/2 products whatever n is (D_k A_0 needs none).  D_l has a
closed form in the power sums of the roots, p_a = sum_j m_j^a.
log(1 + y g_m) = sum_r (-1)^(r-1) y^r g_m^r / r; by the binomial theorem
[z^l] g_m^r = sum_q (-1)^(r-q) C(r, q) C(qm, l); C(x, l) = sum_a s(l, a) x^a / l!
with s the signed Stirling numbers of the first kind; and
sum_q (-1)^(r-q) C(r, q) q^a = r! S(a, r) with S those of the second kind.
So

    (l-1)! D_l = sum_{a=1..l} s(l, a) p_a V_a(y),
    V_a(y) = sum_{r=1..a} (-1)^(r-1) (r-1)! S(a, r) y^r.

All of it but the p_a depends on top alone: the rows s(l, 1..l), the
coefficients of V_a and the (l-1)! are built once per top
(_log_derivative_table).

Slot widths.  Everything is evaluated at y = 2^f, so each polynomial in y
is one integer, and every product and sum of the recurrence is exact:
nothing is cut and nothing is reduced.  Since G(y, 0) = 1, 1/G and so D
have coefficients in Z[y]: the division of (l-1)! D_l by (l-1)! is exact,
and so is that of k * A_k by k.  All terms of F are nonnegative and
sum_t F[t][k] = C(N, k) where N = m_1+...+m_n, so 0 <= F[t][k] <= C(N, k),
and B[s][k] <= C(n, s) * C(N, k).  Over k <= top, C(N, k) is largest at
k = min(top, floor(N/2)), so with f = bitlen(C(N, min(top, floor(N/2))))
every F[t][k] < 2^f: A_k(2^f) holds F[t][k] in its f-bit slot t, and the
slots are read by shifts and masks.  D_l has signs, but only A_k is read.
C(n, s) < 2^n, so every B[s][k] < 2^(f+n): a table of B takes b = f + n
(both _slot_widths), and no binomial sizes it but F's.  Every D_l, and
every A_k with k > 0, is a multiple of y (V_a is, and F[0][k] = 0), so the
columns are kept divided by 2^f:
k A_k/y = D_k/y + y sum_{l<k} (D_l/y)(A_{k-l}/y), each product 2f bits
shorter.

The columns cost polynomially many big-int products instead of
sum_s C(n, s) binomials.  From them esp_extraction reads the slots F[t][i]
of column i with top = i and converts those few integers; one table with
top = n, its support rows F[t][0..top] transposed out of the columns into
the table's b-bit slots, holds every order's brackets, and
esp_extraction_all reads each column i of it.

A table of B (_bracket_table, top = n) and the brackets of one order i
(_bracket_totals, top = i) each take one of two routes, by one rule on
b * n, b the slot width of a table of B with that top (_slot_widths): the
direct fill below multiplies in one factor of b-bit slots per root, while
the support columns take a number of products set by top alone.  From
b * n = _DIRECT_BELOW on they convert the support columns as above.  Below
it, where a fill costs more in Python steps than in big-int work, they fill
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
byte and keep is one row's mask bytes repeated every stride.  At top = i
the brackets of order i are slot i of each row, the row shifted down b * i
bits: the mask leaves nothing above it.

specialize reads a number triangle, e_0..e_n of each prefix m_1..m_n of one
root sequence, in one pass (_triangle_rows): a single direct fill with
top = rows, run once over the whole sequence.  After root n the table holds
the prefix's B[s][0..top], and row n of the triangle reads B[s][i] for
s < i <= n with the weights and the head C(m_1+...+m_n, i), as
esp_extraction_all reads its table.  One width serves every prefix: a
prefix's B[s][k] sums a subset of the nonnegative terms C(sigma_J, k) that
the whole set's B[s][k] sums, so the slot width b of the whole set
(_slot_widths) bounds every slot of every prefix, and every slot of f_m too.
Every row starts on a byte, so one to_bytes cuts every row filled so far out
of the table after each root.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, prod
from operator import lshift, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import coeffs
from .bigcomb import _stirling_row, _stirling_second_row, binomial_first, binomial_second, stirling_first_signed
from .rootset import RootSet
# perfbench's tracer patches esp.k_subsets by name; nothing here calls it
from .subsets import k_subsets

__all__ = [
    "METHODS",
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


def esp_direct(roots: RootSet, i: int) -> int:
    """e_i by definition: the sum over all i-element index subsets of the
    product of the selected roots.  e_0 = 1 (empty product); i > n gives 0."""
    if i < 0:
        raise ValueError(f"order must be >= 0, got {i}")
    if i > roots.n:
        # combinations refuses an order past sys.maxsize
        return 0
    return sum(map(prod, combinations(roots.elements, i)))


def esp_all(roots: RootSet) -> list[int]:
    """All of e_0..e_n at once: coefficients of prod_j (1 + m_j x), by the one-pass recurrence e_i += m_k * e_{i-1}."""
    return _recurrence(roots.elements, roots.n)


def _recurrence(elements: Sequence[int], top: int) -> list[int]:
    """e_0..e_top by esp_all's recurrence, stopped at order top; root k moves orders 1..min(k, top)."""
    values = [1] + [0] * top
    for count, m in enumerate(elements, start=1):
        for j in range(count if count < top else top, 0, -1):
            values[j] += m * values[j - 1]
    return values


class BreakdownTerm(NamedTuple):
    """One sieve bracket: the total of its (i-h)-subset binomials and its
    signed weight.  `coefficient` is the additive weight: total = head + sum
    of coefficient * bracket_total over all terms.  `bracket` is always None;
    per-subset detail is printed by `compute --explain` alone."""

    h: int
    coefficient: int
    bracket_total: int
    # perfbench's tracer reads this field until it stops binding symex names
    bracket: None = None


class ExtractionBreakdown(NamedTuple):
    """The sieve's value term by term: total = head + sum of each term's
    coefficient * bracket_total."""

    i: int
    head: int
    terms: tuple[BreakdownTerm, ...]
    total: int


def esp_extraction(roots: RootSet, i: int) -> tuple[int, ExtractionBreakdown]:
    """e_i via the binomial-product sieve, with its term breakdown.

    head = C(m_1+...+m_n, i); for each h = 1..i-1 the bracket sums
    C(sum of m_j over J, i) over all (i-h)-subsets J, and is subtracted
    with weight C_h = (-1)^(h-1) * multichoose(n-i+1, h-1).

    The bracket totals come from the support-layer rows or the direct table
    fill of the module docstring (_bracket_totals) in polynomial time; no
    subset is enumerated.

    An order above n raises ValueError: the identity holds only for i <= n.
    """
    n = roots.n
    if i < 0:
        raise ValueError(f"order must be >= 0, got {i}")
    if i > n:
        raise ValueError(f"order {i} exceeds root set size {n}; use the direct route")

    head = comb(roots.total, i)
    weights = _weights(n, i)
    # bracket h is B[i-h][i], so the terms read the totals down from s = i-1
    brackets = _bracket_totals(roots.elements, i)[i - 1 : 0 : -1] if i > 1 else []
    terms = tuple(map(BreakdownTerm, range(1, i), weights, brackets))
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


def _support_columns(elements: Sequence[int], top: int, f: int) -> list[int]:
    """The support sums of the module docstring column by column: for
    k = 1..top, columns[k-1] = A_k / 2^f = sum_{t=1..k} F[t][k] 2^(f(t-1)),
    F[t][k] in slot t-1 (F[0][k] = 0 for k > 0, and A_0 = 1), by
    k A_k/2^f = D_k/2^f + 2^f sum_{l=1..k-1} D_l/2^f A_{k-l}/2^f with the
    D_l/2^f of _log_derivative.  Every product is exact and every division
    by k leaves no remainder.  Slot t-1 holds F[t][k] when every
    F[t][k] < 2^f, which needs nonnegative elements."""
    derivative, columns = _log_derivative(elements, top, f), []
    for k, own in enumerate(derivative, start=1):
        columns.append(((sum(map(mul, derivative, reversed(columns))) << f) + own) // k)
    return columns


def _log_derivative(elements: Sequence[int], top: int, f: int) -> list[int]:
    """D_l / 2^f for l = 1..top, D_l = [z^l] z d/dz log G at y = 2^f, from
    the closed form of the module docstring: (l-1)! D_l = sum_{a=1..l}
    s(l, a) p_a V_a(2^f).  Each V_a(y) is y times a polynomial, so packing
    its coefficient of y^r in slot r-1 divides by 2^f; the division by
    (l-1)! is exact, as D_l is an integer.  All but the roots' power sums
    p_a and f comes from _log_derivative_table(top)."""
    sums, powers = [sum(elements)], elements
    for _ in range(1, top):
        powers = list(map(mul, powers, elements))
        sums.append(sum(powers))
    falling, polynomials, factorials = _log_derivative_table(top)
    shifts = range(0, f * top, f)
    weighted = [p * sum(map(lshift, coefficients, shifts)) for p, coefficients in zip(sums, polynomials)]
    return [sum(map(mul, row, weighted)) // factorial for row, factorial in zip(falling, factorials)]


@lru_cache(maxsize=32)
def _log_derivative_table(top: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """What _log_derivative needs of order top alone: for l = 1..top the row
    s(l, 1..l); for a = 1..top the coefficients (-1)^(r-1) (r-1)! S(a, r) of
    V_a(y), r = 1..a; and (l-1)! for l = 1..top.  The Stirling numbers come
    from the cached rows of bigcomb.  Cached for at most 32 orders, bounded
    by entries like _conversion."""
    factorials = tuple(accumulate(range(1, top), mul, initial=1))
    polynomials = (
        tuple((-1) ** (r - 1) * factorial * value for r, (factorial, value) in enumerate(zip(factorials, _stirling_second_row(a)[1:]), start=1))
        for a in range(1, top + 1)
    )
    return tuple(_stirling_row(l)[1:] for l in range(1, top + 1)), tuple(polynomials), factorials


# Below this b * n, b the slot width of a table with top slots, both
# _bracket_table (top = n) and _bracket_totals (top = i) fill their rows
# directly (_direct_rows), one product per root on b-bit slots.  Timed
# against the support columns (each route forced, summed per bin of b * n),
# the direct fill of tables takes 0.35 of the support route's time below
# 300, 0.67 at 300-495, 1.08 at 496-749 and 1.59 at 750-999 (BENCH_38
# `rule_retime`, best of 7 per cell).  Per order, on every cell below
# b * i = 496 of each workload at seed 11 (BENCH_39 `rule_retime`, best of
# 5 per cell), it takes 0.58 (sieve_compact, 29 cells), 0.73
# (cli_interactive, 793) and 0.53 (verify's random sets, 1,448) below
# b * n = 496, 1.36 and 1.55 at 496-999 (118 and 155 cells), and 2.90 and
# 2.28 from 1,000 on (151 and 9): per order too the crossover lies near the
# rule.  Those bins were timed on the exact width
# f + bitlen(C(n, floor(n/2))) + 1, which lies within 1 bit of f + n for
# n <= 40.  496 = 16 * 31, where both edges 495 and 496 are b * n of tables
# with several rows (499 is prime).  Every table of verify's exhaustive
# sweep (b * n at most 174) lies below it, and so does every cell of a
# random set unless n = 10 and N >= 73 at order 10 or N >= 88 at order 9;
# every cell of a wide set (b * n 2,525 and up) lies above it.
_DIRECT_BELOW = 496


def _bracket_table(elements: Sequence[int], top: int) -> tuple[list[int], int]:
    """Returns rows, rows[s] = B[s][0..top] in b-bit slots for s < top, and
    b, a table's _slot_widths.  Below b * n = _DIRECT_BELOW the rows come
    from _direct_rows.  From there on the columns of _support_columns, in
    F's f-bit slots, are transposed into support rows F[t][0..top] in b-bit
    slots and summed with the coefficients C(n-t, s-t).  Every coefficient
    is nonnegative and every B[s][k] < 2^b, so the packed sums carry nothing
    between slots."""
    f, b = _slot_widths(elements, top)
    if b * len(elements) < _DIRECT_BELOW:
        return _direct_rows(elements, top, b), b
    columns, slot = _support_columns(elements, top, f), (1 << f) - 1
    # row 0 is F[0] = 1; row t reads slot t-1 of the columns k = t..top
    rows = [1, *(sum((column >> (f * (t - 1)) & slot) << (b * k) for k, column in enumerate(columns[t - 1 :], start=t)) for t in range(1, top))]
    return [sum(map(mul, coefficients, rows)) for coefficients in _conversion(len(elements), top)], b


def _slot_widths(elements: Sequence[int], top: int) -> tuple[int, int]:
    """The module docstring's slot widths for slots 0..top: F's, f = bitlen(C(N,
    min(top, floor(N/2)))), and a table of B's, f + n."""
    total = sum(elements)
    f = comb(total, min(top, total // 2)).bit_length()
    return f, f + len(elements)


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
    """sum_{|J|=s} C(sigma_J, i) for s = 0..i-1.  Below b * n = _DIRECT_BELOW,
    b = f + n the width of a table with top = i (_slot_widths), they are
    slot i of the rows that _direct_rows fills; from there on they are
    converted from the slots F[t][i], t < i, of the last column of
    _support_columns alone, in F's f-bit slots."""
    f, b = _slot_widths(elements, i)
    if b * len(elements) < _DIRECT_BELOW:
        return [row >> (b * i) for row in _direct_rows(elements, i, b)]
    column, slot = _support_columns(elements, i, f)[-1], (1 << f) - 1
    # F[0][i] = 0, and F[t][i] sits in slot t-1
    tops = [0, *(column >> (f * t) & slot for t in range(i - 1))]
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
    return _recurrence(roots.elements, i)[i] if i <= roots.n else 0


# e_i by each route, for `compute --method` and `bench --methods`.  Every
# entry looks its route up when called, so a patched module attribute sees
# each call.
METHODS: dict[str, Callable[[RootSet, int], int]] = {
    "direct": lambda roots, i: esp_direct(roots, i),
    "dp": lambda roots, i: _esp_dp(roots, i),
    "extraction": lambda roots, i: esp_extraction(roots, i)[0],
}


def esp_compare(roots: RootSet, i: int) -> dict[str, int]:
    """Run every method of METHODS once on the same input and return
    {method: value}; callers compare the values for agreement."""
    if not 1 <= i <= roots.n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={roots.n}")
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
    _, b = _slot_widths(elements, top)
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

