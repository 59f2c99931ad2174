"""Command-line surface: compute, coeffs, verify, bench, specialize.

Results go to stdout, diagnostics to stderr.  Big integers are printed as
decimal strings in JSON to stay exact past 2**53.  Each command checks all
of its arguments before any route or suite runs, so the exit code says who
is at fault: 0 success, 2 usage error, 3 domain error (the sieve asked for
i > n), and 1 a failed verification or any error raised after the checks.
Such an error is a defect, reported on one line `error: <command>:
<type>: <message>`; only the cross-checks' ArithmeticError and a
MemoryError have lines of their own (below).

Every `--json` output is one line whose bytes are those of
`json.dumps(payload)` with its default separators.  `compute` and
`specialize` write that text themselves instead of building the payload:
it holds only fixed ASCII keys, names from esp.METHODS or the family
choices, decimal strings and true/false, so nothing needs escaping.
`specialize` writes each row as it is made; for `compute` the dict and
json.dumps took about 15 us per sieve_compact op against 5 us for the
f-strings, beside a median op of about 0.19 ms (BENCH_30 `json_text`).

`compute --explain` prints the value, then `head C(N,i) = <head>`, then for
each h = 1..i-1 the line `h=<h> weight <w> bracket_total <total>` followed
by the bracket's detail: one line `  {j_1,...,j_s} sum=<sigma_J> C(<sigma_J>,<i>)=<entry>`
per (i-h)-subset J, in lexicographic order of J, or above `--explain-limit` (12)
the line `  (per-subset detail omitted: n > explain limit <limit>)`.  The
last line is `total <e_i>`.  The value, head, weights and bracket totals
come from esp_extraction, the route `--json` takes, which keeps no
per-subset detail: _print_explain is its one renderer.  It writes the text
as it is made, each bracket's detail in chunks of at most _EXPLAIN_CHUNK
lines, whose subset sums, entries math.comb(sigma_J, i) and index labels
come from itertools.combinations in one order.  So memory stays bounded
however long the output is.  Detail and totals thus come from two routes,
and each bracket checks that its entries sum to its printed total: a
mismatch raises ArithmeticError, which exits 1 after the lines already
written.

`specialize` writes each triangle row as it is made, in text and `--json`
alike.  A stirling1 row that disagrees with the recurrence triangle raises
ArithmeticError, which exits 1 after the rows before it are written.

A reader that closes stdout early (`symex ... | head`) ends the command
with exit 1 and no message; the rest of the output goes to os.devnull.
An allocation that fails (MemoryError) ends it with exit 1 and the one
line `error: out of memory` on stderr, after the output already written.

`main(argv)` may be called repeatedly in one process: it builds its parser
on the first call and reuses it.  The parser holds only what is fixed at
import (the method and suite names, the `cmd_*` functions, `_roots_arg`);
each command looks its routes and suites up when it runs, and argparse
sizes its help text to the terminal when it prints.  An argv that starts
with a command name goes straight to that command's subparser, which is
what the full parse would hand it; leftover arguments get the full parse's
own error.  Every other argv takes the full parse.  A process imports only
what its command runs: `verify` imports the verifiers, and `bench` its
timing modules, when they are called.

`verify --suite all` forks once in `verify.run_suites` when the process has
two CPUs and one thread: the suites that never draw from the seeded rng run
in one child.  Reports are merged in suite order and either side's error is
raised where the serial run raises it, so every stdout byte, error message
and exit code is the serial run's, which one CPU still runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import combinations, islice, repeat
from math import comb
from typing import Callable

from .coeffs import coeff_closed_sequence, coeff_recurrence, verify_convolution
from .esp import (
    METHODS,
    ExtractionBreakdown,
    esp_compare,
    esp_extraction,
    specialize,
)
from .rootset import RootSet

# The keys of verify.SUITES, so that parsing needs no verifier.
SUITE_NAMES = ("equivalence", "convolution", "vandermonde", "gf", "layers", "multiplicity")
DEFAULT_SEED = 42
DEFAULT_TRUNCATION = 30
DEFAULT_BENCH_GRID = ((10, 2), (10, 4), (14, 2), (14, 4), (18, 2), (18, 4))
BENCH_REPETITIONS = 3
# Above this root-set size, `compute --explain` prints bracket totals only:
# the number of per-subset lines is C(n, i-h) and blows up.
DEFAULT_EXPLAIN_LIMIT = 12
# Most detail lines --explain renders and writes at once.
_EXPLAIN_CHUNK = 4096


# ---------------------------------------------------------------------------
# commands


def cmd_compute(args: argparse.Namespace) -> int:
    roots: RootSet = args.roots
    i: int = args.i
    if i < 0:
        print("error: --i must be >= 0", file=sys.stderr)
        return 2
    if args.explain_limit < 0:
        print(f"error: --explain-limit must be >= 0, got {args.explain_limit}", file=sys.stderr)
        return 2
    if args.method == "extraction" and i > roots.n:
        print(f"error: order {i} exceeds root set size {roots.n}; use the direct route", file=sys.stderr)
        return 3

    if args.method == "all":
        if not 1 <= i <= roots.n:
            print(f"error: method 'all' needs 1 <= i <= n, got i={i}, n={roots.n}", file=sys.stderr)
            return 3
        values = esp_compare(roots, i)
        agree = len(set(values.values())) == 1
        if args.json:
            by_method = ", ".join([f'"{method}": "{value}"' for method, value in values.items()])
            sys.stdout.write(
                f'{{"value": "{values["direct"]}", "method": "all", "values": {{{by_method}}}, "agree": {"true" if agree else "false"}}}\n'
            )
        else:
            for method, value in values.items():
                print(f"{method} {value}")
            print(f"agree {'yes' if agree else 'no'}")
        return 0 if agree else 1

    if args.explain and not args.json and args.method == "extraction":
        _print_explain(roots, i, args.explain_limit)
        return 0

    breakdown: ExtractionBreakdown | None = None
    if args.method == "extraction":
        value, breakdown = esp_extraction(roots, i)
    else:
        value = METHODS[args.method](roots, i)

    if args.json:
        line = f'{{"value": "{value}", "method": "{args.method}"'
        if breakdown is not None:
            terms = ", ".join(
                [f'{{"h": {t.h}, "weight": "{t.coefficient}", "bracket_total": "{t.bracket_total}"}}' for t in breakdown.terms]
            )
            line += f', "breakdown": {{"head": "{breakdown.head}", "terms": [{terms}]}}'
        sys.stdout.write(line + "}\n")
        return 0
    print(value)
    return 0


def _print_explain(roots: RootSet, i: int, explain_limit: int) -> None:
    """Write the --explain text, each bracket's detail in chunks of at most
    _EXPLAIN_CHUNK lines, and check that each bracket's entries sum to its total."""
    value, breakdown = esp_extraction(roots, i)
    write = sys.stdout.write
    write(f"{value}\nhead C({roots.total},{i}) = {breakdown.head}\n")
    detail, order = roots.n <= explain_limit, str(i)
    names = [str(j) for j in range(1, roots.n + 1)]
    for term in breakdown.terms:
        write(f"h={term.h} weight {term.coefficient} bracket_total {term.bracket_total}\n")
        if not detail:
            write(f"  (per-subset detail omitted: n > explain limit {explain_limit})\n")
            continue
        size, streamed = i - term.h, 0
        labels = map(",".join, combinations(names, size))
        sums = map(sum, combinations(roots.elements, size))
        while chunk_sums := list(islice(sums, _EXPLAIN_CHUNK)):
            entries = list(map(comb, chunk_sums, repeat(i)))
            streamed += sum(entries)
            # Cut the labels to the chunk first: zip would pull one label past its end.
            chunk = zip(islice(labels, len(chunk_sums)), chunk_sums, entries)
            write("".join([f"  {{{label}}} sum={s} C({s},{order})={entry}\n" for label, s, entry in chunk]))
        if streamed != term.bracket_total:
            raise ArithmeticError(
                f"--explain bracket h={term.h}: entries sum to {streamed}, bracket_total is {term.bracket_total}"
            )
    write(f"total {breakdown.total}\n")


def cmd_coeffs(args: argparse.Namespace) -> int:
    n, i = args.n, args.i
    if not 1 <= i <= n:
        print(f"error: need 1 <= i <= n, got i={i}, n={n}", file=sys.stderr)
        return 2
    h_max = args.h_max if args.h_max is not None else i
    if h_max < 1:
        print(f"error: --h-max must be >= 1, got {h_max}", file=sys.stderr)
        return 2

    by_recurrence = coeff_recurrence(n, i, h_max)
    by_closed = coeff_closed_sequence(n, i, h_max)
    convolution = verify_convolution(n, i, by_closed)
    sums = [check.observed for check in convolution.checks]
    rows = zip(range(1, h_max + 1), by_recurrence, by_closed, sums)
    consistent = by_recurrence == by_closed and convolution.ok

    if args.json:
        keyed = [{"h": h, "recurrence": str(r), "closed": str(c), "convolution": str(v)} for h, r, c, v in rows]
        print(json.dumps({"n": n, "i": i, "rows": keyed, "consistent": consistent}))
    else:
        print(f"n={n} i={i}")
        print("h recurrence closed convolution")
        for row in rows:
            print(*row)
    if not consistent:
        print("error: coefficient routes disagree or convolution sum != 1", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.truncation < 1:
        print(f"error: --truncation must be >= 1, got {args.truncation}", file=sys.stderr)
        return 2
    import random

    from .verify import SUITES, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, random.Random(args.seed), args.truncation)
    passed = sum(1 for check in checks if check.ok)
    all_ok = passed == len(checks)

    if args.json:
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "truncation": args.truncation,
            "rng": "mersenne-twister",
            "checks": [{"name": c.name, "passed": c.ok, "detail": c.detail} for c in checks],
            "passed": all_ok,
        }
        print(json.dumps(payload))
    else:
        print(f"verify suite={args.suite} seed={args.seed} truncation={args.truncation} rng=mersenne-twister")
        for check in checks:
            print(f"{'PASS' if check.ok else 'FAIL'} {check.name} ({check.detail})")
        print(f"result: {'PASS' if all_ok else 'FAIL'} ({passed}/{len(checks)} checks)")
    return 0 if all_ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    import random

    # each method once, in the order first named: JSON keys its timings by name
    methods = tuple(dict.fromkeys(part.strip() for part in args.methods.split(",") if part.strip()))
    bad = [m for m in methods if m not in METHODS]
    if bad or not methods:
        print(f"error: unknown methods {bad}; choose from {', '.join(METHODS)}", file=sys.stderr)
        return 2
    if (args.n is None) != (args.i is None):
        print("error: --n and --i must be given together", file=sys.stderr)
        return 2
    if args.n is not None:
        if not 1 <= args.i <= args.n:
            print(f"error: need 1 <= i <= n, got i={args.i}, n={args.n}", file=sys.stderr)
            return 2
        grid = ((args.n, args.i),)
    else:
        grid = DEFAULT_BENCH_GRID

    rng = random.Random(args.seed)
    records = []
    all_agree = True
    for n, i in grid:
        roots = RootSet(tuple(rng.randint(1, 9) for _ in range(n)))
        runs = [(method, *_median_run(METHODS[method], roots, i)) for method in methods]
        agree = len({value for _, value, _ in runs}) == 1
        all_agree = all_agree and agree
        records.append((n, i, roots, runs, agree))

    if args.json:
        payload = [
            {
                "n": n,
                "i": i,
                "roots": list(roots.elements),
                "value": str(runs[0][1]),
                "agree": agree,
                "timings_ms": {method: seconds * 1000.0 for method, _, seconds in runs},
            }
            for n, i, roots, runs, agree in records
        ]
        print(json.dumps(payload))
    else:
        print(f"bench seed={args.seed} methods={','.join(methods)} repetitions={BENCH_REPETITIONS}")
        for n, i, roots, runs, agree in records:
            timings = " ".join(f"{method}={seconds * 1000.0:.3f}ms" for method, _, seconds in runs)
            print(f"n={n} i={i} value={runs[0][1]} agree={'yes' if agree else 'no'} {timings}")
    return 0 if all_agree else 1


def _median_run(run: Callable[[RootSet, int], int], roots: RootSet, i: int) -> tuple[int, float]:
    """The value of one method and the median of its wall times over BENCH_REPETITIONS runs."""
    import statistics
    import time

    elapsed = []
    for _ in range(BENCH_REPETITIONS):
        start = time.perf_counter()
        value = run(roots, i)
        elapsed.append(time.perf_counter() - start)
    return value, statistics.median(elapsed)


def cmd_specialize(args: argparse.Namespace) -> int:
    if args.rows < 1:
        print(f"error: need rows >= 1, got {args.rows}", file=sys.stderr)
        return 2
    triangle = specialize(args.family, args.rows)
    write = sys.stdout.write
    if args.json:
        # json.dumps of the whole payload, written a row at a time; a row's
        # decimal strings need no escaping
        write(f'{{"family": {json.dumps(args.family)}, "rows": [')
        for n, row in enumerate(triangle):
            write((', ["' if n else '["') + '", "'.join(map(str, row)) + '"]')
        write("]}\n")
    else:
        for row in triangle:
            write(" ".join(map(str, row)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _roots_arg(text: str) -> RootSet:
    """RootSet.parse for argparse: a rejection keeps its reason in the usage error."""
    try:
        return RootSet.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and shared by every `main` call, so none may change it."""
    parser = argparse.ArgumentParser(
        prog="symex",
        description="Exact elementary symmetric polynomials via binomial-product extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate e_i of a root set")
    compute.add_argument("--roots", type=_roots_arg, required=True, help="comma-separated positive integers")
    compute.add_argument("--i", type=int, required=True, help="polynomial order")
    compute.add_argument("--method", choices=(*METHODS, "all"), default="extraction")
    compute.add_argument("--explain", action="store_true", help="print the extraction breakdown")
    compute.add_argument("--explain-limit", type=int, default=DEFAULT_EXPLAIN_LIMIT, help="max n with per-subset detail")
    compute.add_argument("--json", action="store_true")
    compute.set_defaults(func=cmd_compute)

    coeffs = sub.add_parser("coeffs", help="sieve coefficients by both routes plus convolution sums")
    coeffs.add_argument("--n", type=int, required=True)
    coeffs.add_argument("--i", type=int, required=True)
    coeffs.add_argument("--h-max", type=int, default=None, help="how many coefficients (default: i)")
    coeffs.add_argument("--json", action="store_true")
    coeffs.set_defaults(func=cmd_coeffs)

    verify = sub.add_parser("verify", help="run an identity-verification suite")
    verify.add_argument("--suite", choices=(*SUITE_NAMES, "all"), required=True)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the randomized checks")
    verify.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION, help="series truncation order")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time the methods against each other on a grid")
    bench.add_argument("--n", type=int, default=None, help="single-cell root set size")
    bench.add_argument("--i", type=int, default=None, help="single-cell order")
    bench.add_argument("--methods", type=str, default="dp,extraction", help="comma-separated method names")
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    special = sub.add_parser("specialize", help="print a number-triangle specialization")
    special.add_argument("--family", choices=("pascal", "stirling1"), required=True)
    special.add_argument("--rows", type=int, required=True)
    special.add_argument("--json", action="store_true")
    special.set_defaults(func=cmd_specialize)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Results and roots are exact integers of any length, in decimal both ways.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # The full parse hands everything after a command name to that command's
    # subparser, with `command` set, so call it directly and skip the root
    # parser's pass.
    commands = next(action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: send what is still buffered to devnull, so
        # that the flush at exit raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Python's MemoryError usually carries no message of its own.
        print("error: out of memory", file=sys.stderr)
        return 1
    except Exception as exc:
        # Every argument was checked before the command ran, so this is a defect.
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def __getattr__(name: str) -> object:
    # `cli.SUITES` is the very dict of verify.SUITES, imported on first use:
    # perfbench's tracer patches its entries in place.
    if name == "SUITES":
        from .verify import SUITES

        return SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    raise SystemExit(main())
