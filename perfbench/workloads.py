"""Seeded inputs for the three workloads, and the output checks for every op.

An op is one `symex` command line.  Each workload is an endless stream of
rounds; the same (workload, seed) always gives the same stream.  Rounds
are balanced so that runs on different seeds do nearly the same work:

* sieve_compact: a round is `compute --json` four times on every (n, i)
  cell with n in 14..18 and i in 2..n-1, in seeded order.  The four draw
  their root bit width from each quarter of 1..40 in turn, so the width
  is uniform in 1..40 yet every round holds the same mix of costs; roots
  are uniform in 1..2^width - 1.
* cli_interactive: a round is 20 short commands with n <= 12 in seeded
  order: 4 `compute --explain`, 4 `compute --json`, 2 each of
  `compute --method all|direct|dp`, 3 `coeffs` and 3 `specialize`.
* verify_all: a round is one `verify --suite all --seed s`.

Every check compares against `oracle`, never against symex itself.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable, Iterator

from oracle import esp_reference, sieve_weight, triangle_row

WORKLOADS = ("sieve_compact", "cli_interactive", "verify_all")

# Ops a traced run replays from the start of the stream: a few seconds of work.
TRACE_OPS = {"sieve_compact": 70, "cli_interactive": 1000, "verify_all": 2}

SIEVE_N = range(14, 19)
SIEVE_WIDTH_QUARTERS = ((1, 10), (11, 20), (21, 30), (31, 40))
CLI_MAX_N = 12
CLI_MAX_WIDTH = 20
VERIFY_SUITE_CHECKS = {
    "equivalence": 3, "convolution": 3, "vandermonde": 1, "gf": 2, "layers": 3, "multiplicity": 1, "all": 13,
}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    # Input properties summarised per run, to show the workload did not drift.
    tags: tuple[tuple[str, object], ...] = ()


def _roots(rng: random.Random, n: int, width: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, 1 << width) if width > 1 else 1 for _ in range(n))


def compute_op(kind: str, roots: tuple[int, ...], i: int, *extra: str, tags=()) -> Op:
    argv = ("compute", "--roots", ",".join(map(str, roots)), "--i", str(i)) + extra
    return Op(kind, argv, {"roots": roots, "i": i, "json": "--json" in extra}, tags)


def coeffs_op(n: int, i: int, h_max: int | None, as_json: bool) -> Op:
    argv = ("coeffs", "--n", str(n), "--i", str(i))
    argv += ("--h-max", str(h_max)) if h_max is not None else ()
    argv += ("--json",) if as_json else ()
    params = {"n": n, "i": i, "h_max": i if h_max is None else h_max, "json": as_json}
    return Op("coeffs", argv, params, (("kind", "coeffs"), ("n", n)))


def specialize_op(family: str, rows: int, as_json: bool) -> Op:
    argv = ("specialize", "--family", family, "--rows", str(rows)) + (("--json",) if as_json else ())
    return Op("specialize", argv, {"family": family, "rows": rows, "json": as_json}, (("kind", f"specialize-{family}"), ("n", rows)))


def verify_op(suite: str, seed: int) -> Op:
    return Op("verify", ("verify", "--suite", suite, "--seed", str(seed)), {"suite": suite}, (("suite", suite),))


def _sieve_rounds(rng: random.Random) -> Iterator[list[Op]]:
    cells = [(n, i, quarter) for n in SIEVE_N for i in range(2, n) for quarter in SIEVE_WIDTH_QUARTERS]
    while True:
        rng.shuffle(cells)
        ops = []
        for n, i, quarter in cells:
            width = rng.randint(*quarter)
            tags = (("n", n), ("i", i), ("width", width))
            ops.append(compute_op("compute-json", _roots(rng, n, width), i, "--json", tags=tags))
        yield ops


def _cli_rounds(rng: random.Random) -> Iterator[list[Op]]:
    def roots_and_order() -> tuple[tuple[int, ...], int]:
        n = rng.randint(2, CLI_MAX_N)
        return _roots(rng, n, rng.randint(1, CLI_MAX_WIDTH)), rng.randint(1, n)

    while True:
        ops = []
        for _ in range(4):
            roots, i = roots_and_order()
            ops.append(compute_op("compute-explain", roots, i, "--explain", tags=(("kind", "compute-explain"), ("n", len(roots)))))
        for _ in range(4):
            roots, i = roots_and_order()
            ops.append(compute_op("compute-json", roots, i, "--json", tags=(("kind", "compute-json"), ("n", len(roots)))))
        for method in ("all", "direct", "dp"):
            for _ in range(2):
                roots, i = roots_and_order()
                extra = ("--method", method) + (("--json",) if rng.random() < 0.5 else ())
                tags = (("kind", f"compute-{method}"), ("n", len(roots)))
                ops.append(compute_op("compute-method", roots, i, *extra, tags=tags))
        for _ in range(3):
            n = rng.randint(1, CLI_MAX_N)
            h_max = rng.randint(1, CLI_MAX_N) if rng.random() < 0.5 else None
            ops.append(coeffs_op(n, rng.randint(1, n), h_max, rng.random() < 0.5))
        for _ in range(3):
            family = rng.choice(("pascal", "stirling1"))
            ops.append(specialize_op(family, rng.randint(1, CLI_MAX_N), rng.random() < 0.5))
        rng.shuffle(ops)
        yield ops


def _verify_rounds(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        yield [verify_op("all", rng.randrange(2**31))]


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's op stream for this seed, one balanced round at a time."""
    make = {"sieve_compact": _sieve_rounds, "cli_interactive": _cli_rounds, "verify_all": _verify_rounds}[workload]
    return make(random.Random(f"{workload}:{seed}"))


def trace_ops(workload: str, seed: int) -> list[Op]:
    """The fixed op list a traced run replays: the start of the stream."""
    ops: list[Op] = []
    for round_ops in rounds(workload, seed):
        ops.extend(round_ops)
        if len(ops) >= TRACE_OPS[workload]:
            return ops[: TRACE_OPS[workload]]
    raise AssertionError("op streams are endless")


def warmup_ops(workload: str) -> list[Op]:
    """Fixed small ops that load every code path a workload's ops take."""
    roots = (3, 1, 4, 1, 5, 9, 2, 6)
    if workload == "sieve_compact":
        return [compute_op("compute-json", roots + (5, 3, 5, 8, 9, 7), 7, "--json")]
    if workload == "cli_interactive":
        return [
            compute_op("compute-explain", roots, 4, "--explain"),
            compute_op("compute-json", roots, 4, "--json"),
            compute_op("compute-method", roots, 4, "--method", "all", "--json"),
            compute_op("compute-method", roots, 4, "--method", "direct"),
            compute_op("compute-method", roots, 4, "--method", "dp"),
            coeffs_op(8, 4, None, True),
            coeffs_op(8, 4, 6, False),
            specialize_op("pascal", 6, True),
            specialize_op("stirling1", 6, False),
        ]
    return [verify_op("gf", 1), verify_op("multiplicity", 1)]


def summarize(ops: Iterable[Op], histograms: dict[str, Counter] | None = None) -> dict[str, Counter]:
    """Add every input tag of the ops (n, i, width, kind, ...) to per-tag histograms."""
    histograms = {} if histograms is None else histograms
    for op in ops:
        for name, value in op.tags:
            histograms.setdefault(name, Counter())[value] += 1
    return histograms


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _check_breakdown(roots, i, value, head, terms) -> str | None:
    n = len(roots)
    if head != comb(sum(roots), i):
        return f"head {head} != C({sum(roots)},{i})"
    if [h for h, _, _ in terms] != list(range(1, i)):
        return "bracket orders are not 1..i-1"
    for h, weight, _ in terms:
        if weight != -sieve_weight(n, i, h):
            return f"weight at h={h} is {weight}, want {-sieve_weight(n, i, h)}"
    if head + sum(weight * total for _, weight, total in terms) != value:
        return "head + weighted brackets != value"
    return None


def _check_compute_json(op: Op, out: str) -> str | None:
    roots, i = op.params["roots"], op.params["i"]
    payload = json.loads(out)
    value, want = int(payload["value"]), esp_reference(roots)[i]
    if value != want:
        return f"value {value} != {want}"
    breakdown = payload["breakdown"]
    terms = [(t["h"], int(t["weight"]), int(t["bracket_total"])) for t in breakdown["terms"]]
    return _check_breakdown(roots, i, value, int(breakdown["head"]), terms)


def _check_compute_explain(op: Op, out: str) -> str | None:
    roots, i = op.params["roots"], op.params["i"]
    lines = out.splitlines()
    value, want = int(lines[0]), esp_reference(roots)[i]
    if value != want:
        return f"value {value} != {want}"
    head = int(lines[1].split(" = ")[1])
    terms: list[list[int]] = []
    detail_sums: list[int] = []
    for line in lines[2:-1]:
        if line.startswith("h="):
            _, _, weight, _, total = line.split()
            terms.append([int(line.split()[0][2:]), int(weight), int(total)])
            detail_sums.append(0)
        elif line.startswith("  {"):
            label, subset_sum, binomial = line.split()
            indices = [int(j) for j in label.strip("{}").split(",")]
            s = int(subset_sum[len("sum="):])
            if s != sum(roots[j - 1] for j in indices):
                return f"subset sum wrong on {line.strip()!r}"
            if int(binomial.split("=")[1]) != comb(s, i):
                return f"subset binomial wrong on {line.strip()!r}"
            detail_sums[-1] += comb(s, i)
    if len(roots) <= 12 and [t[2] for t in terms] != detail_sums:
        return "per-subset detail does not add up to the bracket totals"
    if lines[-1] != f"total {value}":
        return f"last line {lines[-1]!r} != 'total {value}'"
    return _check_breakdown(roots, i, value, head, [tuple(t) for t in terms])


def _check_compute_method(op: Op, out: str) -> str | None:
    want = esp_reference(op.params["roots"])[op.params["i"]]
    if op.params["json"]:
        payload = json.loads(out)
        values = [payload["value"], *payload.get("values", {}).values()]
        if payload.get("agree", True) is not True:
            return "methods disagree"
    else:
        lines = out.splitlines()
        values = [line.split()[-1] for line in lines if not line.startswith("agree")]
        if len(lines) > 1 and lines[-1] != "agree yes":
            return "methods disagree"
    # `--method all` prints the three methods' values (and, in JSON, the value).
    expected = (4 if op.params["json"] else 3) if "all" in op.argv else 1
    if len(values) != expected or any(int(v) != want for v in values):
        return f"values {values} != {want}"
    return None


def _check_coeffs(op: Op, out: str) -> str | None:
    n, i, h_max = op.params["n"], op.params["i"], op.params["h_max"]
    if op.params["json"]:
        payload = json.loads(out)
        if (payload["n"], payload["i"], payload["consistent"]) != (n, i, True):
            return "header or consistency flag wrong"
        rows = [(r["h"], int(r["recurrence"]), int(r["closed"]), int(r["convolution"])) for r in payload["rows"]]
    else:
        lines = out.splitlines()
        if lines[:2] != [f"n={n} i={i}", "h recurrence closed convolution"]:
            return "header lines wrong"
        rows = [tuple(int(v) for v in line.split()) for line in lines[2:]]
    want = [(h, sieve_weight(n, i, h), sieve_weight(n, i, h), 1) for h in range(1, h_max + 1)]
    if rows != want:
        return f"coefficient rows {rows} != {want}"
    return None


def _check_specialize(op: Op, out: str) -> str | None:
    family, count = op.params["family"], op.params["rows"]
    if op.params["json"]:
        payload = json.loads(out)
        if payload["family"] != family:
            return "family wrong"
        rows = [[int(v) for v in row] for row in payload["rows"]]
    else:
        rows = [[int(v) for v in line.split()] for line in out.splitlines()]
    if rows != [triangle_row(family, n) for n in range(1, count + 1)]:
        return f"{family} triangle rows wrong"
    return None


def _check_verify(op: Op, out: str) -> str | None:
    suite = op.params["suite"]
    lines = out.splitlines()
    if not lines[0].startswith(f"verify suite={suite} seed="):
        return "header line wrong"
    failed = [line for line in lines[1:-1] if not line.startswith("PASS ")]
    if failed:
        return f"check lines not PASS: {failed}"
    count = VERIFY_SUITE_CHECKS[suite]
    if len(lines) != count + 2 or lines[-1] != f"result: PASS ({count}/{count} checks)":
        return f"want {count} PASS lines and a PASS result, got {lines[-1]!r}"
    return None


CHECKERS: dict[str, Callable[[Op, str], str | None]] = {
    "compute-json": _check_compute_json,
    "compute-explain": _check_compute_explain,
    "compute-method": _check_compute_method,
    "coeffs": _check_coeffs,
    "specialize": _check_specialize,
    "verify": _check_verify,
}


def check(op: Op, exit_code: int | None, out: str) -> str | None:
    """None when the op exited 0 and printed the right answer, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return CHECKERS[op.kind](op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def printed_detail_lines(op: Op, out: str) -> int:
    """Per-subset detail lines an op printed (only `--explain` prints them)."""
    if op.kind != "compute-explain":
        return 0
    return sum(1 for line in out.splitlines() if line.startswith("  {"))
