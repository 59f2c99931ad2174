"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every comparison is exact; there are no numeric
tolerances anywhere.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import symex
from symex.esp import specialize
from symex.verify import (
    convolution_checks,
    equivalence_exhaustive,
    equivalence_random,
    gf_checks,
    layer_checks,
    loworder_forms,
    multiplicity_check,
    vandermonde_check,
)

SEED = 42


def report(name, failures, detail):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    assert ok, f"{name}: first failures: {failures[:3]}"


def report_checks(criterion, checks):
    """One line per shared verify check, then fail on any failing check."""
    for check in checks:
        print(f"[{'PASS' if check.ok else 'FAIL'}] {criterion}: {check.name} ({check.detail})")
    failed = [(check.name, check.failures()[:3]) for check in checks if not check.ok]
    assert not failed, f"{criterion}: first failures: {failed}"


def test_criterion_1_extraction_equals_direct():
    started = time.perf_counter()
    checks = [equivalence_exhaustive(), equivalence_random(random.Random(SEED))]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.2f}s, budget is 10s"
    report_checks(f"criterion 1 ({elapsed:.2f}s)", checks)


def test_criterion_2_spelled_out_low_orders():
    report_checks("criterion 2", [loworder_forms(random.Random(SEED))])


def test_criterion_3_complete_convolution():
    started = time.perf_counter()
    checks = convolution_checks()
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"convolution sweep took {elapsed:.2f}s, budget is 5s"
    report_checks(f"criterion 3 ({elapsed:.2f}s)", checks)


def test_criterion_4_vandermonde_degeneration():
    report_checks("criterion 4", [vandermonde_check()])


def test_criterion_5_generating_function_verifiers():
    report_checks("criterion 5", gf_checks(30))


def test_criterion_6_multiplicity_lemma():
    report_checks("criterion 6", [multiplicity_check()])


def test_criterion_7_expansion_coefficients_and_layers():
    report_checks("criterion 7", layer_checks())


def test_criterion_8_specialized_triangles():
    failures = []

    # independent oracle: the unsigned recurrence c(n+1, k) = c(n, k-1) + n*c(n, k)
    unsigned = [[1]]
    for n in range(1, 10):
        prev = unsigned[-1]
        row = []
        for k in range(n + 1):
            left = prev[k - 1] if 1 <= k <= n else 0
            right = prev[k] if k <= n - 1 else 0
            row.append(left + (n - 1) * right)
        unsigned.append(row)

    stirling_rows = list(specialize("stirling1", 8))
    for n, row in enumerate(stirling_rows, start=1):
        expected = [unsigned[n + 1][n + 1 - i] for i in range(n + 1)]
        if row != expected:
            failures.append(("stirling1", n, row, expected))

    pascal_rows = list(specialize("pascal", 8))
    for n, row in enumerate(pascal_rows, start=1):
        if row != [math.comb(n, i) for i in range(n + 1)]:
            failures.append(("pascal", n, row))

    report("criterion 8: stirling1 and pascal triangles, rows 1..8", failures, "16 rows")


# The directory this process imports symex from, installed or not, so the
# CLI subprocesses run the same code as the in-process tests.
SYMEX_ROOT = str(Path(symex.__file__).resolve().parents[1])


def run_cli(*argv):
    path = os.pathsep.join(filter(None, (SYMEX_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "symex", *argv],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_9_cli_determinism_and_bench_agreement(serial_verify):
    failures = []

    # A fresh CLI process against the session's one serial in-process run.
    first = run_cli("verify", "--suite", "all", "--seed", "42")
    second_code, second_out, _ = serial_verify("verify", "--suite", "all", "--seed", "42")
    if first.returncode != 0 or second_code != 0:
        failures.append(("verify exit codes", first.returncode, second_code))
    if first.stdout != second_out.encode():
        failures.append(("verify stdout differs between runs",))

    bench = run_cli("bench", "--json")
    if bench.returncode != 0:
        failures.append(("bench exit code", bench.returncode))
    else:
        records = json.loads(bench.stdout)
        for record in records:
            if not record["agree"]:
                failures.append(("bench disagreement", record["n"], record["i"]))
    report(
        "criterion 9: byte-identical verify runs, bench values agree",
        failures,
        f"verify exit {first.returncode}, {len(json.loads(bench.stdout)) if bench.returncode == 0 else 0} bench cells",
    )
