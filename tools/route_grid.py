"""Time the two support-row routes of symex.esp alone, cell by cell.

    python3 tools/route_grid.py --seed 13 --out grid.json
    python3 tools/route_grid.py --probes --src ../parent/src --out parent.json
    python3 tools/route_grid.py --tables --seed 19 --reps 3 --out tables.json

For every cell (elements, top) of the grid below, each route of
esp._support_rows runs alone on the slot width b = bitlen(C(N, min(top, N//2)))
that esp._bracket_totals packs in: _packed_rows in b-bit slots, and
_newton_rows in the wider slots _support_rows gives it, only where
_support_rows may take it (every root at least top).  Routes are timed in
interleaved batches of about 10 ms, best per-call time of --reps batches.
esp._binomial_factor keeps no cache, so every timed call builds its packed
factors, as one sieve_compact op does.

Cells:
* the grid of BENCH_13's `layer` section, drawn from --seed: n in
  (4, 6, 8, 12, 16, 20, 24, 30, 36) x root width in (1, 3, 8, 20, 40, 80,
  160, 320, 500) bits x top = max(2, round(f*n)) for f in (0.3, 0.6, 1.0);
  each cell draws one kind: random roots of that width, one repeated value
  2^width - 1, or half roots of that width and half in 1..3;
* the support rows of two rounds of perfbench's sieve_compact workload at
  workload seed 7 (560 cells, n 14..18, top = i in 2..n-1, widths 1..40).

A cell whose n * b * top exceeds MAX_CELL_BITS is not timed: the packed DP
takes some n * top products of rows up to b * top bits wide, and on the grid
it takes about half a second or more per call above that size.

The report holds the summed route times for fixed choices, for esp's choice
and for a per-cell oracle, and how many cells esp's choice wins.  esp picks
by the roots alone (Newton where every root is at least top), so the report
checks that rule against the per-cell oracle.  It is printed, and stored as
the `layer` section of --out (other sections are kept).

--probes times whole per-order sieves (esp.esp_extraction with no detail)
on a few fixed wide inputs instead, best of --reps calls each, and stores a
`probes` section.  With --src it imports symex from another checkout's src/,
so an older tree can be timed on the same probes.

--tables times the two routes of esp._bracket_table alone instead, each
forced by setting esp._DIRECT_BELOW around its batches: the direct fill
(_direct_rows) and the support rows with their conversion.  The cells have
top = n, for n in TABLE_N: the all-ones set, the set 1..n, and one set of
random roots of each width 1..12 bits, drawn from --seed.  Each timed call
builds its factors, as for the support routes above.  The direct-over-support time
by b * top, which places the rule esp._DIRECT_BELOW, is printed and stored
as the `table_grid` section of --out.

Only the standard library is used; nothing under src/ is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import rounds  # noqa: E402

# symex.esp, imported by main() from --src
esp = None

ROUTES = ("packed", "newton")
MAX_CELL_BITS = 3_000_000
GRID_N = (4, 6, 8, 12, 16, 20, 24, 30, 36)
GRID_WIDTHS = (1, 3, 8, 20, 40, 80, 160, 320, 500)
GRID_FRACTIONS = (0.3, 0.6, 1.0)
TABLE_N = (*range(1, 17), 18, 20, 24, 30)
TABLE_WIDTHS = range(1, 13)
TABLE_BINS = (0, 150, 300, 400, 450, 500, 550, 600, 750, 1000, 1500, 2500, 5000, 10000, 10**9)
# esp._DIRECT_BELOW that forces each route of esp._bracket_table
TABLE_ROUTES = {"direct": float("inf"), "support": 0}


def probe_cells() -> list[tuple[str, tuple[int, ...], int]]:
    rng = random.Random(17)
    return [
        ("12 x (10^400-1), i=12", (10**400 - 1,) * 12, 12),
        ("18 random 400-digit roots, i=17", tuple(rng.randrange(10**399, 10**400) for _ in range(18)), 17),
        ("200 roots <= 9, i=100", tuple(rng.randint(1, 9) for _ in range(200)), 100),
        ("((1<<60)-1) x 30, i=29", ((1 << 60) - 1,) * 30, 29),
        ("40 x (2^500-1), i=20", ((1 << 500) - 1,) * 40, 20),
        ("8 roots 1..3 and 8 random 160-bit roots, i=16",
         tuple(rng.randint(1, 3) for _ in range(8)) + tuple(rng.randrange(1 << 159, 1 << 160) for _ in range(8)), 16),
    ]


def time_probes(reps: int) -> list[dict]:
    from symex.rootset import RootSet

    probes = []
    for name, elements, i in probe_cells():
        roots = RootSet(elements)
        sieve = lambda: esp.esp_extraction(roots, i, explain_limit=0)  # noqa: E731
        best = min(best_call_s(sieve, (), 1) for _ in range(reps))
        probes.append({"probe": name, "best_ms": round(best * 1e3, 2)})
        print(name, probes[-1]["best_ms"], "ms", flush=True)
    return probes


def grid_cells(seed: int) -> list[tuple[str, tuple[int, ...], int]]:
    rng = random.Random(seed)
    cells = []
    for n in GRID_N:
        for width in GRID_WIDTHS:
            for f in GRID_FRACTIONS:
                top = max(2, round(f * n))
                kind = rng.choice(("random", "repeated", "short"))
                if kind == "repeated":
                    elements = ((1 << width) - 1,) * n
                else:
                    elements = [rng.randrange(1 << (width - 1), 1 << width) for _ in range(n)]
                    if kind == "short":
                        elements[: n // 2] = [rng.randint(1, 3) for _ in range(n // 2)]
                    elements = tuple(elements)
                cells.append((f"grid {kind}", elements, top))
    return cells


def sieve_cells() -> list[tuple[str, tuple[int, ...], int]]:
    ops = []
    stream = rounds("sieve_compact", 7)
    for _ in range(2):
        ops.extend(next(stream))
    return [("sieve", op.params["roots"], op.params["i"]) for op in ops]


def width(elements: tuple[int, ...], top: int) -> int:
    total = sum(elements)
    return comb(total, min(top, total // 2)).bit_length()


def kernels(elements: tuple[int, ...], top: int, b: int) -> dict:
    runs = {"packed": (esp._packed_rows, b)}
    if min(elements) >= top:
        runs["newton"] = (esp._newton_rows, b + (top - 1).bit_length())
    return runs


def best_call_s(run, args, reps: int) -> float:
    kernel = lambda: run(*args)  # noqa: E731
    start = time.perf_counter()
    kernel()
    once = time.perf_counter() - start
    number = max(1, int(0.01 / max(once, 1e-7)))
    best = once
    for _ in range(reps if once < 0.5 else 2):
        start = time.perf_counter()
        for _ in range(number):
            kernel()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def time_cell(elements: tuple[int, ...], top: int, reps: int) -> dict:
    b = width(elements, top)
    runs = kernels(elements, top, b)
    observed = {}
    # one batch of each route in turn, reps times, so drift hits every route alike
    for _ in range(reps):
        for route, (run, slots) in runs.items():
            observed[route] = min(observed.get(route, float("inf")), best_call_s(run, (elements, top, slots), 1))
    return {"b": b, "observed_s": observed}


def chosen_route(elements: tuple[int, ...], top: int, b: int) -> str:
    taken = []
    saved = {route: getattr(esp, f"_{route}_rows") for route in ROUTES}
    try:
        for route in ROUTES:
            setattr(esp, f"_{route}_rows", lambda *args, route=route: taken.append(route))
        esp._support_rows(elements, top, b)
    finally:
        for route, run in saved.items():
            setattr(esp, f"_{route}_rows", run)
    return taken[0]


def summarize(rows: list[dict]) -> dict:
    totals = {"all_packed": 0.0, "chosen": 0.0, "per_cell_oracle": 0.0}
    chosen_is_winner = 0
    for row in rows:
        observed = row["observed_s"]
        best = min(observed, key=observed.get)
        totals["all_packed"] += observed["packed"]
        totals["chosen"] += observed[row["chosen"]]
        totals["per_cell_oracle"] += observed[best]
        chosen_is_winner += row["chosen"] == best
    return {
        "cells": len(rows),
        "route_ms": {key: round(value * 1e3, 1) for key, value in totals.items()},
        "chosen": {route: sum(row["chosen"] == route for row in rows) for route in ROUTES},
        "chosen_is_winner": chosen_is_winner,
    }


def table_cells(seed: int) -> list[tuple[str, tuple[int, ...]]]:
    rng = random.Random(seed)
    cells = []
    for n in TABLE_N:
        cells += [("ones", (1,) * n), ("1..n", tuple(range(1, n + 1)))]
        cells += [(f"random {w}-bit", tuple(rng.randrange(1 << (w - 1), 1 << w) for _ in range(n))) for w in TABLE_WIDTHS]
    return cells


def time_table(elements: tuple[int, ...], reps: int) -> dict:
    """Best per-call time of _bracket_table with each route forced, top = n."""
    top, saved, observed = len(elements), esp._DIRECT_BELOW, {}
    try:
        for _ in range(reps):
            for route, below in TABLE_ROUTES.items():
                esp._DIRECT_BELOW = below
                observed[route] = min(observed.get(route, float("inf")), best_call_s(esp._bracket_table, (elements, top), 1))
        tables = {}
        for route, below in TABLE_ROUTES.items():
            esp._DIRECT_BELOW = below
            tables[route] = esp._bracket_table(elements, top)
    finally:
        esp._DIRECT_BELOW = saved
    # the Newton route may widen the slots, so the routes are compared slot by slot
    slots = {route: [[row >> (b * k) & ((1 << b) - 1) for k in range(top + 1)] for row in rows] for route, (rows, b) in tables.items()}
    assert slots["direct"] == slots["support"], elements
    return {"b": tables["direct"][1], "top": top, "observed_s": observed}


def table_bins(rows: list[dict]) -> list[dict]:
    """Direct over support, by b * top."""
    bins = []
    for low, high in zip(TABLE_BINS, TABLE_BINS[1:]):
        cells = [row for row in rows if low <= row["b"] * row["top"] < high]
        if not cells:
            continue
        ratios = [row["observed_s"]["direct"] / row["observed_s"]["support"] for row in cells]
        bins.append({
            "b_times_top": [low, high],
            "cells": len(cells),
            "direct_over_support": round(sum(row["observed_s"]["direct"] for row in cells) / sum(row["observed_s"]["support"] for row in cells), 3),
            "direct_slower_cells": sum(ratio > 1 for ratio in ratios),
            "best_cell_ratio": round(min(ratios), 2),
            "worst_cell_ratio": round(max(ratios), 2),
        })
    return bins


def run_tables(args: argparse.Namespace) -> dict:
    rows = []
    started = time.perf_counter()
    for source, elements in table_cells(args.seed):
        cell = time_table(elements, args.reps)
        cell.update(source=source, n=len(elements))
        rows.append(cell)
    return {
        "what": "each route of esp._bracket_table timed alone per cell (top = n): the direct fill and the support rows with their conversion; the rule _DIRECT_BELOW",
        "command": f"python3 tools/route_grid.py --tables --seed {args.seed} --reps {args.reps}",
        "environment": {"python": platform.python_version(), "platform": platform.platform(), "machine": platform.machine()},
        "constants": {"direct_below": esp._DIRECT_BELOW},
        "route_ms": {route: round(sum(row["observed_s"][route] for row in rows) * 1e3, 2) for route in TABLE_ROUTES},
        "direct_guard": table_bins(rows),
        "seconds": round(time.perf_counter() - started, 1),
        "cells_columns": ["source", "n", "b", "b_times_top", "direct_us", "support_us"],
        "cells": [
            [row["source"], row["n"], row["b"], row["b"] * row["top"]]
            + [round(row["observed_s"][route] * 1e6, 2) for route in TABLE_ROUTES]
            for row in rows
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=13, help="seed of the grid's roots")
    parser.add_argument("--reps", type=int, default=5, help="timed batches per route and cell")
    parser.add_argument("--out", type=Path, required=True, help="JSON file whose section is written (other sections are kept)")
    parser.add_argument("--probes", action="store_true", help="time the fixed probes instead of the grid")
    parser.add_argument("--tables", action="store_true", help="time the two routes of the all-orders table instead of the grid")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import symex from")
    args = parser.parse_args(argv)
    global esp
    sys.path.insert(0, str(args.src.resolve()))
    from symex import esp

    if args.probes:
        document = json.loads(args.out.read_text()) if args.out.exists() else {}
        document["probes"] = {"src": str(args.src), "reps": args.reps, "probes": time_probes(args.reps)}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        return 0
    if args.tables:
        tables = run_tables(args)
        print(json.dumps({key: value for key, value in tables.items() if key not in ("cells", "cells_columns")}, indent=1))
        document = json.loads(args.out.read_text()) if args.out.exists() else {}
        document["table_grid"] = tables
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        return 0

    rows = []
    skipped = 0
    started = time.perf_counter()
    for source, elements, top in grid_cells(args.seed) + sieve_cells():
        if len(elements) * width(elements, top) * top > MAX_CELL_BITS:
            skipped += 1
            continue
        cell = time_cell(elements, top, args.reps)
        cell.update(source=source, n=len(elements), top=top, max_bits=max(elements).bit_length(),
                    full=min(elements) >= top, chosen=chosen_route(elements, top, cell["b"]))
        rows.append(cell)
    grid = [row for row in rows if row["source"] != "sieve"]
    sieve = [row for row in rows if row["source"] == "sieve"]
    layer = {
        "what": "each route of esp._support_rows timed alone per cell; esp's choice between them against the per-cell oracle",
        "command": f"python3 tools/route_grid.py --seed {args.seed} --reps {args.reps}",
        "environment": {"python": platform.python_version(), "platform": platform.platform(), "machine": platform.machine()},
        "constants": {"max_cell_bits": MAX_CELL_BITS},
        "skipped_cells": skipped,
        "all": summarize(rows),
        "grid": summarize(grid),
        "sieve": summarize(sieve),
        "seconds": round(time.perf_counter() - started, 1),
        "cells_columns": ["source", "n", "top", "max_bits", "b", "full", "chosen", "packed_us", "newton_us"],
        "cells": [
            [row["source"], row["n"], row["top"], row["max_bits"], row["b"], row["full"], row["chosen"]]
            + [round(row["observed_s"][r] * 1e6, 1) if r in row["observed_s"] else None for r in ROUTES]
            for row in rows
        ],
    }
    report = {key: value for key, value in layer.items() if key not in ("cells", "cells_columns")}
    print(json.dumps(report, indent=1))
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document["layer"] = layer
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
