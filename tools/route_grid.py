"""Time the sieve of symex.esp on fixed probes, or the two routes of its tables.

    python3 tools/route_grid.py --probes --src ../parent/src --out parent.json
    python3 tools/route_grid.py --tables --seed 19 --reps 3 --out tables.json

One of --probes and --tables is required.  --reps, the timed batches per
probe or per route and cell, is at least 1.

--probes times whole per-order sieves (esp.esp_extraction with no detail)
on a few fixed wide inputs, and whole triangles (list(esp.specialize(...)),
so a tree whose specialize returns a list does the same work) for a few
row counts, best of --reps calls each, and stores a `probes` section.  With
--src it imports symex from another checkout's src/, so an older tree can
be timed on the same probes.

--tables times the two routes of esp._bracket_table alone, each forced by
setting esp._DIRECT_BELOW around its batches: the direct fill
(_direct_rows) and the support rows with their conversion.  The cells have
top = n, for n in TABLE_N: the all-ones set, the set 1..n, and one set of
random roots of each width 1..12 bits, drawn from --seed.  Routes are timed
in interleaved batches of about 10 ms, best per-call time of --reps
batches; esp keeps no factor cache, so every timed direct fill builds its
packed factors, as one sieve_compact op does.  The direct-over-support time
by b * top, which places the rule esp._DIRECT_BELOW, is printed and stored
as the `table_grid` section of --out.

Other sections of --out are kept.  Only the standard library is used;
nothing under src/ is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# symex.esp, imported by main() from --src
esp = None

TRIANGLE_PROBES = (("pascal", 100), ("pascal", 150), ("stirling1", 50), ("stirling1", 70))
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

    runs = [(name, partial(esp.esp_extraction, RootSet(elements), i, explain_limit=0)) for name, elements, i in probe_cells()]
    runs += [(f"specialize {family} {rows}", partial(triangle, family, rows)) for family, rows in TRIANGLE_PROBES]
    probes = []
    for name, run in runs:
        best = min(best_call_s(run, (), 1) for _ in range(reps))
        probes.append({"probe": name, "best_ms": round(best * 1e3, 2)})
        print(name, probes[-1]["best_ms"], "ms", flush=True)
    return probes


def triangle(family: str, rows: int) -> list[list[int]]:
    return list(esp.specialize(family, rows))


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
    # the support route packs in wider slots, so the routes are compared slot by slot
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
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--probes", action="store_true", help="time the fixed probes")
    what.add_argument("--tables", action="store_true", help="time the two routes of the all-orders table")
    parser.add_argument("--seed", type=int, default=13, help="seed of the tables' random roots")
    parser.add_argument("--reps", type=int, default=5, help="timed batches per probe, or per route and cell")
    parser.add_argument("--out", type=Path, required=True, help="JSON file whose section is written (other sections are kept)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import symex from")
    args = parser.parse_args(argv)
    if args.reps < 1:
        # each probe and each route keeps the best of its batches, so it needs one
        parser.error(f"--reps must be at least 1, got {args.reps}")
    global esp
    sys.path.insert(0, str(args.src.resolve()))
    from symex import esp

    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.probes:
        document["probes"] = {"src": str(args.src), "reps": args.reps, "probes": time_probes(args.reps)}
    else:
        tables = run_tables(args)
        print(json.dumps({key: value for key, value in tables.items() if key not in ("cells", "cells_columns")}, indent=1))
        document["table_grid"] = tables
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
