"""Time the three support-row routes of symex.esp alone, cell by cell.

    python3 tools/route_grid.py --seed 13
    python3 tools/route_grid.py --seed 13 --reps 3 --out /tmp/grid.json
    python3 tools/route_grid.py --probes --src ../parent/src --out /tmp/parent.json

For every cell (elements, top) of the grid below, each route of
esp._support_rows runs alone on the slot width b = bitlen(C(N, min(top, N//2)))
that esp._bracket_totals packs in: _packed_rows and _listed_rows in b-bit
slots, _newton_rows in the wider slots _support_rows gives it, and only where
_support_rows may take it (every root at least top).  Routes are timed in
interleaved batches of about 10 ms, best per-call time of --reps batches.

Cells:
* the fit grid of BENCH_13's `layer` section, drawn from --seed: n in
  (4, 6, 8, 12, 16, 20, 24, 30, 36) x root width in (1, 3, 8, 20, 40, 80,
  160, 320, 500) bits x top = max(2, round(f*n)) for f in (0.3, 0.6, 1.0);
  each cell draws one kind: random roots of that width, one repeated value
  2^width - 1, or half roots of that width and half in 1..3;
* the support rows of two rounds of perfbench's sieve_compact workload at
  workload seed 7 (560 cells, n 14..18, top = i in 2..n-1, widths 1..40).

A route predicted (esp._kernel_costs) above --skip-s seconds is not timed.

The report holds, per route, observed over predicted time; the summed route
times for fixed choices, for esp's choice and for a per-cell oracle; the
Newton-over-packed time of eligible cells by b * top, which places the
guard esp._NEWTON_ABOVE; and the cost of the pricing in esp._support_rows
(esp._listed_is_cheaper) per call, against the time of the sieve_compact ops
whose rows it prices.  It is printed, and
stored as the `layer` section of --out (other sections are kept).

--probes times whole per-order sieves (esp.esp_extraction with no detail)
on a few fixed wide inputs instead, best of --reps calls each, and stores a
`probes` section.  With --src it imports symex from another checkout's src/,
so an older tree can be timed on the same probes.

Only the standard library is used; nothing under src/ is written.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import random
import statistics
import sys
import time
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import rounds  # noqa: E402

# symex.cli and symex.esp, imported by main() from --src
cli = esp = None

ROUTES = ("packed", "listed", "newton")
GRID_N = (4, 6, 8, 12, 16, 20, 24, 30, 36)
GRID_WIDTHS = (1, 3, 8, 20, 40, 80, 160, 320, 500)
GRID_FRACTIONS = (0.3, 0.6, 1.0)
AREA_BINS = (0, 250, 500, 750, 1000, 1500, 2000, 3000, 5000)


def probe_cells() -> list[tuple[str, tuple[int, ...], int]]:
    rng = random.Random(17)
    return [
        ("12 x (10^400-1), i=12", (10**400 - 1,) * 12, 12),
        ("18 random 400-digit roots, i=17", tuple(rng.randrange(10**399, 10**400) for _ in range(18)), 17),
        ("200 roots <= 9, i=100", tuple(rng.randint(1, 9) for _ in range(200)), 100),
        ("((1<<60)-1) x 30, i=29", ((1 << 60) - 1,) * 30, 29),
        ("40 x (2^500-1), i=20", ((1 << 500) - 1,) * 40, 20),
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
    runs = {"packed": (esp._packed_rows, b), "listed": (esp._listed_rows, b)}
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


def time_cell(elements: tuple[int, ...], top: int, reps: int, skip_s: float) -> dict:
    b = width(elements, top)
    predicted = dict(zip(ROUTES, esp._kernel_costs(len(elements), top, b, [min(m, top) for m in set(elements)])))
    runs = kernels(elements, top, b)
    observed = {}
    # one batch of each route in turn, reps times, so drift hits every route alike
    for _ in range(reps):
        for route, (run, slots) in runs.items():
            if predicted[route] * 1e-9 > skip_s:
                continue
            observed[route] = min(observed.get(route, float("inf")), best_call_s(run, (elements, top, slots), 1))
    return {"b": b, "predicted_s": {r: predicted[r] * 1e-9 for r in runs}, "observed_s": observed}


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


def quantiles(values: list[float]) -> dict:
    values = sorted(values)
    if not values:
        return {}
    pick = lambda q: values[min(len(values) - 1, int(q * len(values)))]  # noqa: E731
    return {
        "p10": round(pick(0.1), 3),
        "median": round(statistics.median(values), 3),
        "p90": round(pick(0.9), 3),
        "min": round(values[0], 3),
        "max": round(values[-1], 3),
        "p90_over_p10": round(pick(0.9) / pick(0.1), 2),
    }


def summarize(rows: list[dict]) -> dict:
    ratios = {route: [] for route in ROUTES}
    totals = {"all_packed": 0.0, "chosen": 0.0, "per_cell_oracle": 0.0}
    chosen_is_winner = 0
    for row in rows:
        observed, predicted = row["observed_s"], row["predicted_s"]
        for route, seconds in observed.items():
            ratios[route].append(seconds / predicted[route])
        best = min(observed, key=observed.get)
        totals["all_packed"] += observed.get("packed", 0.0)
        totals["chosen"] += observed.get(row["chosen"], 0.0)
        totals["per_cell_oracle"] += observed[best]
        chosen_is_winner += row["chosen"] == best
    return {
        "cells": len(rows),
        "observed_over_predicted": {route: quantiles(values) for route, values in ratios.items()},
        "route_ms": {key: round(value * 1e3, 1) for key, value in totals.items()},
        "chosen": {route: sum(row["chosen"] == route for row in rows) for route in ROUTES},
        "chosen_is_winner": chosen_is_winner,
    }


def guard_bins(rows: list[dict]) -> list[dict]:
    """Newton over packed, by b * top, over the cells where Newton may run."""
    bins = []
    for low, high in zip(AREA_BINS, AREA_BINS[1:]):
        cells = [row for row in rows if low <= row["b"] * row["top"] < high and "newton" in row["observed_s"]]
        cells = [row for row in cells if "packed" in row["observed_s"]]
        if not cells:
            continue
        newton = sum(row["observed_s"]["newton"] for row in cells)
        packed = sum(row["observed_s"]["packed"] for row in cells)
        bins.append({
            "b_times_top": [low, high],
            "cells": len(cells),
            "newton_over_packed": round(newton / packed, 3),
            "newton_slower_cells": sum(row["observed_s"]["newton"] > row["observed_s"]["packed"] for row in cells),
            "worst_cell_ratio": round(max(row["observed_s"]["newton"] / row["observed_s"]["packed"] for row in cells), 2),
        })
    return bins


def estimate_cost(reps: int) -> dict:
    """The pricing of esp._support_rows (esp._listed_is_cheaper) per priced call,
    against the time of the sieve_compact ops whose rows it prices; and a
    whole esp._kernel_costs call, which prices all three routes, beside it."""
    stream = rounds("sieve_compact", 7)
    ops = next(stream) + next(stream)
    priced = []
    for op in ops:
        elements, i = op.params["roots"], op.params["i"]
        b = width(elements, i)
        if b * i >= esp._PACKED_BELOW:
            priced.append((op.argv, (len(elements), i, b, [min(m, i) for m in set(elements)], min(elements) >= i)))
    calls = [call for _, call in priced]
    per_call = min(best_call_s(lambda: [esp._listed_is_cheaper(*c) for c in calls], (), reps) for _ in range(3)) / max(1, len(calls))
    all_three = min(best_call_s(lambda: [esp._kernel_costs(*c[:4]) for c in calls], (), reps) for _ in range(3)) / max(1, len(calls))
    op_times = []
    sink = io.StringIO()
    for argv, _ in priced:
        with redirect_stdout(sink):
            op_times.append(best_call_s(cli.main, (list(argv),), reps))
        sink.seek(0)
        sink.truncate()
    median_op = statistics.median(op_times) if op_times else 0.0
    return {
        "ops": len(ops),
        "priced_ops": len(priced),
        "per_priced_call_us": round(per_call * 1e6, 2),
        "kernel_costs_call_us": round(all_three * 1e6, 2),
        "median_priced_op_us": round(median_op * 1e6, 1),
        "share_of_median_priced_op": round(per_call / median_op, 4) if median_op else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=13, help="seed of the fit grid's roots")
    parser.add_argument("--reps", type=int, default=5, help="timed batches per route and cell")
    parser.add_argument("--skip-s", type=float, default=0.4, help="leave out routes predicted slower than this")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_16.json", help="JSON file whose section is written")
    parser.add_argument("--probes", action="store_true", help="time the fixed probes instead of the grid")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import symex from")
    args = parser.parse_args(argv)
    global cli, esp
    sys.path.insert(0, str(args.src.resolve()))
    from symex import cli, esp

    if args.probes:
        document = json.loads(args.out.read_text()) if args.out.exists() else {}
        document["probes"] = {"src": str(args.src), "reps": args.reps, "probes": time_probes(args.reps)}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        return 0

    rows = []
    started = time.perf_counter()
    for source, elements, top in grid_cells(args.seed) + sieve_cells():
        cell = time_cell(elements, top, args.reps, args.skip_s)
        if not cell["observed_s"]:
            continue
        cell.update(source=source, n=len(elements), top=top, max_bits=max(elements).bit_length(),
                    full=min(elements) >= top, chosen=chosen_route(elements, top, cell["b"]))
        rows.append(cell)
    grid = [row for row in rows if row["source"] != "sieve"]
    sieve = [row for row in rows if row["source"] == "sieve"]
    layer = {
        "what": "each route of esp._support_rows timed alone per cell; esp's choice among them; the Newton guard; the estimate's cost",
        "command": f"python3 tools/route_grid.py --seed {args.seed} --reps {args.reps}",
        "environment": {"python": platform.python_version(), "platform": platform.platform(), "machine": platform.machine()},
        "constants": {
            "newton_above": esp._NEWTON_ABOVE,
            "packed_below": esp._PACKED_BELOW,
            "packed_ns": list(esp._PACKED_NS),
            "listed_ns": list(esp._LISTED_NS),
            "newton_ns": "packed_ns, on _newton_features",
        },
        "all": summarize(rows),
        "grid": summarize(grid),
        "sieve": summarize(sieve),
        "priced": summarize([row for row in rows if row["b"] * row["top"] >= esp._PACKED_BELOW]),
        "newton_guard": guard_bins(rows),
        "estimate": estimate_cost(args.reps),
        "seconds": round(time.perf_counter() - started, 1),
        "cells_columns": ["source", "n", "top", "max_bits", "b", "full", "chosen", "packed_us", "listed_us", "newton_us"],
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
