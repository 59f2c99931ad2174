"""Time the sieve of symex.esp and verify's critical path on fixed probes.

    python3 tools/route_grid.py --src ../parent/src --out parent.json
    python3 tools/route_grid.py --reps 3 --out change.json

It times whole per-order sieves (esp.esp_extraction, which builds no
per-subset detail; on older trees that still take explain_limit it
defaults to 0 from 5cf8063 on) on a few fixed wide inputs and one narrow
one whose route the rule on b * n moved, whole triangles
(list(esp.specialize(...)), so a tree whose specialize returns a list does
the same work) for a few row counts, and the three sweeps of verify's equivalence suite, the critical path of
`verify --suite all` (equivalence_exhaustive, and equivalence_random and
loworder_forms each on a fresh rng seeded EQUIVALENCE_SEED).  Each probe
keeps the best of --reps timed batches, at least 1, and the run stores a
`probes` section in --out, keeping its other sections; a sweep that fails
stops the run.  With --src it imports symex from another checkout's src/,
so an older tree can be timed on the same probes: run once per tree for
parent against change.  Only the standard library is used; nothing under
src/ is written.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# symex.esp, imported by main() from --src
esp = None

TRIANGLE_PROBES = (("pascal", 100), ("pascal", 150), ("stirling1", 50), ("stirling1", 70))
EQUIVALENCE_SEED = 42


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
        # b * i < 496 <= b * n, b a table's width up to slot i: support
        # columns since the route rule reads b * n, a direct fill before
        ("18 random 8-bit roots, i=5", tuple(rng.randrange(1 << 7, 1 << 8) for _ in range(18)), 5),
    ]


def time_probes(reps: int) -> list[dict]:
    from symex.rootset import RootSet

    runs = [(name, partial(esp.esp_extraction, RootSet(elements), i)) for name, elements, i in probe_cells()]
    runs += [(f"specialize {family} {rows}", partial(triangle, family, rows)) for family, rows in TRIANGLE_PROBES]
    runs += equivalence_runs()
    probes = []
    for name, run in runs:
        best = min(best_call_s(run) for _ in range(reps))
        probes.append({"probe": name, "best_ms": round(best * 1e3, 2)})
        print(name, probes[-1]["best_ms"], "ms", flush=True)
    return probes


def triangle(family: str, rows: int) -> list[list[int]]:
    return list(esp.specialize(family, rows))


def equivalence_runs() -> list[tuple[str, partial]]:
    from symex import verify

    sweeps = [
        ("equivalence_exhaustive", verify.equivalence_exhaustive),
        (f"equivalence_random seed {EQUIVALENCE_SEED}", lambda: verify.equivalence_random(random.Random(EQUIVALENCE_SEED))),
        (f"loworder_forms seed {EQUIVALENCE_SEED}", lambda: verify.loworder_forms(random.Random(EQUIVALENCE_SEED))),
    ]
    return [(name, partial(passing, name, sweep)) for name, sweep in sweeps]


def passing(name: str, sweep) -> None:
    failures = sweep().failures()
    if failures:
        raise SystemExit(f"{name} failed: {failures[0]}")


def best_call_s(run) -> float:
    start = time.perf_counter()
    run()
    once = time.perf_counter() - start
    number = max(1, int(0.01 / max(once, 1e-7)))
    best = once
    for _ in range(1 if once < 0.5 else 2):
        start = time.perf_counter()
        for _ in range(number):
            run()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5, help="timed batches per probe")
    parser.add_argument("--out", type=Path, required=True, help="JSON file whose probes section is written (other sections are kept)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import symex from")
    args = parser.parse_args(argv)
    if args.reps < 1:
        # each probe keeps the best of its batches, so it needs one
        parser.error(f"--reps must be at least 1, got {args.reps}")
    global esp
    sys.path.insert(0, str(args.src.resolve()))
    from symex import esp

    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document["probes"] = {"src": str(args.src), "reps": args.reps, "probes": time_probes(args.reps)}
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
