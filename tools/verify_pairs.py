"""Time `verify --suite all` on this tree against another, in alternating pairs.

    python3 tools/verify_pairs.py --src ../parent/src --out pairs.json [--runs 10] [--allow-output-change]

--runs is at least 2, since each side's summary takes quartiles; below
that the script refuses with a usage error (exit 2) before any timing.

Each pair runs both trees at one seed (1801, 1802, ... by pair).  Within a
pair the trees take turns run by run, in the order ABBA..., and pairs
alternate which tree goes first, so a slow phase of a shared machine falls
on both.  A pair times two things per tree:
- cold: the median wall time, start to exit, of COLD runs of
  `python -m symex verify --suite all --seed <s>`, each in a fresh
  interpreter;
- in process: the median of INNER calls of `verify.run_suites` for that
  seed, each timed with `perf_counter` in a long-lived interpreter per tree
  that imported symex from the tree and warmed up with one call.  No
  calibration kernel or timer runs beside it, so the times are raw wall
  times.  At the end that interpreter reports its peak RSS (RUSAGE_SELF)
  and the largest peak RSS of the children it forked (RUSAGE_CHILDREN).
Exit code, stdout and stderr must match over every cold run of a pair, or
the script stops.  With --allow-output-change the two trees' outputs may
differ, as across a recorded change to `verify`'s output: each tree's cold
runs must still match each other, and the trees' exit codes and numbers of
PASS/FAIL checks must match; the section then records `byte_identical:
false` and each pair of lines that differ.  Before it stops, the
script closes both timing interpreters.  The results go to the
`verify_pairs` section of --out, which keeps its other sections.  Stdlib
only; not part of the test suite.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

THIS = Path(__file__).resolve().parent.parent / "src"
FIRST_SEED = 1801
COLD = 6
INNER = 10
SERVER = """
import json, random, resource, sys, time
sys.path.insert(0, sys.argv[1])
from symex import verify
assert verify.__file__.startswith(sys.argv[1]), verify.__file__
names = list(verify.SUITES)
verify.run_suites(names, random.Random(0), 30)
print("ready", flush=True)
for line in sys.stdin:
    start = time.perf_counter()
    verify.run_suites(names, random.Random(int(line)), 30)
    print((time.perf_counter() - start) * 1e3, flush=True)
print(json.dumps({
    "self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
}), flush=True)
"""


def cold(src: Path, seed: int) -> tuple[float, tuple]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "symex", "verify", "--suite", "all", "--seed", str(seed)]
    start = time.perf_counter()
    result = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    return (time.perf_counter() - start) * 1e3, (result.returncode, result.stdout, result.stderr)


class Server:
    """A long-lived interpreter that times one run_suites call per request."""

    def __init__(self, src: Path) -> None:
        argv = [sys.executable, "-c", SERVER, str(src)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            raise SystemExit(f"{src}: the timing interpreter did not start")

    def time_ms(self, seed: int) -> float:
        self.proc.stdin.write(f"{seed}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> dict:
        self.proc.stdin.close()
        rusage = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=60)
        return rusage


def checks(stdout: bytes) -> int:
    return sum(line.startswith((b"PASS ", b"FAIL ")) for line in stdout.splitlines())


def differing_lines(seed: int, outputs: dict[str, set], allow_change: bool) -> list[dict[str, str | None]]:
    """The lines of stdout, then of stderr, in which the two trees' cold runs
    at `seed` differ, position by position; stops the script unless the
    outputs may differ so."""
    if any(len(runs) != 1 for runs in outputs.values()):
        raise SystemExit(f"seed {seed}: a tree's cold verify outputs differ from each other")
    (this,), (other,) = outputs["this"], outputs["other"]
    if this != other and not allow_change:
        raise SystemExit(f"seed {seed}: the verify outputs differ")
    if this[0] != other[0] or checks(this[1]) != checks(other[1]):
        raise SystemExit(f"seed {seed}: the exit codes or check counts differ")
    return [
        {"this": mine, "other": theirs}
        for stream in (1, 2)
        for mine, theirs in zip_longest(this[stream].decode().splitlines(), other[stream].decode().splitlines())
        if mine != theirs
    ]


def turns(order: list[str], count: int) -> list[str]:
    """count turns of each tree, in the order ABBA..."""
    return [tree for turn in range(count) for tree in (order if turn % 2 == 0 else order[::-1])]


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(this: list[float], other: list[float]) -> dict:
    """Both sides' runs, the other tree's median over this tree's, and the pairs this tree was faster in."""
    return {
        "this": summary(this),
        "other": summary(other),
        "speedup": statistics.median(other) / statistics.median(this),
        "this_faster_in": sum(mine < theirs for mine, theirs in zip(this, other)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the src/ directory of the tree to compare against")
    parser.add_argument("--runs", type=int, default=10, help="pairs to run")
    parser.add_argument("--out", type=Path, required=True, help="JSON file whose verify_pairs section is written")
    parser.add_argument("--allow-output-change", action="store_true",
                        help="time the trees even where their verify outputs differ, if exit codes and check counts agree")
    args = parser.parse_args()
    if args.runs < 2:
        # the quartiles of each side's summary need two pairs at least
        parser.error(f"--runs must be at least 2, got {args.runs}")
    trees = {"this": THIS, "other": args.src.resolve()}
    servers = {tree: Server(src) for tree, src in trees.items()}
    cold_ms = {tree: [] for tree in trees}
    run_suites_ms = {tree: [] for tree in trees}
    first, differing, identical = [], [], True
    try:
        for pair in range(args.runs):
            seed = FIRST_SEED + pair
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            first.append(order[0])
            elapsed, outputs = {tree: [] for tree in trees}, {tree: set() for tree in trees}
            for tree in turns(order, COLD):
                ms, output = cold(trees[tree], seed)
                elapsed[tree].append(ms)
                outputs[tree].add(output)
            differing += [line for line in differing_lines(seed, outputs, args.allow_output_change) if line not in differing]
            identical = identical and outputs["this"] == outputs["other"]
            timed = {tree: [] for tree in trees}
            for tree in turns(order, INNER):
                timed[tree].append(servers[tree].time_ms(seed))
            for tree in trees:
                cold_ms[tree].append(statistics.median(elapsed[tree]))
                run_suites_ms[tree].append(statistics.median(timed[tree]))
            print(f"seed {seed}: " + " ".join(f"{tree} {cold_ms[tree][-1]:.0f}/{run_suites_ms[tree][-1]:.0f} ms" for tree in order), flush=True)
    finally:
        rusage = {tree: server.close() for tree, server in servers.items()}
    section = {
        "command": f"python3 tools/verify_pairs.py --src <other>/src --runs {args.runs}"
                   + " --allow-output-change" * args.allow_output_change,
        "environment": {"python": platform.python_version(), "platform": platform.platform(), "nproc": os.cpu_count()},
        "seeds": [FIRST_SEED + pair for pair in range(args.runs)],
        "first_in_pair": first,
        "cold_runs_per_pair": COLD,
        "inner_calls_per_pair": INNER,
        "byte_identical": identical,
        **({} if identical else {"differing_lines": differing}),
        "cold_verify_all_ms": compare(cold_ms["this"], cold_ms["other"]),
        "in_process_run_suites_ms": compare(run_suites_ms["this"], run_suites_ms["other"]),
        "peak_rss_mb": {kind: {tree: rusage[tree][kind] for tree in trees} for kind in ("self_mb", "children_mb")},
    }
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["verify_pairs"] = section
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for key in ("cold_verify_all_ms", "in_process_run_suites_ms"):
        result = section[key]
        print(f"{key}: this {result['this']['median']:.1f}, other {result['other']['median']:.1f}, "
              f"x{result['speedup']:.3f}, this faster in {result['this_faster_in']}/{args.runs}")


if __name__ == "__main__":
    main()
