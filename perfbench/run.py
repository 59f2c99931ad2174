"""Closed-loop benchmark of the symex command line, one client, in-process.

Each op calls `symex.cli.main(argv)` with stdout captured, so it takes the
path a CLI user takes minus interpreter start, and every output is checked
against an independent oracle.  symex is imported from `src/` of the
checkout this file sits in.

    python3 perfbench/run.py --workload sieve_compact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

`--trace 0` runs whole rounds of the workload for at least `--seconds`
(and at least MIN_OPS ops) and reports the end-to-end metrics.  Their
times are rescaled to a reference machine speed (see `Speed`); the raw
wall times go to the record.
`--trace 1` replays the workload's fixed trace list untraced, then traced,
and reports the per-layer metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
(environment, input histograms, failures, span totals) goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Iterable, Iterator

from tracer import Tracer, symex_modules
from workloads import WORKLOADS, Op, check, printed_detail_lines, rounds, summarize, trace_ops, warmup_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# The tail percentile needs ten samples beyond it, so a run has at least 11.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
SETUP_PROBES = 9
# The calibration kernel takes REFERENCE_KERNEL_S at the reference speed.
KERNEL_STEPS = 250
REFERENCE_KERNEL_S = 0.0014
CALIBRATION_INTERVAL_S = 0.1
SUITES = ("equivalence", "convolution", "vandermonde", "gf", "layers", "multiplicity")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Outcome:
    """One op's result; its stdout is reduced to what the metrics need."""

    op: Op
    exit_code: int | None
    stdout_bytes: int
    detail_lines: int
    start: float
    end: float
    problem: str | None

    @property
    def interval(self) -> tuple[float, float]:
        return self.start, self.end


def import_cli() -> ModuleType:
    """symex.cli from this checkout's sources; exits 1 if they are missing."""
    if not (SRC / "symex" / "__init__.py").is_file():
        print(f"perfbench: no symex sources under {SRC}", file=sys.stderr)
        raise SystemExit(1)
    sys.path.insert(0, str(SRC))
    import symex.cli

    if Path(symex.cli.__file__).resolve().parent != SRC / "symex":
        print(f"perfbench: imported symex from {symex.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(1)
    return symex.cli


def run_op(cli: ModuleType, op: Op) -> Outcome:
    """Run one command through `cli.main` and check what it printed."""
    out, err = io.StringIO(), io.StringIO()
    exit_code: int | None = None
    problem = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            exit_code = cli.main(list(op.argv))
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing op is a failed op; the loop goes on
            problem = "raised " + traceback.format_exc(limit=-3)
        end = perf_counter()
    text = out.getvalue()
    if problem is None:
        problem = check(op, exit_code, text)
    return Outcome(op, exit_code, len(text.encode()), printed_detail_lines(op, text), start, end, problem)


def _kernel() -> float:
    """Seconds for a fixed mix of big-int binomials, dicts, strings, JSON
    and argparse: what symex spends its time on, without calling symex."""
    start = perf_counter()
    total = 0
    for x in range(1000, 1000 + KERNEL_STEPS):
        record = {"value": str(x), "pair": [x, x + 1]}
        total += comb(x, 9) + len(json.dumps(record)) + len(str(record).split(","))
    parser = argparse.ArgumentParser(prog="kernel")
    command = parser.add_subparsers(dest="command").add_parser("run")
    command.add_argument("--n", type=int)
    command.add_argument("--name", default="x")
    command.add_argument("--json", action="store_true")
    for n in range(6):
        parser.parse_args(["run", "--n", str(n), "--json"])
    return perf_counter() - start


class Speed:
    """How fast the machine runs right now, from a fixed calibration kernel.

    On a shared host, other tenants slow every process down in phases that
    last seconds (1.6x was measured on a 2-core VM).  While a `Speed` is
    entered, a timer samples the kernel every CALIBRATION_INTERVAL_S, also
    in the middle of an op.  `rescaled` takes the sampling time out of each
    op and multiplies the rest by REFERENCE_KERNEL_S over the mean kernel
    time around and during the op.  That cancels the slowdown, so a time
    reads as it would at the reference speed.
    """

    def __init__(self) -> None:
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:
            return
        self._sampling = True
        begin = perf_counter()
        self.kernel_s.append(min(_kernel() for _ in range(3)))
        self.ends.append(perf_counter())
        self.begins.append(begin)
        self._sampling = False

    def __enter__(self) -> "Speed":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _net_and_scale(self, start: float, end: float) -> tuple[float, float]:
        first, last = bisect_left(self.begins, start), bisect_right(self.ends, end)
        inside = range(first, last)
        sampling = sum(self.ends[k] - self.begins[k] for k in inside)
        around = [max(first - 1, 0), *inside, min(last, len(self.kernel_s) - 1)]
        return end - start - sampling, REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[k] for k in around)

    def net(self, intervals: Iterable[tuple[float, float]]) -> list[float]:
        """Op times without the sampling done during them, not rescaled."""
        return [self._net_and_scale(start, end)[0] for start, end in intervals]

    def rescaled(self, intervals: Iterable[tuple[float, float]]) -> list[float]:
        """Op times without sampling, at the reference speed."""
        return [net * scale for net, scale in (self._net_and_scale(start, end) for start, end in intervals)]

    def summary(self) -> dict:
        return {"samples": len(self.kernel_s), "kernel_ms_min": min(self.kernel_s) * 1e3,
                "kernel_ms_median": statistics.median(self.kernel_s) * 1e3, "kernel_ms_max": max(self.kernel_s) * 1e3}


def setup(cli: ModuleType, workload: str, seed: int) -> tuple[list[Op], Iterator[list[Op]], list[Outcome]]:
    """Generate the first round and warm up: everything before the first op."""
    stream = rounds(workload, seed)
    first = next(stream)
    warm = [run_op(cli, op) for op in warmup_ops(workload)]
    return first, stream, warm


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and rescaled seconds from starting a fresh interpreter until it
    is ready for op 1, once per probe.  Each probe samples the calibration
    kernel itself right after it is ready, for its own rescaling."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    raw, rescaled = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            end = perf_counter()
            kernel = proc.stdout.read().split()
        if ready.strip() != "ready" or proc.returncode != 0 or len(kernel) != 1:
            raise RuntimeError(f"setup probe exited {proc.returncode} after printing {ready!r}")
        raw.append(end - start)
        rescaled.append((end - start) * REFERENCE_KERNEL_S / float(kernel[0]))
    return raw, rescaled


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(cli: ModuleType, workload: str, seed: int, seconds: float) -> dict:
    setup_raw, setup_times = measure_setup(workload, seed)
    first, stream, warm = setup(cli, workload, seed)
    # Only op intervals, failures and input histograms are kept, so the
    # benchmark's own memory does not grow with the number of ops.
    starts, ends = array("d"), array("d")
    failures = [o for o in warm if o.problem]
    inputs: dict = {}
    start = perf_counter()
    round_ops = first
    with Speed() as speed:
        while True:
            for op in round_ops:
                outcome = run_op(cli, op)
                starts.append(outcome.start)
                ends.append(outcome.end)
                if outcome.problem:
                    failures.append(outcome)
            summarize(round_ops, inputs)
            if perf_counter() - start >= seconds and len(starts) >= MIN_OPS:
                break
            round_ops = next(stream)
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = speed.rescaled(zip(starts, ends))
    raw = speed.net(zip(starts, ends))
    attempted = len(warm) + len(starts)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "ok_ratio": 1.0 - len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "ops": len(starts),
        "wall_s": wall,
        "failed_ratio": len(failures) / attempted,
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": TAIL_BEYOND},
        "latency_quartiles_ms": [q * 1000.0 for q in statistics.quantiles(latencies, n=4)],
        "setup_probes_s": setup_times,
        "raw_wall": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1000.0,
            "latency_tail_ms": tail(raw)[0] * 1000.0,
        },
        "speed": speed.summary(),
        "inputs": inputs,
    }
    return _result(workload, seed, 0, attempted, failures, metrics, details)


def replay(cli: ModuleType, ops: list[Op], speed: Speed, tracer: Tracer | None = None) -> list[Outcome]:
    outcomes = []
    with speed:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            outcomes.append(run_op(cli, op))
    return outcomes


def trace_pass(cli: ModuleType, ops: list[Op], speed: Speed) -> tuple[Tracer, list[Outcome]]:
    """Replay the ops with the tracer installed, and take it out again."""
    tracer = Tracer()
    tracer.install(symex_modules())
    try:
        return tracer, replay(cli, ops, speed, tracer)
    finally:
        tracer.uninstall()


def traced_run(cli: ModuleType, workload: str, seed: int) -> dict:
    ops = trace_ops(workload, seed)
    warm = [run_op(cli, op) for op in warmup_ops(workload)]
    speed = Speed()
    untraced = replay(cli, ops, speed)
    tracer, traced = trace_pass(cli, ops, speed)

    everything = warm + untraced + traced
    failures = [o for o in everything if o.problem]
    overhead = sum(speed.rescaled(o.interval for o in traced)) / sum(speed.rescaled(o.interval for o in untraced))
    metrics = layer_metrics(tracer, traced, overhead)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{workload}-seed{seed}-spans.json.gz"
    tracer.write(spans_path)
    details = {
        "ops": len(ops),
        "untraced_raw_s": sum(speed.net(o.interval for o in untraced)),
        "traced_raw_s": sum(speed.net(o.interval for o in traced)),
        "speed": speed.summary(),
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_totals_ns": tracer.span_totals(),
        "leaf_calls": dict(tracer.leaf_calls),
        "leaf_ns": dict(tracer.leaf_ns),
        "inputs": summarize(ops),
    }
    return _result(workload, seed, 1, len(everything), failures, metrics, details)


def layer_metrics(tracer: Tracer, traced: list[Outcome], overhead: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (totals over its fixed op list)."""
    spans = tracer.span_totals()

    def span_calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def span_ms(name: str, key: str = "ns") -> float:
        return spans.get(name, {}).get(key, 0) / 1e6

    built = tracer.counters["esp.detail_entries"]
    printed = sum(o.detail_lines for o in traced)
    extractions = max(tracer.bits["calls"], 1)
    metrics: dict[str, float] = {
        "cli.self_ms": span_ms("cli.main", "self_ns"),
        "cli.stdout_bytes": sum(o.stdout_bytes for o in traced),
    }
    metrics.update({f"cli.suite.{suite}.ms": span_ms(f"cli.suite.{suite}") for suite in SUITES})
    for name in ("esp.esp_extraction", "esp.esp_direct", "esp.esp_all"):
        metrics[f"{name}.calls"] = span_calls(name)
        metrics[f"{name}.ms"] = span_ms(name)
    for name in ("esp.esp_compare", "esp.esp_loworder", "esp.specialize"):
        metrics[f"{name}.ms"] = span_ms(name)
    metrics.update(
        {
            "esp.subsets_enumerated": tracer.counters["esp.subsets_enumerated"],
            "esp.detail_entries": built,
            "esp.detail_used_ratio": printed / built if built else 1.0,
            "esp.bits_head": tracer.bits["head"] / extractions,
            "esp.bits_max_term": tracer.bits["max_term"] / extractions,
            "esp.bits_result": tracer.bits["result"] / extractions,
            "esp.cancelled_bits": tracer.bits["cancelled"] / extractions,
        }
    )
    for name in ("bigcomb.binomial_first", "bigcomb.binomial_second", "bigcomb.stirling_first_signed",
                 "bigcomb.multinomial", "subsets.k_subsets", "series.series_mul", "report.Report.add"):
        metrics[f"{name}.calls"] = tracer.leaf_calls[name]
    for name in ("bigcomb.binomial_first", "bigcomb.stirling_first_signed"):
        metrics[f"{name}.ms"] = tracer.leaf_ns[name] / 1e6
    metrics["subsets.count_containing_supersets.calls"] = span_calls("subsets.count_containing_supersets")
    metrics["subsets.count_containing_supersets.ms"] = span_ms("subsets.count_containing_supersets")
    for name in ("coeffs.coeff_recurrence", "coeffs.coeff_closed_sequence", "coeffs.verify_convolution",
                 "coeffs.vandermonde_degeneration_check", "series.verify_gf_untransformed",
                 "series.verify_gf_transformed", "polyexpand.verify_layer_decomposition"):
        metrics[f"{name}.ms"] = span_ms(name)
    metrics["polyexpand.verify_layer_decomposition.calls"] = span_calls("polyexpand.verify_layer_decomposition")
    metrics["polyexpand.monomial_coefficient.calls"] = span_calls("polyexpand.monomial_coefficient")
    metrics["trace.overhead_ratio"] = overhead
    return metrics


# ---------------------------------------------------------------------------
# results


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _result(workload, seed, trace, attempted: int, failures: list[Outcome], metrics, details) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "details": details,
        "failures": [{"argv": list(o.op.argv)[:6], "exit_code": o.exit_code, "problem": o.problem} for o in failures[:20]],
    }


def unit_of(name: str) -> str:
    """A metric's unit, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.startswith("esp.bits_") or name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def print_result(result: dict) -> None:
    details = result["details"]
    print(f"perfbench workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"ops={details['ops']} attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            t = details["latency_tail"]
            note = f"  (p{t['percentile']:.2f} of {t['samples']} samples, {t['beyond']} beyond)"
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} {shown} {unit_of(name)}{note}")
    for failure in result["failures"]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['problem']}")


def write_result(result: dict, env: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps({"environment": env, **result}, indent=1, default=str) + "\n")
    return path


def summary_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for result in results:
        for name, value in result["metrics"].items():
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum measured time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    if args.setup_only:
        setup(cli, args.workload, args.seed)
        print("ready", flush=True)
        print(min(_kernel() for _ in range(3)))
        return 0
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        if args.trace:
            result = traced_run(cli, workload, args.seed)
        else:
            result = timed_run(cli, workload, args.seed, args.seconds)
        path = write_result(result, env)
        print_result(result)
        print(f"  record {path.relative_to(ROOT)}")
        results.append(result)
    print(f"environment {json.dumps(env)}")
    print(summary_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
