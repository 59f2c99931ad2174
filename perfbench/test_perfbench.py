"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench

The last test runs every workload once through the real command line and
takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import workloads
from workloads import WORKLOADS, compute_op, rounds, trace_ops, verify_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI = run.import_cli()


def first_rounds(workload: str, seed: int, count: int = 2) -> list[tuple[str, ...]]:
    stream = rounds(workload, seed)
    return [op.argv for _ in range(count) for op in next(stream)]


def small_trace_list() -> list[workloads.Op]:
    cheap_sieve = [op for op in trace_ops("sieve_compact", 3) if op.params["i"] <= 4][:3]
    return trace_ops("cli_interactive", 3)[:60] + cheap_sieve + [verify_op("layers", 5), verify_op("gf", 5)]


def counts(metrics: dict[str, float]) -> dict[str, float]:
    return {name: value for name, value in metrics.items() if not name.endswith("ms") and name != "trace.overhead_ratio"}


class SameSeed(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(first_rounds(workload, 11), first_rounds(workload, 11))
            self.assertNotEqual(first_rounds(workload, 11), first_rounds(workload, 12))
            self.assertEqual(trace_ops(workload, 11), trace_ops(workload, 11))

    def test_same_ops_give_identical_counts(self):
        ops = small_trace_list()
        runs = []
        for _ in range(2):
            speed = run.Speed()
            untraced = run.replay(CLI, ops, speed)
            tracer, traced = run.trace_pass(CLI, ops, speed)
            self.assertFalse([o.problem for o in untraced + traced if o.problem])
            runs.append(counts(run.layer_metrics(tracer, traced, 1.0)))
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0]["esp.subsets_enumerated"], 0)
        self.assertGreater(runs[0]["polyexpand.verify_layer_decomposition.calls"], 0)

    def test_sieve_round_has_uniform_widths_and_every_cell(self):
        ops = next(rounds("sieve_compact", 5))
        widths = sorted(dict(op.tags)["width"] for op in ops)
        cells = {(dict(op.tags)["n"], dict(op.tags)["i"]) for op in ops}
        self.assertEqual(len(ops), 4 * len(cells))
        self.assertEqual(cells, {(n, i) for n in range(14, 19) for i in range(2, n)})
        self.assertTrue(1 <= widths[0] and widths[-1] <= 40)


class Failures(unittest.TestCase):
    def test_wrong_oracle_value_counts_as_failure(self):
        real = workloads.esp_reference
        ops = trace_ops("cli_interactive", 4)[:40]
        with mock.patch.object(workloads, "esp_reference", lambda roots: [v + 1 for v in real(roots)]):
            outcomes = run.replay(CLI, ops, run.Speed())
        compute = [o for o in outcomes if o.op.kind.startswith("compute")]
        self.assertTrue(compute)
        self.assertTrue(all(o.problem for o in compute))
        self.assertFalse([o.problem for o in outcomes if o.problem and not o.op.kind.startswith("compute")])

    def test_failures_reach_the_result(self):
        real = workloads.esp_reference
        with mock.patch.object(workloads, "esp_reference", lambda roots: [v + 1 for v in real(roots)]):
            result = run.timed_run(CLI, "cli_interactive", 4, 0.1)
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"], 1.0)
        self.assertIn('"correct": false', run.summary_line([result], prefix=False))

    def test_nonzero_exit_and_exceptions_are_failures(self):
        bad_order = compute_op("compute-json", (1, 2, 3), 5, "--json")
        self.assertEqual(run.run_op(CLI, bad_order).problem, "exit code 3")
        with mock.patch.object(CLI, "main", side_effect=ArithmeticError("boom")):
            self.assertIn("ArithmeticError", run.run_op(CLI, bad_order).problem)


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        self.assertEqual(run.END_TO_END_UNITS, {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})
        speed = run.Speed()
        ops = small_trace_list()[:5]
        tracer, traced = run.trace_pass(CLI, ops, speed)
        metrics = run.layer_metrics(tracer, traced, 1.0)
        self.assertEqual({name: run.unit_of(name) for name in metrics}, {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
            argv = [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_one_command_prints_every_end_to_end_metric(self):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "2", "--seconds", "0.1"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.splitlines()
        summary = json.loads(lines[-1])
        self.assertTrue(summary["correct"])
        for workload in WORKLOADS:
            for metric in BENCHMARK["end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                self.assertEqual(summary["metrics"][f"{workload}.{name}"]["unit"], unit)
                self.assertTrue(any(line.startswith(f"  {name} ") and f" {unit}" in line for line in lines), name)


if __name__ == "__main__":
    unittest.main()
