"""Self-test of the benchmark (a few minutes; it boots the servers six times).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names the benchmark's workloads, that a tiny
run of each workload, untraced and traced, prints a correct result with
exactly the metrics ``BENCHMARK.json`` names, that the correctness gate fires on a tampered answer,
and that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


class SpecTest(unittest.TestCase):
    def test_workloads_match_the_spec(self) -> None:
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))


class GateTest(unittest.TestCase):
    def test_correctness_gate_fires_on_a_tampered_answer(self) -> None:
        from repro.api import Session
        from repro.serve.codec import decode_request, to_eval_request

        load = workload("vector-fresh", 0)
        registry = run.reference_registry(load.testbench)
        wire = decode_request(load.request(0))
        served = Session().evaluate(to_eval_request(wire, registry), backend=wire.backend)
        window = run.Window()
        window.kept[0] = served
        self.assertEqual(run.correctness_gate(load, window, registry)["violations"], [])

        scores = served.scores.copy()
        scores.flat[0] = np.nextafter(scores.flat[0], np.inf)
        window.kept[0] = dataclasses.replace(served, scores=scores)
        violations = run.correctness_gate(load, window, registry)["violations"]
        self.assertEqual(len(violations), 1)
        self.assertIn("scores", violations[0])


class TinyRunTest(unittest.TestCase):
    def check(self, name: str, trace: int) -> None:
        done = bench("--workload", name, "--seed", "0", "--seconds", "2", "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {name: metric["unit"] for name, metric in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in expected},
        )

    def test_each_workload_untraced_and_traced(self) -> None:
        for name in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)

    def test_refuses_to_run_without_the_program(self) -> None:
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = bench("--workload", "vector-fresh", "--seed", "0", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
