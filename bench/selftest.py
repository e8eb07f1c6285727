"""Self-test of the benchmark itself (not of pairgate).

    python3 bench/selftest.py

Runs every workload at a tiny size with tracing off and on, and checks the
output contract: every metric BENCHMARK.json names is printed with its
unit, the seed is recorded, the same seed gives the same inputs, a wrong
reference value is counted as a failure, known-defect probes are reported
apart from the result, and a directory without the program makes the
benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 170


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


class OutputContract(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in DECLARED["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--max-ops", "3")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    *details, last = proc.stdout.splitlines()
                    result = json.loads(last)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    # untraced: 3 operations; traced: pairs of 3 untraced and 3 traced
                    self.assertEqual(result["attempted"] % 3, 0)
                    self.assertGreaterEqual(result["attempted"], 3 * (1 + trace))
                    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in DECLARED[kind]})
                    for name, entry in result["metrics"].items():
                        self.assertIsInstance(entry["value"], (int, float), name)
                        self.assertTrue(math.isfinite(entry["value"]), name)
                    detail = json.loads(details[-1])["detail"]
                    self.assertEqual(detail["seed"], 3)
                    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as workdir:
                        probes = len(workloads.WORKLOADS[workload](3, Path(workdir)).known_defect_probes())
                    self.assertEqual(detail["known_defects"]["attempted"], probes)
                    if trace == 0:
                        self.assertEqual(result["attempted"], 3)

    def test_directory_without_the_program_fails_without_a_result(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "sweep_bulk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class Inputs(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def argv(self, name, seed):
        ops = workloads.WORKLOADS[name](seed, self.workdir).round(0)
        return [op.argv or sorted(op.call.items()) for op in ops]

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.argv(name, 5), self.argv(name, 5))
                self.assertNotEqual(self.argv(name, 5), self.argv(name, 6))

    def test_known_defects_are_probed_not_timed(self):
        lo = 10.0 ** workloads.ORACLE_LOG10_BETA_L[0]
        for name in workloads.WORKLOADS:
            workload = workloads.WORKLOADS[name](5, self.workdir)
            timed = [op for index in range(6) for op in workload.round(index)]
            probes = workload.known_defect_probes()
            with self.subTest(workload=name):
                self.assertTrue(all(beta_l(op) >= lo for op in timed if beta_l(op) is not None))
                self.assertTrue(all(beta_l(op) < lo for op in probes if beta_l(op) is not None))
                self.assertEqual(bool(probes), name != "sweep_bulk")

    def test_wrong_reference_is_a_failure(self):
        right = checks.pairs_per_bandwidth
        cases = {
            "oracle_scan": workloads.WORKLOADS["oracle_scan"](1, self.workdir).round(0)[:6],
            "sweep_bulk": [workloads.figure_op("2", str(self.workdir / "fig2.csv"))],
            "cli_oneshot": [workloads.CliOneshot(1, self.workdir)._flux_beta(workloads.random.Random(1))],
        }
        for name, ops in cases.items():
            runner = run.Runner(workloads.WORKLOADS[name](1, self.workdir), self.workdir)
            with self.subTest(workload=name):
                self.assertTrue(all(runner.run(op).ok for op in ops))
                with mock.patch.object(checks, "pairs_per_bandwidth", lambda x: 2.0 * right(x)):
                    samples = [runner.run(op) for op in ops]
                self.assertEqual([s.ok for s in samples], [False] * len(ops))


def beta_l(op):
    """beta*L of an oracle operation, None for any other."""
    if op.call is not None:
        return op.call["beta_l"]
    if op.kind == "oracle":
        return float(op.argv[op.argv.index("--beta-l") + 1])
    return None


if __name__ == "__main__":
    unittest.main()
