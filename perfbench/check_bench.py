"""Tests of the benchmark itself.

    python3 perfbench/check_bench.py          # all tests, about a minute
    python3 perfbench/check_bench.py -k smoke # schema only, a few seconds

The smoke tests run each workload for one op on the smallest grid and
assert only the result's schema and metric names, never a timing. The
dominant-layer tests run one traced op of each workload at its real size
and assert that the layer the workload exists for is the one it stresses,
so that a later change of inputs cannot silently stop stressing it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (classify too, which BENCHMARK.json does not gate)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(workload: str) -> dict:
    """Per-layer metric values of one traced op at the workload's size."""
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced op failed its checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def top_self_time(values: dict) -> str:
    return max((name for name in values if name.endswith(".self_s")), key=values.get)


class SmokeTest(unittest.TestCase):
    def check_schema(self, result: dict, metrics: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["correct"], bool)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for spec in metrics:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], spec["unit"])
            self.assertIsInstance(metric["value"], (int, float))

    def test_smoke_untraced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"))
                self.check_schema(result, SPEC["end_to_end"])

    def test_smoke_traced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"))
                self.check_schema(result, SPEC["per_layer"])

    def test_smoke_fails_without_package_source(self) -> None:
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "battery-small", "--seed", "5", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class DominantLayerTest(unittest.TestCase):
    def test_battery_small_runs_every_layer(self) -> None:
        values = traced("battery-small")
        for n in range(1, 13):
            self.assertGreater(values[f"selftest.criterion_{n}.wall_s"], 0.0)
        for name in (
            "fock.matrix_exponential.calls",
            "fock.kernel.calls",
            "fock.compose.calls",
            "unit_algebra.dual_path_residual.calls",
            "subsystem.membership.calls",
            "algebra.ops.calls",
        ):
            self.assertGreater(values[name], 0, name)
        for name in (
            "fock.gram.self_s",
            "fock.apply.self_s",
            "fock.operator_norm.self_s",
            "unit_algebra.formula_kernel.self_s",
            "unit_algebra.semi_inner.self_s",
            "subsystem.witness.self_s",
            "subsystem.convergence_report.self_s",
        ):
            self.assertGreater(values[name], 0.0, name)

    def test_semigroup_large_is_exponential_bound(self) -> None:
        values = traced("semigroup-large")
        self.assertEqual(top_self_time(values), "fock.matrix_exponential.self_s")
        self.assertGreater(values["presets.load_csv.rows"], 0)

    def test_dualpath_large_is_composition_bound(self) -> None:
        values = traced("dualpath-large")
        self.assertEqual(top_self_time(values), "fock.compose.self_s")
        self.assertEqual(values["fock.matrix_exponential.calls"], 0)

    def test_classify_is_presets_and_cli_bound(self) -> None:
        values = traced("classify")
        self.assertEqual(values["fock.kernel.calls"], 0)
        self.assertRegex(top_self_time(values), r"^(presets|cli)\.")
        share = sum(v for name, v in values.items() if name.endswith(".self_s") and name.startswith(("presets.", "cli.")))
        self.assertGreater(share, 0.5 * values["trace.op_s_p50_traced"])


if __name__ == "__main__":
    unittest.main()
