"""Each benchmark workload runs one op on the smallest grid, passes its
checks and reports exactly the end-to-end metrics BENCHMARK.json names.
No timing is asserted. The benchmark runs from a copy of the checkout, so
that its state files and bytecode land outside it."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    copy = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    return copy


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_smoke_op_is_correct_and_names_the_end_to_end_metrics(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=checkout,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
