"""The benchmark pins the names of the selftest checks and of the unitalg
cases, and fails every op whose report names differ; its tracer reads the
operator methods it times from the class body. These tests hold the pins
to the program, so a rename or a move fails here first."""

import csv
import sys
import types
from pathlib import Path

import pytest

from fockindex.algebra import GridSpec
from fockindex.cli import main
from fockindex.fock import KernelOperator
from fockindex.selftest import run_selftest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, executed from its source text so that no
    bytecode is written next to it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.filterwarnings("ignore::fockindex.algebra.UnresolvedTailWarning")
def test_pinned_selftest_checks_match_the_battery(workloads):
    assert [row.name for row in run_selftest(GridSpec(*workloads.SMOKE_GRID))] == list(workloads.SELFTEST_CHECKS)


@pytest.mark.filterwarnings("ignore::fockindex.algebra.UnresolvedTailWarning")
def test_pinned_unitalg_cases_match_a_one_case_run(workloads, tmp_path):
    config = tmp_path / "config.json"
    m, end = workloads.SMOKE_GRID
    config.write_text(f'{{"grid": {{"m": {m}, "S": {end}}}, "cases": 1}}', encoding="utf-8")
    assert main(["unitalg", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "unitalg_cases.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["operation"] for row in rows] == list(workloads.UNITALG_CASES)


@pytest.mark.parametrize("method", ["__matmul__", "apply", "operator_norm", "__post_init__"])
def test_traced_operator_methods_are_defined_on_the_class(method):
    """The tracer wraps only methods in ``KernelOperator.__dict__``, and the
    benchmark's checks need the composition, apply and norm layers."""
    assert method in KernelOperator.__dict__
