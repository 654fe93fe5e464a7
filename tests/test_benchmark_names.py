"""The benchmark pins the names of the selftest checks and of the unitalg
cases, and fails every op whose report names differ; its tracer reads the
operator methods it times from the class body, each name it traces must
name a package function or method, and every config it writes must pass
the config schema. These tests hold the pins to the program, so
a rename, a move or a schema change fails here first."""

import csv
import importlib
import inspect
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from fockindex import cli
from fockindex.algebra import GridSpec
from fockindex.cli import main
from fockindex.fock import KernelOperator
from fockindex.selftest import run_selftest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Traced names that resolve to nothing in the package today; ROADMAP item 1
# retires them or traces through the MRO. Any other unresolved name fails.
STALE_TRACED_NAMES = {
    "fock.KernelOperator.__add__",
    "fock.KernelOperator.__sub__",
    "fock.KernelOperator.__neg__",
    "fock.KernelOperator.__mul__",
    "fock.KernelOperator.__rmul__",
    "fock.KernelOperator.identity",  # retired: only tests called it
    "fock.KernelOperator.zero",  # retired: only tests called it
    "algebra.AlgebraElement.from_coordinates",  # retired: only tests called it
    "fock.gram_matrix",
    "unit_algebra.ReferencedUnit.parameter_kernel",
    "unit_algebra.ReferencedUnit.cross_kernel",  # retired: only tests called it
    "algebra.AlgebraElement.limit_at_infinity",  # retired: .tail is the limit
}


def _exec_source(name: str) -> types.ModuleType:
    """perfbench/<name>.py, executed from its source text so that no
    bytecode is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def workloads():
    return _exec_source("workloads")


def _resolves(traced: str) -> bool:
    """Whether a traced name, "module.function" or "module.Class.method",
    is a public function defined in that package module, or a method in
    the class's own __dict__: the two things the tracer wraps."""
    short, *rest = traced.split(".")
    module = importlib.import_module(f"fockindex.{short}")
    if len(rest) == 1:
        obj = getattr(module, rest[0], None)
        return inspect.isfunction(obj) and obj.__module__ == module.__name__ and not rest[0].startswith("_")
    cls = getattr(module, rest[0], None)
    return inspect.isclass(cls) and rest[1] in cls.__dict__


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


def test_traced_names_resolve_in_the_package():
    """A rename of a traced function or method fails here instead of
    silently zeroing its layer."""
    tracing = _exec_source("tracing")
    methods = [f"{short}.{cls}.{method}" for (short, cls), names in tracing.METHODS.items() for method in names]
    traced = [*tracing.LAYER_OF, *methods]
    assert {name for name in traced if not _resolves(name)} == STALE_TRACED_NAMES


def test_benchmark_configs_pass_the_config_schema(workloads, tmp_path):
    """Op 0 of every workload, generated at its own grid: each config it
    writes parses and holds only keys its command reads. A config the
    schema refused would fail every op of that workload."""
    for name, workload in workloads.WORKLOADS.items():
        directory = tmp_path / name
        directory.mkdir()
        op = workload.make(np.random.default_rng(0), workload.grid, directory, 0)
        assert op.calls
        for command, path in op.calls:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
            config = cli.parse_config(raw, Path(path).parent)
            assert (config.grid.step_denominator, config.grid.domain_end) == workload.grid
            cli._reject_unknown(f"the config of {command!r}", raw, cli._command_keys(command))
