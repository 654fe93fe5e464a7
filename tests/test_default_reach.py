"""The package functions that the ten CLI commands, each run on its default
config, never call. Every such function is pinned here with the reason it
stays, so code that only tests reach fails here instead of waiting for a
review. Functions are named module.qualname from the source with ast, and
matched to the traced code objects by file and first line, the line of the
first decorator where there is one, so decorated methods count."""

import ast
import sys
from pathlib import Path

import pytest

import fockindex
from fockindex import cli

PACKAGE = Path(fockindex.__file__).resolve().parent

_ARITHMETIC = "element or operator arithmetic, part of the algebra; no default path uses it"
_CONFIG = "a config reader that only non-default configs reach"
_IMPORT = "runs only while cli is imported, to build the schema table, before the trace starts"

NEVER_CALLED = {
    "algebra.AlgebraElement.__repr__": "a repr, for debugging",
    "fock._Operator.__repr__": "a repr, for debugging",
    "fock.KernelOperator.__post_init__": "checks arrays passed in from outside; the package wraps its own",
    "fock.WeightedShift.__post_init__": "checks arrays passed in from outside; the package wraps its own",
    "algebra.AlgebraElement.__neg__": _ARITHMETIC,
    "algebra.AlgebraElement.__rsub__": _ARITHMETIC,
    "algebra.AlgebraElement.__truediv__": _ARITHMETIC,
    "algebra.AlgebraElement.__rtruediv__": _ARITHMETIC,
    "fock._Operator.__add__": _ARITHMETIC,
    "fock._Operator.__neg__": _ARITHMETIC,
    "fock._Operator.__mul__": _ARITHMETIC,
    "fock.WeightedShift.__matmul__": _ARITHMETIC,
    "unit_algebra.ReferencedUnit.cross_kernel": "the one-probe case of cross_kernels, as an operator; public, and the benchmark's tracer times it",
    "cli._coefficients": _CONFIG,
    "cli._distinct_keys": _CONFIG,
    "cli._tolerance": _CONFIG,
    "presets._raw": _CONFIG,
    "presets._csv": _CONFIG,
    "presets.load_csv": _CONFIG,
    "presets._is_number": _CONFIG,
    "cli._number": _IMPORT,
    "cli._integer_in": _IMPORT,
    "cli._list_of": _IMPORT,
    "fock.blas_core": "BLAS provenance for the diagnostics of ROADMAP item 3",
}


def function_defs() -> list:
    """(file, def node, module.qualname) of every def in the package."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((path, child, f"{path.stem}.{prefix}{child.name}"))
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def defined_functions() -> dict:
    """(file, first line) -> module.qualname of every def in the package."""
    return {
        (str(path), min([node.lineno, *(d.lineno for d in node.decorator_list)])): name
        for path, node, name in function_defs()
    }


@pytest.mark.filterwarnings("ignore::fockindex.algebra.UnresolvedTailWarning")
def test_default_commands_reach_all_but_the_pinned_functions(tmp_path):
    called = set()
    package = str(PACKAGE)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            called.add((code.co_filename, code.co_firstlineno))
        # No local trace function: only calls are followed, not lines.

    # A cached function whose cache a test filled earlier would run no frame.
    for module in [module for name, module in sys.modules.items() if name.startswith("fockindex.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        statuses = {name: cli.main([name, "--out", str(tmp_path / name)]) for name in cli.COMMANDS}
    finally:
        sys.settrace(previous)
    assert statuses == dict.fromkeys(cli.COMMANDS, 0)
    never = {name for key, name in defined_functions().items() if key not in called}
    assert sorted(never) == sorted(NEVER_CALLED)
