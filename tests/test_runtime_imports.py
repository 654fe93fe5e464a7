"""The package's runtime needs numpy only: every import in its modules is
of the standard library, of numpy, or of the package itself. Tests may
use more (scipy, hypothesis); the package may not."""

import ast
import sys
from pathlib import Path

import pytest

import fockindex

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
MODULES = sorted(Path(fockindex.__file__).parent.glob("*.py"))


def imported_modules(path: Path) -> list[str]:
    """The top-level name of every absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_every_module_is_scanned():
    assert {path.stem for path in MODULES} >= {"algebra", "cli", "fock", "presets", "selftest", "subsystem", "unit_algebra"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library_and_numpy(path):
    assert [name for name in imported_modules(path) if name not in ALLOWED] == []
