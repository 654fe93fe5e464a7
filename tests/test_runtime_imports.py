"""The package's runtime needs numpy only: every import in its modules is
of the standard library, of numpy, or of the package itself, and no module
imports or names ``numpy.random``. Tests may use more (scipy, hypothesis,
numpy.random); the package may not."""

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


def numpy_random_uses(path: Path) -> list[str]:
    """Every ``numpy.random`` the source of ``path`` names: an import of it
    (``import numpy.random``, ``from numpy import random``, ``from
    numpy.random import ...``) or an ``np.random``/``numpy.random`` attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.startswith("numpy.random"):
                found.append(node.module)
            elif node.module == "numpy":
                found += [f"numpy.{alias.name}" for alias in node.names if alias.name == "random"]
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
                found.append(f"{node.value.id}.random")
    return found


def test_the_scan_finds_every_form_of_numpy_random(tmp_path):
    source = tmp_path / "uses.py"
    source.write_text(
        "import numpy.random\nfrom numpy import random\nfrom numpy.random import default_rng\n"
        "import numpy as np\nnp.random.default_rng(0)\nnumpy.random.seed\n",
        encoding="utf-8",
    )
    assert sorted(numpy_random_uses(source)) == ["np.random"] + ["numpy.random"] * 4


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_runtime_never_uses_numpy_random(path):
    """Seeded draws come from ``selftest.Pcg64Draws``, which reproduces
    ``numpy.random.default_rng``'s stream without loading numpy.random."""
    assert numpy_random_uses(path) == []
