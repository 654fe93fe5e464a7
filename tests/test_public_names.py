"""The public names of the package: every ``__all__`` entry resolves, every
public function and class is listed, and retired names stay retired."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import fockindex

MODULES = ("algebra", "presets", "fock", "unit_algebra", "subsystem", "selftest", "cli")
LISTED = ("algebra", "presets", "fock", "unit_algebra", "subsystem")

# Names retired in favour of the methods or writers that replaced them, as (module, name).
RETIRED = [
    ("algebra", "pointwise"),
    ("algebra", "star"),
    ("algebra", "shift"),
    ("algebra", "sup_norm"),
    ("algebra", "is_positive"),
    ("algebra", "limit_at_infinity"),
    ("algebra", "reciprocal"),
    ("fock", "apply"),
    ("fock", "operator_norm"),
    ("fock", "gram_matrix"),
    ("fock", "kernel_to_csv"),  # the CLI writes kernel_matrix.csv with write_csv
    ("subsystem", "step1_positive"),  # witness_step1(zeta, n) returns a Step1Witness, not an obstacle
    ("subsystem", "step1_obstacle"),  # witness_step1 returns the obstacle string
    ("subsystem", "step1_witness_or_obstacle"),  # witness_step1 returns the witness or the obstacle
    ("subsystem", "default_centrality_probes"),  # centrality_check always takes the same three probes
    ("unit_algebra", "equivalent"),  # index_norm(subtract(x, y)) is the index distance
]

# Attributes retired from the classes that keep them, as (module, class, name).
RETIRED_ATTRIBUTES = [
    ("unit_algebra", "ReferencedUnit", "parameter_kernel"),
    ("unit_algebra", "ReferencedUnit", "cross_kernel"),  # cross_kernels((probe,))[0] holds its bands
    ("unit_algebra", "ReferencedUnit", "zeta"),  # x.unit.zeta
    ("unit_algebra", "ReferencedUnit", "beta"),  # x.unit.beta
    ("fock", "GramReport", "json_entries"),
    ("fock", "KernelOperator", "identity"),
    ("fock", "KernelOperator", "zero"),
    ("fock", "WeightedShift", "zero"),  # the formula-path stacks start from np.zeros; WeightedShift(grid, zeros) in tests
    ("algebra", "AlgebraElement", "from_coordinates"),
    ("algebra", "AlgebraElement", "limit_at_infinity"),  # .tail is the limit
    ("algebra", "GridSpec", "step"),
]


@pytest.mark.parametrize("short", ("",) + MODULES)
def test_every_all_name_resolves(short):
    module = importlib.import_module(f"fockindex.{short}" if short else "fockindex")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("short", LISTED)
def test_every_public_function_and_class_is_listed(short):
    module = importlib.import_module(f"fockindex.{short}")
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


def test_package_all_matches_its_imports():
    tree = ast.parse(Path(fockindex.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    assert sorted(fockindex.__all__) == sorted(imported | {"__version__"})


@pytest.mark.parametrize("short, name", RETIRED)
def test_retired_names_are_gone(short, name):
    assert not hasattr(importlib.import_module(f"fockindex.{short}"), name)
    assert not hasattr(fockindex, name)
    with pytest.raises(ImportError):
        exec(f"from fockindex import {name}", {})


@pytest.mark.parametrize("short, cls, name", RETIRED_ATTRIBUTES)
def test_retired_attributes_are_gone(short, cls, name):
    assert not hasattr(getattr(importlib.import_module(f"fockindex.{short}"), cls), name)


def live_attributes() -> set:
    """The attributes and dataclass fields of every class the package defines."""
    found = set()
    for short in MODULES:
        module = importlib.import_module(f"fockindex.{short}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                found.update(dir(obj), (f.name for f in dataclasses.fields(obj)) if dataclasses.is_dataclass(obj) else ())
    return found


def test_the_readme_names_no_retired_name():
    """README.md spells no retired name as module.name or Class.name, and
    calls no retired attribute that no class of the package still has."""
    live = live_attributes()
    patterns = [
        *(rf"\b{short}\.{name}\b" for short, name in RETIRED),
        *(rf"\b{cls}\.{name}\b" for _, cls, name in RETIRED_ATTRIBUTES),
        *(rf"\.{name}\(" for _, _, name in RETIRED_ATTRIBUTES if name not in live),
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [pattern for pattern in patterns if re.search(pattern, readme)] == []
