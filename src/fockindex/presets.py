"""Named function presets and CSV loading for algebra elements.

Preset specs are plain dicts, e.g. ``{"kind": "exp_approach", "c": 1.0,
"a": 1.0}``. Complex parameters may be given as a number, a two-element
``[re, im]`` list, or a string accepted by :func:`complex`.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, GridSpec, constant

__all__ = [
    "PresetError",
    "PRESET_KINDS",
    "as_complex",
    "exp_approach",
    "exp_decay",
    "inverse_decay",
    "piecewise_linear",
    "from_spec",
    "load_csv",
]


class PresetError(ValueError):
    """A preset spec names an unknown kind or carries bad parameters."""


PRESET_KINDS = ("constant", "exp_approach", "exp_decay", "inverse_decay", "piecewise_linear", "csv", "raw")


def as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise PresetError(f"complex value as a list must be [re, im], got {value!r}")
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise PresetError(f"cannot parse complex value {value!r}") from exc
    return complex(value)


def exp_approach(grid: GridSpec, c, a) -> AlgebraElement:
    """1 + c*exp(-a*s); tail 1."""
    c = as_complex(c)
    a = float(a)
    if a <= 0:
        raise PresetError(f"exp_approach needs a > 0, got {a}")
    return AlgebraElement(grid, 1.0 + c * np.exp(-a * grid.points()), 1.0)


def exp_decay(grid: GridSpec, c, a, d=0.0) -> AlgebraElement:
    """c*exp(-a*s) + d; tail d."""
    c, d = as_complex(c), as_complex(d)
    a = float(a)
    if a <= 0:
        raise PresetError(f"exp_decay needs a > 0, got {a}")
    return AlgebraElement(grid, c * np.exp(-a * grid.points()) + d, d)


def inverse_decay(grid: GridSpec, c, d=0.0) -> AlgebraElement:
    """c/(1+s) + d; tail d. Decays slowly, so it is usually unresolved."""
    c, d = as_complex(c), as_complex(d)
    return AlgebraElement(grid, c / (1.0 + grid.points()) + d, d)


def piecewise_linear(grid: GridSpec, knots) -> AlgebraElement:
    """Linear interpolation through (s, value) knots, constant past the last.

    Before the first knot the value is the first knot's; after the last it
    is the last knot's, which also becomes the tail.
    """
    if not knots:
        raise PresetError("piecewise_linear needs at least one knot")
    xs = [float(k[0]) for k in knots]
    vs = [as_complex(k[1]) for k in knots]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise PresetError("piecewise_linear knots must have strictly increasing s")
    s = grid.points()
    re = np.interp(s, xs, [v.real for v in vs])
    im = np.interp(s, xs, [v.imag for v in vs])
    return AlgebraElement(grid, re + 1j * im, vs[-1])


def from_spec(grid: GridSpec, spec: dict, base_dir: Path | None = None) -> AlgebraElement:
    """Build an element from a preset spec dict."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PresetError(f"preset spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "constant":
            return constant(grid, as_complex(spec["value"]))
        if kind == "exp_approach":
            return exp_approach(grid, spec.get("c", 1.0), spec.get("a", 1.0))
        if kind == "exp_decay":
            return exp_decay(grid, spec.get("c", 1.0), spec.get("a", 1.0), spec.get("d", 0.0))
        if kind == "inverse_decay":
            return inverse_decay(grid, spec.get("c", 1.0), spec.get("d", 0.0))
        if kind == "piecewise_linear":
            return piecewise_linear(grid, spec.get("knots", ()))
        if kind == "raw":
            return _raw(grid, spec)
        if kind == "csv":
            path = Path(spec["path"])
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return load_csv(grid, path)
    except KeyError as exc:
        raise PresetError(f"preset {kind!r} is missing parameter {exc}") from exc
    raise PresetError(f"unknown preset kind {spec['kind']!r}; known kinds: {', '.join(PRESET_KINDS)}")


def _raw(grid: GridSpec, spec: dict) -> AlgebraElement:
    values = [as_complex(v) for v in spec["values"]]
    if len(values) != grid.size:
        raise PresetError(f"raw preset needs {grid.size} values, got {len(values)}")
    return AlgebraElement(grid, np.array(values, dtype=complex), as_complex(spec.get("tail", values[-1])))


def load_csv(grid: GridSpec, path) -> AlgebraElement:
    """Load an element from CSV columns (s, re, im).

    The header row must read ``s,re,im,tail=<value>``; the declared tail
    becomes the element's limit at infinity. The s column must match the
    grid points exactly.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise PresetError(f"{path}: empty CSV")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 4 or header[:3] != ["s", "re", "im"] or not header[3].startswith("tail="):
        raise PresetError(f"{path}: header must be 's,re,im,tail=<value>', got {rows[0]!r}")
    tail = as_complex(header[3][len("tail=") :])
    body = [row for row in rows[1:] if row]
    if len(body) != grid.size:
        raise PresetError(f"{path}: expected {grid.size} rows for the declared grid, got {len(body)}")
    points = grid.points()
    try:  # every (s, re, im) cell in one numpy parse, with the rounding of float()
        values = np.array([cell for row in body for cell in row[:3]], dtype=float).reshape(len(body), 3)
        parsed = len(body)
    except ValueError:  # a short row or a cell that is not a number; the rows before it parse
        parsed = next(k for k, row in enumerate(body) if len(row) < 3 or not all(map(_is_number, row[:3])))
        values = np.array([row[:3] for row in body[:parsed]], dtype=float).reshape(parsed, 3)
    off_grid = np.flatnonzero(np.abs(values[:, 0] - points[:parsed]) > 1e-9)
    if off_grid.size:
        k = off_grid[0]
        raise PresetError(f"{path}: row {k + 2} has s={float(values[k, 0])}, expected grid point {points[k]}")
    if parsed < len(body):
        row = body[parsed]
        problem = "needs 3 columns" if len(row) < 3 else "needs numbers in its first 3 columns"
        raise PresetError(f"{path}: row {parsed + 2} {problem}, got {row!r}")
    samples = np.empty(grid.size, dtype=complex)
    samples.real, samples.imag = values[:, 1], values[:, 2]
    return AlgebraElement(grid, samples, tail)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
