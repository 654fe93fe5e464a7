"""Named function presets and CSV loading for algebra elements.

Preset specs are plain dicts, e.g. ``{"kind": "exp_approach", "c": 1.0,
"a": 1.0}``. Complex parameters may be given as a number, a two-element
``[re, im]`` list, or a string accepted by :func:`complex`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, DomainError, GridSpec, constant

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


class PresetError(DomainError):
    """A preset spec names an unknown kind or carries bad parameters."""


def _number(value, cast=float):
    """``cast(value)``; a bool is not taken as a number."""
    if isinstance(value, bool):
        raise PresetError(f"expected a number, got {value!r}")
    return cast(value)


def as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise PresetError(f"complex value as a list must be [re, im], got {value!r}")
        return complex(_number(value[0]), _number(value[1]))
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise PresetError(f"cannot parse complex value {value!r}") from exc
    return _number(value, complex)


def exp_approach(grid: GridSpec, c, a) -> AlgebraElement:
    """1 + c*exp(-a*s); tail 1."""
    c = as_complex(c)
    a = _number(a)
    if a <= 0:
        raise PresetError(f"exp_approach needs a > 0, got {a}")
    return AlgebraElement(grid, 1.0 + c * np.exp(-a * grid.points()), 1.0)


def exp_decay(grid: GridSpec, c, a, d=0.0) -> AlgebraElement:
    """c*exp(-a*s) + d; tail d."""
    c, d = as_complex(c), as_complex(d)
    a = _number(a)
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
    is the last knot's, which also becomes the tail. The knot positions s
    must be finite and strictly increasing.
    """
    if not knots:
        raise PresetError("piecewise_linear needs at least one knot")
    xs = [_number(k[0]) for k in knots]
    vs = [as_complex(k[1]) for k in knots]
    if not np.isfinite(xs).all():
        raise PresetError(f"piecewise_linear knots must have finite s, got {xs}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise PresetError("piecewise_linear knots must have strictly increasing s")
    s = grid.points()
    re = np.interp(s, xs, [v.real for v in vs])
    im = np.interp(s, xs, [v.imag for v in vs])
    return AlgebraElement(grid, re + 1j * im, vs[-1])


def _constant(grid: GridSpec, value) -> AlgebraElement:
    return constant(grid, as_complex(value))


def _raw(grid: GridSpec, values, tail) -> AlgebraElement:
    """The samples ``values``; the tail defaults to the last of them."""
    values = [as_complex(v) for v in values]
    if len(values) != grid.size:
        raise PresetError(f"raw preset needs {grid.size} values, got {len(values)}")
    return AlgebraElement(grid, np.array(values, dtype=complex), values[-1] if tail is None else as_complex(tail))


def _csv(grid: GridSpec, path) -> AlgebraElement:
    return load_csv(grid, path)  # looked up at call time, so a traced or patched load_csv runs


# Kind -> (builder, {parameter: default}); ``...`` marks a required parameter.
_PRESETS = {
    "constant": (_constant, {"value": ...}),
    "exp_approach": (exp_approach, {"c": 1.0, "a": 1.0}),
    "exp_decay": (exp_decay, {"c": 1.0, "a": 1.0, "d": 0.0}),
    "inverse_decay": (inverse_decay, {"c": 1.0, "d": 0.0}),
    "piecewise_linear": (piecewise_linear, {"knots": ...}),
    "csv": (_csv, {"path": ...}),
    "raw": (_raw, {"values": ..., "tail": None}),
}
PRESET_KINDS = tuple(_PRESETS)


def from_spec(grid: GridSpec, spec: dict, base_dir: Path | None = None) -> AlgebraElement:
    """Build an element from a preset spec dict: its kind's builder, called
    with the spec's parameters over the kind's defaults. A ``path`` is
    relative to ``base_dir``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PresetError(f"preset spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _PRESETS:
        raise PresetError(f"unknown preset kind {kind!r}; known kinds: {', '.join(PRESET_KINDS)}")
    build, defaults = _PRESETS[kind]
    params = {**defaults, **spec}
    del params["kind"]
    unknown = [name for name in params if name not in defaults]
    if unknown:
        raise PresetError(f"preset {kind!r} has no parameter {unknown[0]!r}; it takes: {', '.join(defaults)}")
    missing = [name for name, value in params.items() if value is ...]
    if missing:
        raise PresetError(f"preset {kind!r} is missing parameter {missing[0]!r}")
    try:
        if "path" in params:
            params["path"] = Path(base_dir or ".") / params["path"]
        return build(grid, **params)
    except PresetError:
        raise
    except (ValueError, TypeError, IndexError, OSError, csv.Error) as exc:  # a value the preset cannot take, or an unreadable file
        raise PresetError(f"preset {kind!r}: {exc}") from exc


def load_csv(grid: GridSpec, path) -> AlgebraElement:
    """Load an element from CSV columns (s, re, im).

    The header row must read ``s,re,im,tail=<value>``; the declared tail
    becomes the element's limit at infinity. Every other row but a blank
    one holds exactly the three cells, and the s column must match the
    grid points to 1e-9; a NaN or infinite s matches none. The re and im
    cells and the tail must be finite. The rows are parsed in order, each
    cell with float(), and the first bad row is named.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise PresetError(f"{path}: empty CSV")
    header = [cell.strip() for cell in rows[0]]
    if len(header) != 4 or header[:3] != ["s", "re", "im"] or not header[3].startswith("tail="):
        raise PresetError(f"{path}: header must be 's,re,im,tail=<value>', got {rows[0]!r}")
    tail = as_complex(header[3][len("tail=") :])
    if not (math.isfinite(tail.real) and math.isfinite(tail.imag)):
        raise PresetError(f"{path}: header has {header[3]}, but tail must be finite")
    body = [row for row in rows[1:] if row]
    if len(body) != grid.size:
        raise PresetError(f"{path}: expected {grid.size} rows for the declared grid, got {len(body)}")
    points = grid.points()
    samples = np.empty(grid.size, dtype=complex)
    for k, row in enumerate(body):  # row k + 2 counts the header and the non-empty rows
        if len(row) != 3:
            raise PresetError(f"{path}: row {k + 2} needs 3 columns, got {row!r}")
        try:
            s, re, im = map(float, row)
        except ValueError:
            raise PresetError(f"{path}: row {k + 2} needs numbers in its first 3 columns, got {row!r}") from None
        if not abs(s - points[k]) <= 1e-9:  # a NaN s too
            raise PresetError(f"{path}: row {k + 2} has s={s}, expected grid point {points[k]}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise PresetError(f"{path}: row {k + 2} has re={re}, im={im}, but samples must be finite")
        samples[k] = complex(re, im)
    return AlgebraElement(grid, samples, tail)
