"""Batch experiment driver: every operation of the calculus behind one
JSON-configured command. Each handler returns its CSV tables and its one
JSON report; :func:`main` alone writes them, once the handler has returned.

Exit status: 0 when the report passed or has no verdict; 1 on a tolerance
failure or a numerical failure, such as an exponential that overflows or
any floating-point overflow in a command, which numpy raises; 2 on a
configuration error, which includes an input outside a command's
domain (any :class:`DomainError`), such as a witness zeta that is not
eventually 1 at n, and on an output directory that cannot be written. A
run that exits 2, or 1 on a numerical failure, creates no output directory.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algebra import AlgebraElement, DomainError, GridSpec, constant, judge
from .fock import (
    TAYLOR_TOLERANCE_FLOOR,
    FockUnit,
    generator_unit,
    gram_matrices,
    gram_psd_check,
    kernel,
    semigroup_law_residual,
)
from .presets import PresetError, from_spec
from .selftest import DEFAULT_GRID, DEFAULT_SEED, DEFAULT_TOLERANCES, Pcg64Draws, random_element, random_unit, run_selftest
from .subsystem import (
    CONVEXIFY_DELTA,
    TRUNCATION_NS,
    ConvergenceRow,
    convergence_report,
    convexify,
    index_homomorphism_residuals,
    index_representative,
    membership,
    theta_check,
    witness_step1,
)
from .unit_algebra import (
    COEFFICIENT_SUM_TOLERANCE,
    add,
    boxplus_left,
    boxplus_right,
    coefficients_sum_to_one,
    default_probe_units,
    dual_path_residual,
    left_mul,
    power_beta,
    right_mul,
    semi_inner,
    semi_inner_adjoint_residual,
    wrap,
)

SCHEMA_VERSION = "1"


class ConfigError(DomainError):
    """Bad configuration document."""


@dataclass
class ExperimentConfig:
    grid: GridSpec
    tolerances: dict
    base_dir: Path
    fields: dict = field(default_factory=dict, init=False)  # each given key but grid and tolerances, as _READERS read it


class _Reader(NamedTuple):
    label: str  # the type column of README's config table
    read: Callable  # (config, key, value) -> the field's value


def _integer(value, name: str) -> int:
    """An integer field; an integral float counts, a bool or a fraction does not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _element(config: ExperimentConfig, key: str, spec) -> AlgebraElement:
    """The element of the preset spec given for ``key``."""
    try:
        return from_spec(config.grid, spec, config.base_dir)
    except PresetError as exc:
        raise ConfigError(f"bad {key!r} spec: {exc}") from exc


def _unit(config: ExperimentConfig, key: str, spec) -> FockUnit:
    if not isinstance(spec, dict) or "zeta" not in spec:
        raise ConfigError(f"{key!r} needs unit specs with a 'zeta' member, got {spec!r}")
    _reject_unknown(f"a unit spec of {key!r}", spec, _UNIT_KEYS)
    return FockUnit(_element(config, key, spec["zeta"]), _element(config, key, spec.get("beta", _ZERO)))


def _number(label: str, inside: Callable) -> _Reader:
    """A number, not a bool, for which ``inside`` holds; read as a float."""

    def read(config: ExperimentConfig, key: str, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not inside(value):
            raise ConfigError(f"{key!r} must be a {label}, got {value!r}")
        return float(value)

    return _Reader(label, read)


def _integer_in(low: int, to_grid_end: bool = False) -> _Reader:
    """Integers in [low, S] where ``to_grid_end``, else in [low, inf)."""

    def read(config: ExperimentConfig, key: str, value) -> int:
        n = _integer(value, repr(key))
        if n < low:
            raise ConfigError(f"{key!r} must be at least {low}, got {n}")
        if to_grid_end and n > config.grid.domain_end:
            raise ConfigError(f"{key!r} must be at most {config.grid.domain_end}, got {n}")
        return n

    return _Reader(f"integer in [{low}, S]" if to_grid_end else f"integer >= {low}", read)


def _list_of(item: _Reader, label: str) -> _Reader:
    """A non-empty list of ``item``; an empty one would check nothing."""

    def read(config: ExperimentConfig, key: str, value) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key!r} must be a non-empty list ({label}), got {value!r}")
        return [item.read(config, key, entry) for entry in value]

    return _Reader(label, read)


def _coefficients(config: ExperimentConfig, key: str, value) -> list[AlgebraElement]:
    values = _list_of(_PRESET, "presets").read(config, key, value)
    if not coefficients_sum_to_one(values):
        raise ConfigError(f"{key!r} must sum to the unit element within {COEFFICIENT_SUM_TOLERANCE}")
    return values


def _truncation_ns(grid: GridSpec) -> list[int]:
    """The battery's truncation points cut to those <= S; a grid with none is a config error."""
    ns = [n for n in TRUNCATION_NS if n <= grid.domain_end]
    if not ns:
        raise ConfigError(f"'ns' has no default truncation point n <= S = {grid.domain_end}")
    return ns


_PRESET, _UNIT = _Reader("preset", _element), _Reader("unit", _unit)
_TIME = _number("time >= 0", lambda t: 0 <= t <= sys.float_info.max)  # finite, and so is float(t)

# Key -> reader: every top-level key but grid and tolerances.
_READERS = {
    **dict.fromkeys(("zeta", "beta", "b"), _PRESET),
    "kappa": _Reader("presets summing to 1", _coefficients),
    **dict.fromkeys(("u", "v", "reference", "probe"), _UNIT),
    **dict.fromkeys(("units", "probes"), _list_of(_UNIT, "units")),
    "t_values": _list_of(_TIME, "times >= 0"),
    "t": _TIME,
    "seed": _integer_in(0),
    "cases": _integer_in(1),
    "n": _integer_in(1, to_grid_end=True),
    "ns": _list_of(_integer_in(1, to_grid_end=True), "integers in [1, S]"),
    "delta": _number("number in (0, 1)", lambda x: 0 < x < 1),
}

_ZERO = {"kind": "constant", "value": 0.0}
_ONE = {"kind": "constant", "value": 1.0}
_APPROACH = {"kind": "exp_approach", "c": 1.0, "a": 1.0}  # zeta = 1 + e^{-s}
_PAIR = {"u": {"zeta": _APPROACH}, "v": {"zeta": _ONE}, "b": _ONE}  # u(1 + e^{-s}, 0), u(1, 0) and 1

# Command -> {key: default}: the keys each handler takes. A default is a
# value read like a given one, a function of the grid that returns the
# field, or None where the library picks it.
_DEFAULTS = {
    "kernel": _PAIR,
    "semigroup": {**_PAIR, "t_values": [0.0, 0.5, 1.0, 1.5, 2.0]},
    "gram": {"units": [{"zeta": _ZERO}, {"zeta": _ONE}, {"zeta": _APPROACH}], "b": _ONE, "t_values": [0.5, 1.0]},
    "inner": {**_PAIR, "reference": {"zeta": _ZERO}},
    "unitalg": {"probes": default_probe_units, "seed": DEFAULT_SEED, "cases": 3, "reference": {"zeta": _ZERO}, "kappa": None},
    "membership": {"zeta": _APPROACH, "beta": _ZERO},
    "witness": {
        "zeta": {"kind": "piecewise_linear", "knots": [[0.0, 0.5], [1.0, 1.0]]},
        "n": 1,
        "delta": CONVEXIFY_DELTA,
        "probes": default_probe_units,
    },
    "approx": {"zeta": _APPROACH, "ns": _truncation_ns, "t": 1.0, "probe": None},
    "index": {
        "units": [
            {"zeta": _APPROACH},
            {"zeta": {"kind": "exp_approach", "c": [0.0, 0.5], "a": 1.3}, "beta": {"kind": "constant", "value": 0.2}},
        ],
        "b": {"kind": "exp_approach", "c": 0.5, "a": 1.0},
    },
    "selftest": {"seed": DEFAULT_SEED},
}

# The keys one level down: a grid's, with defaults, and a unit spec's (beta defaults to 0).
_GRID_KEYS = {"m": DEFAULT_GRID.step_denominator, "S": DEFAULT_GRID.domain_end}
_UNIT_KEYS = ("zeta", "beta")


def _command_keys(command: str) -> tuple:
    """The top-level keys ``command`` reads."""
    return ("grid", "tolerances", *_DEFAULTS[command])


def _reject_unknown(where: str, given: dict, known) -> None:
    unknown = [key for key in given if key not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; known keys: {', '.join(known) or 'none'}")


def _distinct_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct; a repeated key would silently keep its last value."""
    given = {}
    for key, value in pairs:
        if key in given:
            raise ConfigError(f"key {key!r} is given twice in one object")
        given[key] = value
    return given


def _tolerance(key: str, value) -> float:
    """A tolerance override: a finite number > 0, or a string that parses
    as one; ``exp`` is at least :data:`TAYLOR_TOLERANCE_FLOOR`."""
    if isinstance(value, bool):
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}")
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance {key!r} must be finite and > 0, got {value!r}")
    if key == "exp" and tol < TAYLOR_TOLERANCE_FLOOR:
        raise ConfigError(f"tolerance 'exp' must be at least {TAYLOR_TOLERANCE_FLOOR:g}, or the Taylor series may not stop in 64 terms; got {value!r}")
    return tol


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    """The config document ``raw``, with every given key read, so a bad
    value fails before any work; a key that no command reads is an error."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown("the config", raw, ("grid", "tolerances", *_READERS))
    grid_spec = raw.get("grid", {})
    if not isinstance(grid_spec, dict):
        raise ConfigError("'grid' must be an object with integer fields m and S")
    _reject_unknown("'grid'", grid_spec, _GRID_KEYS)
    try:
        grid = GridSpec(*(_integer(grid_spec.get(key, default), f"grid field {key!r}") for key, default in _GRID_KEYS.items()))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be an object")
    _reject_unknown("'tolerances'", overrides, DEFAULT_TOLERANCES)
    tolerances = {**DEFAULT_TOLERANCES, **{key: _tolerance(key, value) for key, value in overrides.items()}}
    config = ExperimentConfig(grid, tolerances, base_dir)
    for key, value in raw.items():
        if key in _READERS:
            config.fields[key] = _READERS[key].read(config, key, value)
    return config


def _command_fields(config: ExperimentConfig, command: str) -> dict:
    """The keywords ``command``'s handler takes: each given field, else its
    default, and the value of each tolerance it names as ``<name>_tol``."""
    values = {f"{name}_tol": config.tolerances[name] for name in _TOLERANCES[command]}
    for key, default in _DEFAULTS[command].items():
        if key in config.fields:
            values[key] = config.fields[key]
        elif callable(default):
            values[key] = default(config.grid)
        else:
            values[key] = None if default is None else _READERS[key].read(config, key, default)
    return values


# -- output helpers --------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, rows) -> None:
    """A table whose first row is its header, if it has one."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([_fmt(cell) for cell in row] for row in rows)


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _judged(residual: float, tol: float) -> dict:
    """``passed``, :func:`judge`'s verdict on ``residual`` against ``tol``, and that ``tol``."""
    return {"passed": judge(residual, tol, floor=False)[0], "tolerance": tol}


def _json_complex(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return {"im": z.imag, "re": z.real}


def _element_table(grid: GridSpec, elements: dict[str, AlgebraElement]) -> list:
    """``elements`` by grid point, then the tail; the header is s, then <prefix>re, <prefix>im per prefix."""
    header = ["s", *(f"{prefix}{part}" for prefix in elements for part in ("re", "im"))]
    coords = [e.coordinates for e in elements.values()]
    rows = [[s, *(x for c in coords for x in (float(c[k].real), float(c[k].imag)))] for k, s in enumerate([*grid.points(), "tail"])]
    return [header, *rows]


# -- commands ---------------------------------------------------------------
# Each handler takes the grid, its fields and each tolerance it reads as <name>_tol.
# It returns file name -> content: the .json report's dict, or a .csv table's rows, header first.


def cmd_kernel(grid: GridSpec, *, u, v, b, hermitian_tol) -> dict:
    operator = kernel(u, v)
    adjoint_gap = float(np.max(np.abs(kernel(v, u).bands - np.conj(operator.bands))))
    report = {"operator_norm": operator.operator_norm(), "adjoint_symmetry_residual": adjoint_gap}
    return {
        "kernel_matrix.csv": operator.to_dense(),
        "kernel_action.csv": _element_table(grid, {"b_": b, "Lb_": operator.apply(b)}),
        "kernel_report.json": {**report, **_judged(adjoint_gap, hermitian_tol)},
    }


def cmd_semigroup(grid: GridSpec, *, u, v, b, t_values, exp_tol, semigroup_law_tol) -> dict:
    worst, exps = semigroup_law_residual(u, v, t_values, rel_tol=exp_tol)
    rows = [[t, exps[t].operator_norm(), exps[t].apply(b).sup_norm()] for t in t_values]
    return {
        "semigroup_table.csv": [["t", "operator_norm", "applied_sup_norm"], *rows],
        "semigroup_report.json": {"t_values": t_values, "law_residual": worst, **_judged(worst, semigroup_law_tol)},
    }


def cmd_gram(grid: GridSpec, *, units, b, t_values, psd_tol) -> dict:
    grams = gram_matrices(units, t_values, [b])
    results = [{"t": t, **vars(gram_psd_check(grid, gram, psd_tol))} for t, (gram,) in zip(t_values, grams)]
    return {"gram_report.json": {"passed": all(r["passed"] for r in results), "tolerance": psd_tol, "results": results}}


def cmd_inner(grid: GridSpec, *, u, v, b, reference, inner_hermitian_tol) -> dict:
    x, y = wrap(u, reference), wrap(v, reference)
    value = semi_inner(x, y, b)
    sym_gap = semi_inner_adjoint_residual(x, y, b)
    report = {"sup_norm": value.sup_norm(), "adjoint_symmetry_residual": sym_gap}
    return {
        "inner_table.csv": _element_table(grid, {"": value}),
        "inner_report.json": {**report, **_judged(sym_gap, inner_hermitian_tol)},
    }


def cmd_unitalg(grid: GridSpec, *, probes, seed, cases, reference, kappa, dual_path_tol) -> dict:
    rng = Pcg64Draws(seed)
    one = constant(grid, 1.0)
    rows = []

    def record(name, built):
        rows.append([name, dual_path_residual(built, probes)])

    for case in range(cases):
        record(f"beta_shift[{case}]", power_beta(wrap(random_unit(rng, grid), reference), random_element(rng, grid)))
        coeffs = kappa
        if coeffs is None:
            c1, c2 = random_element(rng, grid), random_element(rng, grid)
            coeffs = [c1, c2, one - c1 - c2]
        units = [random_unit(rng, grid) for _ in coeffs]
        record(f"left_combination[{case}]", boxplus_left(coeffs, units, reference))
        record(f"right_combination[{case}]", boxplus_right(units, coeffs, reference))
        record(f"addition[{case}]", add(wrap(random_unit(rng, grid), reference), wrap(random_unit(rng, grid), reference)))
        record(f"left_multiplication[{case}]", left_mul(random_element(rng, grid), wrap(random_unit(rng, grid), reference)))
        record(f"right_multiplication[{case}]", right_mul(wrap(random_unit(rng, grid), reference), random_element(rng, grid)))
    worst = max(row[1] for row in rows)
    return {
        "unitalg_cases.csv": [["operation", "dual_path_residual"], *rows],
        "unitalg_report.json": {"seed": seed, "cases": len(rows), "max_residual": worst, **_judged(worst, dual_path_tol)},
    }


def cmd_membership(grid: GridSpec, *, zeta, beta, membership_tol) -> dict:
    report = membership(FockUnit(zeta, beta), membership_tol)
    payload = {**vars(report), "zeta_limit": _json_complex(report.zeta_limit), "witness_kind": report.witness_kind.value}
    return {"membership_report.json": payload}


def cmd_witness(grid: GridSpec, *, zeta, n, delta, probes, witness_tol, theta_tol) -> dict:
    alpha, _ = convexify(zeta, n, delta)
    witness = witness_step1(zeta, n)
    theta_residual = theta_check(zeta, n, probes, delta)
    outputs = {}
    if isinstance(witness, str):
        conjugation = {"skipped": witness}
    else:
        residual = witness.max_identity_residual
        conjugation = {"residual": residual, **_judged(residual, witness_tol)}
        outputs["witness_elements.csv"] = _element_table(grid, {"b0_": witness.b0, "b1_": witness.b1})
    convexified = {"alpha": alpha, "delta": delta, "residual": theta_residual, **_judged(theta_residual, theta_tol)}
    passed = conjugation.get("passed", True) and convexified["passed"]
    outputs["witness_report.json"] = {"n": n, "conjugation": conjugation, "convexified": convexified, "passed": passed}
    return outputs


def cmd_approx(grid: GridSpec, *, zeta, ns, t, probe, convergence_threshold_tol, membership_tol) -> dict:
    report = convergence_report(zeta, t, ns, probe, target_threshold=convergence_threshold_tol, membership_tol=membership_tol)
    summary = {key: value for key, value in vars(report).items() if key != "rows"}
    return {
        "approx_table.csv": [[f.name for f in fields(ConvergenceRow)], *map(astuple, report.rows)],
        "approx_report.json": {"t": t, "ns": ns, **summary, "passed": report.passed},
    }


def cmd_index(grid: GridSpec, *, units, b, membership_tol, index_hom_tol) -> dict:
    non_members = [k for k, unit in enumerate(units) if not membership(unit, membership_tol).in_E]
    if non_members:
        return {"index_report.json": {"passed": False, "non_member_units": non_members, "tolerance": membership_tol}}
    representatives = {f"rep{k}_": index_representative(u, membership_tol) for k, u in enumerate(units)}

    xi = generator_unit(grid)
    worst = 0.0
    for x_unit, y_unit in zip(units, units[1:] or units[:1]):
        residuals = index_homomorphism_residuals(wrap(x_unit, xi), wrap(y_unit, xi), b, membership_tol)
        worst = max(worst, *residuals.values())
    return {
        "index_representatives.csv": _element_table(grid, representatives),
        "index_report.json": {"units": len(units), "max_homomorphism_residual": worst, **_judged(worst, index_hom_tol)},
    }


def cmd_selftest(grid: GridSpec, *, seed) -> dict:
    results = run_selftest(grid, seed)
    for row in results:
        print(f"{'PASS' if row.passed else 'FAIL'}  {row.name}: {row.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    spec = {"m": grid.step_denominator, "S": grid.domain_end}
    return {"selftest_report.json": {"seed": seed, "grid": spec, "passed": passed == len(results), "checks": checks}}


_HANDLERS = {
    "kernel": cmd_kernel,
    "semigroup": cmd_semigroup,
    "gram": cmd_gram,
    "inner": cmd_inner,
    "unitalg": cmd_unitalg,
    "membership": cmd_membership,
    "witness": cmd_witness,
    "approx": cmd_approx,
    "index": cmd_index,
    "selftest": cmd_selftest,
}
COMMANDS = tuple(_HANDLERS)

# Command -> each name its handler takes as <name>_tol, read before anything wraps
# the handlers: the only tolerances its config may override, none for the selftest.
_TOLERANCES = {
    command: tuple(name.removesuffix("_tol") for name in inspect.signature(handler).parameters if name.endswith("_tol"))
    for command, handler in _HANDLERS.items()
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fockindex",
        description="Kernel calculus and index computation for time-ordered Fock product systems",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON experiment configuration")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory (default: ./out)")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                raw = json.loads(args.config.read_text(encoding="utf-8"), object_pairs_hook=_distinct_keys)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            base_dir = args.config.parent
        else:
            raw, base_dir = {}, Path.cwd()
        config = parse_config(raw, base_dir)
        _reject_unknown(f"the config of {args.command!r}", raw, _command_keys(args.command))
        _reject_unknown(f"'tolerances' of {args.command!r}", raw.get("tolerances", {}), _TOLERANCES[args.command])
        with np.errstate(over="raise", invalid="raise"):
            outputs = _HANDLERS[args.command](config.grid, **_command_fields(config, args.command))
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            (write_json if name.endswith(".json") else write_csv)(out / name, content)
    except OSError as exc:
        print(f"error: cannot write outputs to {out}: {exc}", file=sys.stderr)
        return 2
    report = next(content for name, content in outputs.items() if name.endswith(".json"))
    if report.get("passed", True):
        print(f"{args.command}: all checks passed; reports in {out}")
        return 0
    print(f"{args.command}: tolerance failure; see reports in {out}", file=sys.stderr)
    return 1

