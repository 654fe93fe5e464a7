"""Batch experiment driver: every operation of the calculus behind one
JSON-configured command, emitting deterministic CSV tables and JSON
verdicts.

Exit status: 0 when all requested checks pass their tolerances, 1 on a
tolerance failure, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algebra import AlgebraElement, GridSpec, constant
from .fock import (
    FockUnit,
    generator_unit,
    gram_matrices,
    gram_psd_check,
    kernel,
    kernel_to_csv,
    semigroup_law_residual,
)
from .presets import PresetError, from_spec
from .selftest import DEFAULT_GRID, DEFAULT_SEED, DEFAULT_TOLERANCES, MIN_GRID_END, random_element, random_unit, run_selftest
from .subsystem import (
    TRUNCATION_NS,
    ConvergenceRow,
    NotAMemberError,
    convergence_report,
    convexify,
    index_homomorphism_residuals,
    index_representative,
    membership,
    step1_grid_end,
    step1_positive,
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


class ConfigError(ValueError):
    """Bad configuration document."""


@dataclass
class ExperimentConfig:
    grid: GridSpec
    tolerances: dict
    base_dir: Path
    fields: dict = field(default_factory=dict, init=False)  # each given key but grid and tolerances, as _READERS read it
    elements: dict = field(default_factory=dict, init=False)  # built from preset specs, keyed by repr(spec)


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
    """The element of a preset spec, built once per distinct spec."""
    name = repr(spec)
    if name not in config.elements:
        try:
            config.elements[name] = from_spec(config.grid, spec, config.base_dir)
        except PresetError as exc:
            raise ConfigError(f"bad {key!r} spec: {exc}") from exc
    return config.elements[name]


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
        "delta": 0.1,
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
    """The top-level keys ``command`` reads. The selftest runs at its pinned tolerances, so it reads no 'tolerances'."""
    return ("grid", *(("tolerances",) if command != "selftest" else ()), *_DEFAULTS[command])


def _reject_unknown(where: str, given: dict, known) -> None:
    unknown = [key for key in given if key not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; known keys: {', '.join(known)}")


def _tolerance(key: str, value) -> float:
    """A tolerance override: a finite number > 0, or a string that parses as one."""
    if isinstance(value, bool):
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}")
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance {key!r} must be finite and > 0, got {value!r}")
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
    """The fields ``command``'s handler takes: each given one, else its default."""
    values = {}
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


def write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _judged(config: ExperimentConfig, residual: float, tolerance: str) -> dict:
    """``passed`` (whether ``residual`` is within the tolerance named ``tolerance``) and that ``tolerance``."""
    tol = config.tolerances[tolerance]
    return {"passed": residual <= tol, "tolerance": tol}


def _verdict(config: ExperimentConfig, path: Path, payload: dict, residual: float, tolerance: str) -> int:
    """Write ``payload`` judged by :func:`_judged`; the exit status is 0 if it passed."""
    payload = {**payload, **_judged(config, residual, tolerance)}
    write_json(path, payload)
    return 0 if payload["passed"] else 1


def _json_complex(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return {"im": z.imag, "re": z.real}


def _element_rows(grid: GridSpec, elements: list[AlgebraElement]) -> list:
    points = list(grid.points()) + ["tail"]
    coords = [e.coordinates for e in elements]
    rows = []
    for k, s in enumerate(points):
        row = [s]
        for c in coords:
            row.extend([float(c[k].real), float(c[k].imag)])
        rows.append(row)
    return rows


# -- commands ---------------------------------------------------------------


def cmd_kernel(config: ExperimentConfig, out: Path, *, u, v, b) -> int:
    operator = kernel(u, v)
    kernel_to_csv(operator, out / "kernel_matrix.csv")
    applied = operator.apply(b)
    write_csv(
        out / "kernel_action.csv",
        ["s", "b_re", "b_im", "Lb_re", "Lb_im"],
        _element_rows(config.grid, [b, applied]),
    )
    adjoint_gap = float(np.max(np.abs(kernel(v, u).bands - np.conj(operator.bands))))
    payload = {"operator_norm": operator.operator_norm(), "adjoint_symmetry_residual": adjoint_gap}
    return _verdict(config, out / "kernel_report.json", payload, adjoint_gap, "hermitian")


def cmd_semigroup(config: ExperimentConfig, out: Path, *, u, v, b, t_values) -> int:
    exp_tol = config.tolerances["exp"]
    worst, exps = semigroup_law_residual(u, v, t_values, rel_tol=exp_tol)
    rows = [[t, exps[t].operator_norm(), exps[t].apply(b).sup_norm()] for t in t_values]
    write_csv(out / "semigroup_table.csv", ["t", "operator_norm", "applied_sup_norm"], rows)
    payload = {"t_values": t_values, "law_residual": worst}
    return _verdict(config, out / "semigroup_report.json", payload, worst, "semigroup_law")


def cmd_gram(config: ExperimentConfig, out: Path, *, units, b, t_values) -> int:
    if not b.is_positive():
        raise ConfigError("'b' must be a positive element for the Gram check")
    tol = config.tolerances["psd"]
    results = []
    all_passed = True
    for t, (gram,) in zip(t_values, gram_matrices(units, t_values, [b])):
        report = gram_psd_check(gram, tol)
        all_passed = all_passed and report.passed
        results.append({"t": t, **vars(report), "entries": report.json_entries()})
    write_json(out / "gram_report.json", {"passed": all_passed, "tolerance": tol, "results": results})
    return 0 if all_passed else 1


def cmd_inner(config: ExperimentConfig, out: Path, *, u, v, b, reference) -> int:
    x, y = wrap(u, reference), wrap(v, reference)
    value = semi_inner(x, y, b)
    write_csv(out / "inner_table.csv", ["s", "re", "im"], _element_rows(config.grid, [value]))
    sym_gap = semi_inner_adjoint_residual(x, y, b)
    payload = {"sup_norm": value.sup_norm(), "adjoint_symmetry_residual": sym_gap}
    return _verdict(config, out / "inner_report.json", payload, sym_gap, "inner_hermitian")


def cmd_unitalg(config: ExperimentConfig, out: Path, *, probes, seed, cases, reference, kappa) -> int:
    grid = config.grid
    rng = np.random.default_rng(seed)
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
    write_csv(out / "unitalg_cases.csv", ["operation", "dual_path_residual"], rows)
    worst = max(row[1] for row in rows)
    payload = {"seed": seed, "cases": len(rows), "max_residual": worst}
    return _verdict(config, out / "unitalg_report.json", payload, worst, "dual_path")


def cmd_membership(config: ExperimentConfig, out: Path, *, zeta, beta) -> int:
    report = membership(FockUnit(zeta, beta), config.tolerances["membership"])
    payload = {**vars(report), "zeta_limit": _json_complex(report.zeta_limit), "witness_kind": report.witness_kind.value}
    write_json(out / "membership_report.json", payload)
    return 0


def cmd_witness(config: ExperimentConfig, out: Path, *, zeta, n, delta, probes) -> int:
    eligible = step1_positive(zeta, n)
    if eligible and config.grid.domain_end < step1_grid_end(n):
        raise ConfigError(f"'n' = {n} needs a grid end S >= 2n for the conjugation witness, got S = {config.grid.domain_end}")
    conjugation = {"skipped": "zeta is not strictly positive below n"}
    if eligible:
        witness = witness_step1(zeta, n)
        residual = witness.max_identity_residual
        conjugation = {"residual": residual, **_judged(config, residual, "witness")}
        write_csv(
            out / "witness_elements.csv",
            ["s", "b0_re", "b0_im", "b1_re", "b1_im"],
            _element_rows(config.grid, [witness.b0, witness.b1]),
        )
    alpha, _ = convexify(zeta, n, delta)
    residual = theta_check(zeta, n, probes, delta)
    convexified = {"alpha": alpha, "delta": delta, "residual": residual, **_judged(config, residual, "theta")}
    passed = conjugation.get("passed", True) and convexified["passed"]
    write_json(out / "witness_report.json", {"n": n, "conjugation": conjugation, "convexified": convexified, "passed": passed})
    return 0 if passed else 1


def cmd_approx(config: ExperimentConfig, out: Path, *, zeta, ns, t, probe) -> int:
    try:
        tolerances = config.tolerances
        report = convergence_report(
            zeta, t, ns, probe, target_threshold=tolerances["convergence_threshold"], membership_tol=tolerances["membership"]
        )
    except NotAMemberError as exc:
        raise ConfigError(f"bad 'zeta': {exc}") from exc
    write_csv(out / "approx_table.csv", [f.name for f in fields(ConvergenceRow)], [astuple(row) for row in report.rows])
    summary = {key: value for key, value in vars(report).items() if key != "rows"}
    write_json(out / "approx_report.json", {"t": t, "ns": ns, **summary, "passed": report.passed})
    return 0 if report.passed else 1


def cmd_index(config: ExperimentConfig, out: Path, *, units, b) -> int:
    tol_membership = config.tolerances["membership"]
    non_members = [k for k, unit in enumerate(units) if not membership(unit, tol_membership).in_E]
    if non_members:
        write_json(
            out / "index_report.json",
            {"passed": False, "non_member_units": non_members, "tolerance": tol_membership},
        )
        return 1
    representatives = [index_representative(u, tol_membership) for u in units]
    header = ["s"] + [f"rep{k}_{part}" for k in range(len(units)) for part in ("re", "im")]
    write_csv(out / "index_representatives.csv", header, _element_rows(config.grid, representatives))

    xi = generator_unit(config.grid)
    worst = 0.0
    for x_unit, y_unit in zip(units, units[1:] or units[:1]):
        residuals = index_homomorphism_residuals(wrap(x_unit, xi), wrap(y_unit, xi), b, tol_membership)
        worst = max(worst, *residuals.values())
    payload = {"units": len(units), "max_homomorphism_residual": worst}
    return _verdict(config, out / "index_report.json", payload, worst, "index_hom")


def cmd_selftest(config: ExperimentConfig, out: Path, *, seed) -> int:
    if config.grid.domain_end < MIN_GRID_END:
        raise ConfigError(f"the selftest needs a grid end S >= {MIN_GRID_END}, got S = {config.grid.domain_end}")
    results = run_selftest(config.grid, seed)
    for row in results:
        print(f"{'PASS' if row.passed else 'FAIL'}  {row.name}: {row.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    write_json(
        out / "selftest_report.json",
        {
            "seed": seed,
            "grid": {"m": config.grid.step_denominator, "S": config.grid.domain_end},
            "passed": passed == len(results),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        },
    )
    return 0 if passed == len(results) else 1


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
                raw = json.loads(args.config.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            base_dir = args.config.parent
        else:
            raw, base_dir = {}, Path.cwd()
        config = parse_config(raw, base_dir)
        _reject_unknown(f"the config of {args.command!r}", raw, _command_keys(args.command))
        fields = _command_fields(config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    try:
        status = _HANDLERS[args.command](config, out, **fields)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status == 0:
        print(f"{args.command}: all checks passed; reports in {out}")
    else:
        print(f"{args.command}: tolerance failure; see reports in {out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
