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
from .selftest import DEFAULT_SEED, DEFAULT_TOLERANCES, MIN_GRID_END, random_element, random_unit, run_selftest
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
    raw: dict
    base_dir: Path
    elements: dict = field(default_factory=dict, init=False)  # built from preset specs, keyed by repr(spec)

    def element(self, key: str, default_spec: dict | None = None) -> AlgebraElement:
        return self._preset(self.raw.get(key, default_spec), repr(key))

    def _list(self, key: str, default: list | None, what: str) -> list:
        """The list field ``key``; an empty list is an error, since a run over it would check nothing."""
        value = self.raw.get(key, default)
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key!r} must be a non-empty list of {what}, got {value!r}")
        return value

    def element_list(self, key: str, default_specs: list | None = None) -> list[AlgebraElement]:
        return [self._preset(spec, repr(key)) for spec in self._list(key, default_specs, "preset specs")]

    def unit(self, key: str = None, spec: dict | None = None, default: dict | None = None) -> FockUnit:
        if spec is None:
            spec = self.raw.get(key, default)
        if not isinstance(spec, dict) or "zeta" not in spec:
            raise ConfigError(f"a unit spec needs a 'zeta' member, got {spec!r}")
        return FockUnit(self._preset(spec["zeta"], "unit"), self._preset(spec.get("beta", _ZERO), "unit"))

    def _preset(self, spec, what: str) -> AlgebraElement:
        """The element of ``spec``, built once per distinct spec (parse_config builds every field first)."""
        key = repr(spec)
        if key not in self.elements:
            try:
                self.elements[key] = from_spec(self.grid, spec, self.base_dir)
            except PresetError as exc:
                raise ConfigError(f"bad {what} spec: {exc}") from exc
        return self.elements[key]

    def coefficients(self, key: str) -> list[AlgebraElement]:
        """The element list ``key``, which must sum to the unit element."""
        values = self.element_list(key)
        if not coefficients_sum_to_one(values):
            raise ConfigError(f"{key!r} must sum to the unit element within {COEFFICIENT_SUM_TOLERANCE}")
        return values

    def unit_list(self, key: str, default_specs: list | None = None) -> list[FockUnit]:
        return [self.unit(spec=spec) for spec in self._list(key, default_specs, "unit specs")]

    def probes(self) -> list[FockUnit]:
        if "probes" in self.raw:
            return self.unit_list("probes")
        return default_probe_units(self.grid)

    def times(self, key: str, default):
        """The time field ``key``: a list of finite numbers >= 0, or one
        such number where ``default`` is one."""
        if not isinstance(default, list):
            return _time(key, self.raw.get(key, default))
        return [_time(key, t) for t in self._list(key, default, "times")]

    def fraction(self, key: str, default: float) -> float:
        """The field ``key``: a number strictly between 0 and 1, not a bool."""
        value = self.raw.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < 1:
            raise ConfigError(f"{key!r} must be a number in (0, 1), got {value!r}")
        return float(value)

    def integer(self, key: str, default, low: int, high: int | None = None):
        """The integer field ``key``, in [low, high]: a list of them where
        ``default`` is a list, else one. An integral float counts, a bool
        or a fraction does not."""
        if isinstance(default, list):
            return [_bounded(key, _integer(n, repr(key)), low, high) for n in self._list(key, default, "integers")]
        return _bounded(key, _integer(self.raw.get(key, default), repr(key)), low, high)


_ZERO = {"kind": "constant", "value": 0.0}
_ONE = {"kind": "constant", "value": 1.0}
_APPROACH = {"kind": "exp_approach", "c": 1.0, "a": 1.0}  # zeta = 1 + e^{-s}
_DEFAULT_WITNESS_ZETA = {"kind": "piecewise_linear", "knots": [[0.0, 0.5], [1.0, 1.0]]}

# Every top-level key that carries elements, with the reader that builds it.
# parse_config reads each one present, so a bad spec fails before any work
# whichever command reads it; the element cache builds each spec once.
_ELEMENT_FIELDS = {
    **dict.fromkeys(("zeta", "beta", "b"), "element"),
    "kappa": "coefficients",
    **dict.fromkeys(("u", "v", "reference", "unit", "probe"), "unit"),
    **dict.fromkeys(("units", "probes"), "unit_list"),
}


def _integer(value, name: str) -> int:
    """An integer field; an integral float counts, a bool or a fraction does not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _bounded(key: str, n: int, low: int, high: int | None) -> int:
    if n < low:
        raise ConfigError(f"{key!r} must be at least {low}, got {n}")
    if high is not None and n > high:
        raise ConfigError(f"{key!r} must be at most {high}, got {n}")
    return n


def _time(key: str, value) -> float:
    """A time: a finite number >= 0, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} needs times that are numbers, got {value!r}")
    t = float(value)
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError(f"{key!r} needs times that are finite and >= 0, got {value!r}")
    return t


def _tolerance(key: str, value) -> float:
    """A tolerance override: a finite number > 0, or a string that parses as one."""
    if isinstance(value, bool):
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}")
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance {key!r} must be finite and > 0, got {value!r}")
    return tol


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    grid_spec = raw.get("grid", {})
    if not isinstance(grid_spec, dict):
        raise ConfigError("'grid' must be an object with integer fields m and S")
    try:
        m = _integer(grid_spec.get("m", 4), "grid field 'm'")
        end = _integer(grid_spec.get("S", 40), "grid field 'S'")
        grid = GridSpec(m, end)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be an object")
    for key, value in overrides.items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {key!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}")
        tolerances[key] = _tolerance(key, value)
    config = ExperimentConfig(grid, tolerances, raw, base_dir)
    for key, reader in _ELEMENT_FIELDS.items():
        if key in raw:
            getattr(config, reader)(key)
    return config


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


def _pair_and_b(config: ExperimentConfig) -> tuple:
    """``u``, ``v`` and ``b`` of kernel, semigroup and inner; by default u(1 + e^{-s}, 0), u(1, 0) and 1."""
    return config.unit("u", default={"zeta": _APPROACH}), config.unit("v", default={"zeta": _ONE}), config.element("b", _ONE)


def cmd_kernel(config: ExperimentConfig, out: Path) -> int:
    u, v, b = _pair_and_b(config)
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


def cmd_semigroup(config: ExperimentConfig, out: Path) -> int:
    u, v, b = _pair_and_b(config)
    t_values = config.times("t_values", [0.0, 0.5, 1.0, 1.5, 2.0])
    exp_tol = config.tolerances["exp"]
    worst, exps = semigroup_law_residual(u, v, t_values, rel_tol=exp_tol)
    rows = [[t, exps[t].operator_norm(), exps[t].apply(b).sup_norm()] for t in t_values]
    write_csv(out / "semigroup_table.csv", ["t", "operator_norm", "applied_sup_norm"], rows)
    payload = {"t_values": t_values, "law_residual": worst}
    return _verdict(config, out / "semigroup_report.json", payload, worst, "semigroup_law")


def cmd_gram(config: ExperimentConfig, out: Path) -> int:
    units = config.unit_list("units", [{"zeta": _ZERO}, {"zeta": _ONE}, {"zeta": _APPROACH}])
    b = config.element("b", _ONE)
    if not b.is_positive():
        raise ConfigError("'b' must be a positive element for the Gram check")
    t_values = config.times("t_values", [0.5, 1.0])
    tol = config.tolerances["psd"]
    results = []
    all_passed = True
    for t, (gram,) in zip(t_values, gram_matrices(units, t_values, [b])):
        report = gram_psd_check(gram, tol)
        all_passed = all_passed and report.passed
        results.append({"t": t, **vars(report), "entries": report.json_entries()})
    write_json(out / "gram_report.json", {"passed": all_passed, "tolerance": tol, "results": results})
    return 0 if all_passed else 1


def cmd_inner(config: ExperimentConfig, out: Path) -> int:
    u, v, b = _pair_and_b(config)
    reference = config.unit("reference", default={"zeta": _ZERO})
    x, y = wrap(u, reference), wrap(v, reference)
    value = semi_inner(x, y, b)
    write_csv(out / "inner_table.csv", ["s", "re", "im"], _element_rows(config.grid, [value]))
    sym_gap = semi_inner_adjoint_residual(x, y, b)
    payload = {"sup_norm": value.sup_norm(), "adjoint_symmetry_residual": sym_gap}
    return _verdict(config, out / "inner_report.json", payload, sym_gap, "inner_hermitian")


def cmd_unitalg(config: ExperimentConfig, out: Path) -> int:
    grid = config.grid
    probes = config.probes()
    seed = config.integer("seed", DEFAULT_SEED, 0)
    cases = config.integer("cases", 3, 1)
    rng = np.random.default_rng(seed)
    one = constant(grid, 1.0)
    reference = config.unit("reference", default={"zeta": _ZERO})
    kappa = config.coefficients("kappa") if "kappa" in config.raw else None
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


def cmd_membership(config: ExperimentConfig, out: Path) -> int:
    unit = config.unit("unit", default={"zeta": config.raw.get("zeta", _APPROACH), "beta": config.raw.get("beta", _ZERO)})
    report = membership(unit, config.tolerances["membership"])
    payload = {**vars(report), "zeta_limit": _json_complex(report.zeta_limit), "witness_kind": report.witness_kind.value}
    write_json(out / "membership_report.json", payload)
    return 0


def cmd_witness(config: ExperimentConfig, out: Path) -> int:
    zeta = config.element("zeta", _DEFAULT_WITNESS_ZETA)
    n = config.integer("n", 1, 1, config.grid.domain_end)
    delta = config.fraction("delta", 0.1)
    probes = config.probes()
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


def cmd_approx(config: ExperimentConfig, out: Path) -> int:
    zeta = config.element("zeta", _APPROACH)
    end = config.grid.domain_end
    ns = config.integer("ns", [n for n in TRUNCATION_NS if n <= end], 1, end)
    t = config.times("t", 1.0)
    probe = config.unit("probe") if "probe" in config.raw else None
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


def cmd_index(config: ExperimentConfig, out: Path) -> int:
    units = config.unit_list(
        "units",
        [
            {"zeta": _APPROACH},
            {"zeta": {"kind": "exp_approach", "c": [0.0, 0.5], "a": 1.3}, "beta": {"kind": "constant", "value": 0.2}},
        ],
    )
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
    a = config.element("b", {"kind": "exp_approach", "c": 0.5, "a": 1.0})
    worst = 0.0
    for x_unit, y_unit in zip(units, units[1:] or units[:1]):
        residuals = index_homomorphism_residuals(wrap(x_unit, xi), wrap(y_unit, xi), a, tol_membership)
        worst = max(worst, *residuals.values())
    payload = {"units": len(units), "max_homomorphism_residual": worst}
    return _verdict(config, out / "index_report.json", payload, worst, "index_hom")


def cmd_selftest(config: ExperimentConfig, out: Path) -> int:
    if "tolerances" in config.raw:
        raise ConfigError("the selftest runs at its pinned tolerances; remove the 'tolerances' block")
    if config.grid.domain_end < MIN_GRID_END:
        raise ConfigError(f"the selftest needs a grid end S >= {MIN_GRID_END}, got S = {config.grid.domain_end}")
    seed = config.integer("seed", DEFAULT_SEED, 0)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    try:
        status = _HANDLERS[args.command](config, out)
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
