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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, GridSpec, constant
from .fock import (
    FockUnit,
    gram_matrices,
    gram_psd_check,
    kernel,
    kernel_to_csv,
    semigroup_law_residual,
)
from .presets import PresetError, from_spec
from .selftest import DEFAULT_SEED, run_selftest
from .subsystem import (
    NotAMemberError,
    convergence_report,
    convexify,
    index_representative,
    membership,
    theta_check,
    witness_step1,
)
from .unit_algebra import (
    add,
    boxplus_left,
    boxplus_right,
    default_probe_units,
    dual_path_residual,
    left_mul,
    power_beta,
    right_mul,
    semi_inner,
    wrap,
)

SCHEMA_VERSION = "1"

COMMANDS = (
    "kernel",
    "semigroup",
    "gram",
    "inner",
    "unitalg",
    "membership",
    "witness",
    "approx",
    "index",
    "selftest",
)

DEFAULT_TOLERANCES = {
    "membership": 1e-9,
    "psd": 1e-10,
    "exp": 1e-12,
    "semigroup_law": 1e-9,
    "hermitian": 1e-13,
    "dual_path": 1e-11,
    "witness": 1e-12,
    "theta": 1e-10,
    "index_hom": 1e-11,
    "inner_hermitian": 1e-12,
    "convergence_threshold": 0.05,
}


class ConfigError(ValueError):
    """Bad configuration document."""


@dataclass
class ExperimentConfig:
    grid: GridSpec
    tolerances: dict
    raw: dict
    base_dir: Path

    def element(self, key: str, default_spec: dict | None = None) -> AlgebraElement:
        spec = self.raw.get(key, default_spec)
        if spec is None:
            raise ConfigError(f"config needs a {key!r} preset spec")
        try:
            return from_spec(self.grid, spec, self.base_dir)
        except PresetError as exc:
            raise ConfigError(f"bad {key!r} spec: {exc}") from exc

    def element_list(self, key: str, default_specs: list | None = None) -> list[AlgebraElement]:
        specs = self.raw.get(key, default_specs)
        if specs is None:
            raise ConfigError(f"config needs a {key!r} list of preset specs")
        if not isinstance(specs, list):
            raise ConfigError(f"{key!r} must be a list of preset specs")
        try:
            return [from_spec(self.grid, spec, self.base_dir) for spec in specs]
        except PresetError as exc:
            raise ConfigError(f"bad {key!r} spec: {exc}") from exc

    def unit(self, key: str = None, spec: dict | None = None, default: dict | None = None) -> FockUnit:
        if spec is None:
            spec = self.raw.get(key, default)
        if spec is None:
            raise ConfigError(f"config needs a {key!r} unit spec")
        if not isinstance(spec, dict) or "zeta" not in spec:
            raise ConfigError(f"a unit spec needs a 'zeta' member, got {spec!r}")
        try:
            zeta = from_spec(self.grid, spec["zeta"], self.base_dir)
            beta = from_spec(self.grid, spec.get("beta", {"kind": "constant", "value": 0.0}), self.base_dir)
        except PresetError as exc:
            raise ConfigError(f"bad unit spec: {exc}") from exc
        return FockUnit(zeta, beta)

    def unit_list(self, key: str, default_specs: list | None = None) -> list[FockUnit]:
        specs = self.raw.get(key, default_specs)
        if specs is None:
            raise ConfigError(f"config needs a {key!r} list of unit specs")
        if not isinstance(specs, list):
            raise ConfigError(f"{key!r} must be a list of unit specs")
        return [self.unit(spec=spec) for spec in specs]

    def probes(self) -> list[FockUnit]:
        if "probes" in self.raw:
            return self.unit_list("probes")
        return default_probe_units(self.grid)

    def times(self, key: str, default):
        """The time field ``key``: a list of finite numbers >= 0, or one
        such number where ``default`` is one."""
        value = self.raw.get(key, default)
        if not isinstance(default, list):
            return _time(key, value)
        if not isinstance(value, list):
            raise ConfigError(f"{key!r} must be a list of times, got {value!r}")
        return [_time(key, t) for t in value]

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
        value = self.raw.get(key, default)
        if isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"{key!r} must be a list of integers, got {value!r}")
            return [_bounded(key, _integer(n, repr(key)), low, high) for n in value]
        return _bounded(key, _integer(value, repr(key)), low, high)


_DEFAULT_UNIT = {"zeta": {"kind": "exp_approach", "c": 1.0, "a": 1.0}}
_DEFAULT_SECOND_UNIT = {"zeta": {"kind": "constant", "value": 1.0}}
_DEFAULT_WITNESS_ZETA = {"kind": "piecewise_linear", "knots": [[0.0, 0.5], [1.0, 1.0]]}


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
    # parse every element-bearing field now so bad presets fail before any work
    for key in ("zeta", "beta", "b"):
        if key in raw:
            config.element(key)
    if "kappa" in raw:
        config.element_list("kappa")
    for key in ("units", "probes"):
        if key in raw:
            config.unit_list(key)
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


def cmd_kernel(config: ExperimentConfig, out: Path) -> int:
    u = config.unit("u", default=_DEFAULT_UNIT)
    v = config.unit("v", default=_DEFAULT_SECOND_UNIT)
    b = config.element("b", {"kind": "constant", "value": 1.0})
    operator = kernel(u, v)
    kernel_to_csv(operator, out / "kernel_matrix.csv")
    applied = operator.apply(b)
    write_csv(
        out / "kernel_action.csv",
        ["s", "b_re", "b_im", "Lb_re", "Lb_im"],
        _element_rows(config.grid, [b, applied]),
    )
    adjoint_gap = float(np.max(np.abs(kernel(v, u).bands - np.conj(operator.bands))))
    tol = config.tolerances["hermitian"]
    write_json(
        out / "kernel_report.json",
        {
            "operator_norm": operator.operator_norm(),
            "adjoint_symmetry_residual": adjoint_gap,
            "passed": adjoint_gap <= tol,
            "tolerance": tol,
        },
    )
    return 0 if adjoint_gap <= tol else 1


def cmd_semigroup(config: ExperimentConfig, out: Path) -> int:
    u = config.unit("u", default=_DEFAULT_UNIT)
    v = config.unit("v", default=_DEFAULT_SECOND_UNIT)
    b = config.element("b", {"kind": "constant", "value": 1.0})
    t_values = config.times("t_values", [0.0, 0.5, 1.0, 1.5, 2.0])
    exp_tol = config.tolerances["exp"]
    worst, exps = semigroup_law_residual(u, v, t_values, rel_tol=exp_tol)
    rows = [[t, exps[t].operator_norm(), exps[t].apply(b).sup_norm()] for t in t_values]
    write_csv(out / "semigroup_table.csv", ["t", "operator_norm", "applied_sup_norm"], rows)
    tol = config.tolerances["semigroup_law"]
    write_json(
        out / "semigroup_report.json",
        {"t_values": t_values, "law_residual": worst, "passed": worst <= tol, "tolerance": tol},
    )
    return 0 if worst <= tol else 1


def cmd_gram(config: ExperimentConfig, out: Path) -> int:
    units = config.unit_list(
        "units",
        [
            {"zeta": {"kind": "constant", "value": 0.0}},
            {"zeta": {"kind": "constant", "value": 1.0}},
            {"zeta": {"kind": "exp_approach", "c": 1.0, "a": 1.0}},
        ],
    )
    b = config.element("b", {"kind": "constant", "value": 1.0})
    if not b.is_positive():
        raise ConfigError("'b' must be a positive element for the Gram check")
    t_values = config.times("t_values", [0.5, 1.0])
    tol = config.tolerances["psd"]
    results = []
    all_passed = True
    for t, (gram,) in zip(t_values, gram_matrices(units, t_values, [b])):
        report = gram_psd_check(gram, tol)
        all_passed = all_passed and report.passed
        results.append(
            {
                "t": t,
                "passed": report.passed,
                "min_eigenvalue": report.min_eigenvalue,
                "argmin_point": report.argmin_point,
                "entries": report.json_entries(),
            }
        )
    write_json(out / "gram_report.json", {"passed": all_passed, "tolerance": tol, "results": results})
    return 0 if all_passed else 1


def cmd_inner(config: ExperimentConfig, out: Path) -> int:
    u = config.unit("u", default=_DEFAULT_UNIT)
    v = config.unit("v", default=_DEFAULT_SECOND_UNIT)
    reference = config.unit("reference", default={"zeta": {"kind": "constant", "value": 0.0}})
    b = config.element("b", {"kind": "constant", "value": 1.0})
    x, y = wrap(u, reference), wrap(v, reference)
    value = semi_inner(x, y, b)
    write_csv(out / "inner_table.csv", ["s", "re", "im"], _element_rows(config.grid, [value]))
    sym_gap = (value - semi_inner(y, x, b.star()).star()).sup_norm()
    tol = config.tolerances["inner_hermitian"]
    write_json(
        out / "inner_report.json",
        {"sup_norm": value.sup_norm(), "adjoint_symmetry_residual": sym_gap, "passed": sym_gap <= tol, "tolerance": tol},
    )
    return 0 if sym_gap <= tol else 1


def cmd_unitalg(config: ExperimentConfig, out: Path) -> int:
    grid = config.grid
    probes = config.probes()
    seed = config.integer("seed", DEFAULT_SEED, 0)
    cases = config.integer("cases", 3, 1)
    rng = np.random.default_rng(seed)
    from .selftest import _random_element, _random_unit  # deterministic draws shared with the selftest

    one = constant(grid, 1.0)
    reference = config.unit("reference", default={"zeta": {"kind": "constant", "value": 0.0}})
    kappa = config.element_list("kappa", None) if "kappa" in config.raw else None
    rows = []

    def record(name, built):
        rows.append([name, dual_path_residual(built, probes)])

    for case in range(cases):
        record(f"beta_shift[{case}]", power_beta(wrap(_random_unit(rng, grid), reference), _random_element(rng, grid)))
        if kappa is not None:
            units = [_random_unit(rng, grid) for _ in kappa]
            record(f"left_combination[{case}]", boxplus_left(kappa, units, reference))
            record(f"right_combination[{case}]", boxplus_right(units, kappa, reference))
        else:
            c1, c2 = _random_element(rng, grid), _random_element(rng, grid)
            coeffs = [c1, c2, one - c1 - c2]
            units = [_random_unit(rng, grid) for _ in range(3)]
            record(f"left_combination[{case}]", boxplus_left(coeffs, units, reference))
            record(f"right_combination[{case}]", boxplus_right(units, coeffs, reference))
        record(f"addition[{case}]", add(wrap(_random_unit(rng, grid), reference), wrap(_random_unit(rng, grid), reference)))
        record(f"left_multiplication[{case}]", left_mul(_random_element(rng, grid), wrap(_random_unit(rng, grid), reference)))
        record(f"right_multiplication[{case}]", right_mul(wrap(_random_unit(rng, grid), reference), _random_element(rng, grid)))
    write_csv(out / "unitalg_cases.csv", ["operation", "dual_path_residual"], rows)
    worst = max(row[1] for row in rows)
    tol = config.tolerances["dual_path"]
    write_json(
        out / "unitalg_report.json",
        {"seed": seed, "cases": len(rows), "max_residual": worst, "passed": worst <= tol, "tolerance": tol},
    )
    return 0 if worst <= tol else 1


def cmd_membership(config: ExperimentConfig, out: Path) -> int:
    unit = config.unit("unit", default={"zeta": config.raw.get("zeta", {"kind": "exp_approach", "c": 1.0, "a": 1.0}), "beta": config.raw.get("beta", {"kind": "constant", "value": 0.0})})
    report = membership(unit, config.tolerances["membership"])
    write_json(
        out / "membership_report.json",
        {
            "in_E": report.in_E,
            "zeta_limit": _json_complex(report.zeta_limit),
            "distance_to_one": report.distance_to_one,
            "witness_kind": report.witness_kind.value,
            "details": report.details,
            "warnings": list(report.warnings),
        },
    )
    return 0


def cmd_witness(config: ExperimentConfig, out: Path) -> int:
    zeta = config.element("zeta", _DEFAULT_WITNESS_ZETA)
    n = config.integer("n", 1, 1, config.grid.domain_end)
    delta = config.fraction("delta", 0.1)
    probes = config.probes()
    witness_tol = config.tolerances["witness"]
    theta_tol = config.tolerances["theta"]
    payload = {"n": n}
    passed = True

    step1_eligible = bool(np.min(zeta.samples[: n * config.grid.step_denominator].real) > 0)
    if step1_eligible and 2 * n > config.grid.domain_end:
        raise ConfigError(f"'n' = {n} needs a grid end S >= 2n for the conjugation witness, got S = {config.grid.domain_end}")
    if step1_eligible:
        witness = witness_step1(zeta, n)
        payload["conjugation"] = {
            "residual": witness.max_identity_residual,
            "passed": witness.max_identity_residual <= witness_tol,
            "tolerance": witness_tol,
        }
        passed = passed and witness.max_identity_residual <= witness_tol
        write_csv(
            out / "witness_elements.csv",
            ["s", "b0_re", "b0_im", "b1_re", "b1_im"],
            _element_rows(config.grid, [witness.b0, witness.b1]),
        )
    else:
        payload["conjugation"] = {"skipped": "zeta is not strictly positive below n"}

    alpha, _ = convexify(zeta, n, delta)
    residual = theta_check(zeta, n, probes, delta)
    payload["convexified"] = {
        "alpha": alpha,
        "delta": delta,
        "residual": residual,
        "passed": residual <= theta_tol,
        "tolerance": theta_tol,
    }
    passed = passed and residual <= theta_tol
    payload["passed"] = passed
    write_json(out / "witness_report.json", payload)
    return 0 if passed else 1


def cmd_approx(config: ExperimentConfig, out: Path) -> int:
    zeta = config.element("zeta", {"kind": "exp_approach", "c": 1.0, "a": 1.0})
    ns = config.integer("ns", [2, 4, 6, 8, 10], 1, config.grid.domain_end)
    t = config.times("t", 1.0)
    probe = config.unit("probe", default={"zeta": {"kind": "exp_approach", "c": 0.5, "a": 1.0}, "beta": {"kind": "constant", "value": 0.3}})
    try:
        report = convergence_report(
            zeta,
            t,
            ns,
            probe=probe,
            target_threshold=config.tolerances["convergence_threshold"],
            membership_tol=config.tolerances["membership"],
        )
    except NotAMemberError as exc:
        raise ConfigError(f"bad 'zeta': {exc}") from exc
    write_csv(
        out / "approx_table.csv",
        ["n", "sup_dist", "index_dist", "kernel_dist", "semigroup_dist", "probe_kernel_dist"],
        [[r.n, r.sup_dist, r.index_dist, r.kernel_dist, r.semigroup_dist, r.probe_kernel_dist] for r in report.rows],
    )
    write_json(
        out / "approx_report.json",
        {
            "t": t,
            "ns": ns,
            "monotone": report.monotone,
            "index_matches_sup": report.index_matches_sup,
            "max_index_sup_gap": report.max_index_sup_gap,
            "below_threshold": report.below_threshold,
            "target_threshold": report.target_threshold,
            "passed": report.passed,
        },
    )
    return 0 if report.passed else 1


def cmd_index(config: ExperimentConfig, out: Path) -> int:
    units = config.unit_list(
        "units",
        [
            {"zeta": {"kind": "exp_approach", "c": 1.0, "a": 1.0}},
            {"zeta": {"kind": "exp_approach", "c": [0.0, 0.5], "a": 1.3}, "beta": {"kind": "constant", "value": 0.2}},
        ],
    )
    tol_membership = config.tolerances["membership"]
    non_members = []
    for k, unit in enumerate(units):
        if not membership(unit, tol_membership).in_E:
            non_members.append(k)
    if non_members:
        write_json(
            out / "index_report.json",
            {"passed": False, "non_member_units": non_members, "tolerance": tol_membership},
        )
        return 1
    representatives = [index_representative(u, tol_membership) for u in units]
    header = ["s"]
    for k in range(len(units)):
        header.extend([f"rep{k}_re", f"rep{k}_im"])
    write_csv(out / "index_representatives.csv", header, _element_rows(config.grid, representatives))

    xi = FockUnit(constant(config.grid, 1.0), constant(config.grid, 0.0))
    a = config.element("b", {"kind": "exp_approach", "c": 0.5, "a": 1.0})
    one = constant(config.grid, 1.0)
    worst = 0.0
    for x_unit, y_unit in zip(units, units[1:] or units[:1]):
        x, y = wrap(x_unit, xi), wrap(y_unit, xi)
        rep_x, rep_y = index_representative(x_unit, tol_membership), index_representative(y_unit, tol_membership)
        worst = max(worst, (index_representative(add(x, y).unit, tol_membership) - (rep_x + rep_y)).sup_norm())
        worst = max(worst, (index_representative(left_mul(a, x).unit, tol_membership) - a.shift(1) * rep_x).sup_norm())
        worst = max(worst, (index_representative(right_mul(x, a).unit, tol_membership) - rep_x * a).sup_norm())
        worst = max(worst, (semi_inner(x, y, one) - rep_x.star() * rep_y).sup_norm())
    tol = config.tolerances["index_hom"]
    write_json(
        out / "index_report.json",
        {"units": len(units), "max_homomorphism_residual": worst, "passed": worst <= tol, "tolerance": tol},
    )
    return 0 if worst <= tol else 1


def cmd_selftest(config: ExperimentConfig, out: Path) -> int:
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
