"""The four benchmark workloads: seeded input generation and output checks.

Every op is a list of CLI calls `(command, config path)`; the worker runs
them through `fockindex.cli.main` in-process. Inputs come only from the
workload seed. Each check compares the program's reports against values
this file knows independently: the generator's declared tails, the pinned
check names, and exponentials taken with `scipy.linalg.expm` of generators
assembled here from the unit formulas. Nothing here imports fockindex.

Why these four (each likely optimisation dominates one and is nearly
absent from another; BENCHMARK.json gates all but `classify`, whose
timings vary too much on a shared host):

- battery-small: the 30-check `selftest` at (4, 40); every layer runs,
  but at dim 162 fixed per-call costs dominate.
- semigroup-large: the `semigroup` command at (8, 80), dim 642; about 93%
  of an op is `matrix_exponential`.
- dualpath-large: the `unitalg` command at (8, 80) with one case; no
  exponentials, about 75% dense composition against diagonal operators.
- classify: six `membership` calls at (16, 100); no kernel is built, the
  time is preset parsing (CSV rows), argparse, config parsing and reports.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SMOKE_GRID = (2, 10)

SELFTEST_CHECKS = (
    "[1] inner-product identity at b=1 (vacuum reference)",
    "[2] kernel adjoint symmetry",
    "[3] semigroup law exp((s+t)L) = exp(sL)exp(tL)",
    "[3] semigroup action on the unit element is e^t",
    "[4] gram positivity over the unit family",
    "[5] semi-inner linearity in the second slot",
    "[5] semi-inner right module linearity",
    "[5] semi-inner adjoint symmetry",
    "[5] semi-inner positivity on positive elements",
    "[5] semi-inner invariance under beta shifts",
    "[5] semi-inner monotonicity for 0 <= b <= 1",
    "[6] dual-path coherence: beta shift",
    "[6] dual-path coherence: left combination",
    "[6] dual-path coherence: right combination",
    "[6] dual-path coherence: addition",
    "[6] dual-path coherence: left multiplication",
    "[6] dual-path coherence: right multiplication",
    "[7] conjugation witness identity, n=1",
    "[7] conjugation witness identity, n=2",
    "[7] conjugation witness identity, n=4",
    "[8] convexified-combination kernel equality",
    "[9] truncation sup-distance against brute force",
    "[9] truncation index distance equals sup distance",
    "[9] truncation operator distances nonincreasing",
    "[10] membership battery of 12 labeled cases",
    "[11] index homomorphism: addition",
    "[11] index homomorphism: left action (shift-twisted)",
    "[11] index homomorphism: right action",
    "[11] index pairing equals semi-inner product",
    "[12] no central unit among members",
)

UNITALG_CASES = (
    "beta_shift[0]",
    "left_combination[0]",
    "right_combination[0]",
    "addition[0]",
    "left_multiplication[0]",
    "right_multiplication[0]",
)

SEMIGROUP_T_VALUES = (0.5, 1.0)
SEMIGROUP_LAW_TOL = 1e-9
SEMIGROUP_NORM_RTOL = 1e-9
DUAL_PATH_TOL = 1e-11

# Generators of the semigroup workload have a row-sum norm in this band, so
# that every exponential of an op takes the same number of squarings
# (ceil(log2(t * norm)) is fixed for t in 0.5, 1, 1.5, 2) and ops cost the
# same whatever the seed.
SEMIGROUP_NORM_BAND = (2.05, 2.6)


@dataclass
class Op:
    calls: list  # [(command, config path)]
    expect: dict
    cache: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple
    pool: int  # distinct ops generated; a run cycles through them
    make: Callable  # (rng, grid, directory, index) -> Op
    check: Callable  # (op, out_dir, exit_codes) -> list of problems


# -- helpers --------------------------------------------------------------


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _grid_json(grid) -> dict:
    return {"m": grid[0], "S": grid[1]}


def _points(grid) -> np.ndarray:
    m, S = grid
    return np.arange(S * m + 1) / m


def _box(rng, radius: float) -> list:
    return [float(rng.uniform(-radius, radius)), float(rng.uniform(-radius, radius))]


def _c(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def _samples(spec: dict, grid) -> tuple:
    """Samples and tail of a preset, from its formula."""
    s = _points(grid)
    kind = spec["kind"]
    if kind == "constant":
        value = _c(spec["value"])
        return np.full(s.shape, value, dtype=complex), value
    if kind == "exp_approach":
        return 1.0 + _c(spec["c"]) * np.exp(-spec["a"] * s), 1.0 + 0j
    if kind == "exp_decay":
        d = _c(spec["d"])
        return _c(spec["c"]) * np.exp(-spec["a"] * s) + d, d
    raise ValueError(f"no formula for preset kind {kind!r}")


def _write_element_csv(path: Path, grid, samples: np.ndarray, tail: complex) -> None:
    tail_text = repr(tail.real) if tail.imag == 0 else repr(tail)
    lines = [f"s,re,im,tail={tail_text}"]
    lines += [f"{s!r},{z.real!r},{z.imag!r}" for s, z in zip(_points(grid).tolist(), samples.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _codes_ok(codes) -> list:
    return [] if codes and all(code == 0 for code in codes) else [f"exit codes {codes}"]


# -- battery-small ----------------------------------------------------------


def _battery_make(rng, grid, directory: Path, index: int) -> Op:
    seed = int(rng.integers(0, 2**31 - 1))
    config = _write_json(directory / f"selftest{index}.json", {"grid": _grid_json(grid), "seed": seed})
    return Op([("selftest", config)], {"seed": seed, "grid": _grid_json(grid)})


def _battery_check(op: Op, out: Path, codes) -> list:
    problems = _codes_ok(codes)
    report = _read_json(out / "c0" / "selftest_report.json")
    names = [check["name"] for check in report["checks"]]
    if names != list(SELFTEST_CHECKS):
        problems.append(f"check names differ from the pinned 30: {names}")
    failing = [check["name"] for check in report["checks"] if check["passed"] is not True]
    if failing or report["passed"] is not True:
        problems.append(f"failing checks: {failing}")
    if report["seed"] != op.expect["seed"] or report["grid"] != op.expect["grid"]:
        problems.append("report seed or grid differs from the config")
    return problems


# -- semigroup-large ----------------------------------------------------------


def _random_zeta(rng) -> dict:
    if rng.random() < 0.5:
        return {"kind": "exp_approach", "c": _box(rng, 0.8), "a": float(rng.uniform(0.7, 2.0))}
    return {"kind": "exp_decay", "c": _box(rng, 0.8), "a": float(rng.uniform(0.7, 2.0)), "d": _box(rng, 1.2)}


def _random_beta(rng) -> dict:
    """A beta with a nonzero limit at infinity."""
    while True:
        if rng.random() < 0.5:
            spec = {"kind": "constant", "value": _box(rng, 0.5)}
        else:
            spec = {"kind": "exp_decay", "c": _box(rng, 0.5), "a": float(rng.uniform(0.7, 2.0)), "d": _box(rng, 0.5)}
        if abs(_c(spec.get("value", spec.get("d")))) >= 0.05:
            return spec


def _coefficients(u: dict, v: dict, grid) -> tuple:
    """The generator of the (u, v) semigroup acts on coordinates
    (samples..., tail) by
    (L b)(s) = conj(zeta_u(s)) b(s+1) zeta_v(s) + (conj(beta_u(s)) + beta_v(s)) b(s),
    with b(s+1) read from the tail past the grid end. Returns the shift
    weights, the diagonal, and the entry of the tail row."""
    zu, zu_tail = _samples(u["zeta"], grid)
    zv, zv_tail = _samples(v["zeta"], grid)
    bu, bu_tail = _samples(u["beta"], grid)
    bv, bv_tail = _samples(v["beta"], grid)
    tail = np.conj(zu_tail) * zv_tail + np.conj(bu_tail) + bv_tail
    return np.conj(zu) * zv, np.conj(bu) + bv, tail


def _row_sum_norm_of_generator(u: dict, v: dict, grid) -> float:
    weights, diagonal, tail = _coefficients(u, v, grid)
    return float(max(np.max(np.abs(weights) + np.abs(diagonal)), abs(tail)))


def _generator(u: dict, v: dict, grid) -> np.ndarray:
    """The dense generator of the (u, v) semigroup."""
    m, _ = grid
    weights, diagonal, tail = _coefficients(u, v, grid)
    n = weights.size
    rows = np.arange(n)
    matrix = np.zeros((n + 1, n + 1), dtype=complex)
    matrix[rows, np.where(rows + m < n, rows + m, n)] = weights
    matrix[rows, rows] += diagonal
    matrix[n, n] = tail
    return matrix


def _row_sum_norm(matrix: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def _semigroup_make(rng, grid, directory: Path, index: int) -> Op:
    low, high = SEMIGROUP_NORM_BAND
    while True:
        u = {"zeta": _random_zeta(rng), "beta": _random_beta(rng)}
        v = {"zeta": _random_zeta(rng), "beta": _random_beta(rng)}
        if low < _row_sum_norm_of_generator(u, v, grid) <= high:
            break
    # b is read from a CSV file, so that the CSV loader runs in a gated workload.
    b_tail = float(rng.uniform(0.5, 1.5))
    b = b_tail + rng.uniform(-0.4, 0.4) * np.exp(-rng.uniform(0.5, 2.0) * _points(grid))
    b_csv = directory / f"semigroup{index}_b.csv"
    _write_element_csv(b_csv, grid, b.astype(complex), complex(b_tail))
    payload = {"grid": _grid_json(grid), "u": u, "v": v, "b": {"kind": "csv", "path": b_csv.name}, "t_values": list(SEMIGROUP_T_VALUES)}
    config = _write_json(directory / f"semigroup{index}.json", payload)
    return Op([("semigroup", config)], {"u": u, "v": v, "b": np.append(b, b_tail), "grid": grid})


def _semigroup_expected(op: Op) -> dict:
    """t -> (operator norm, sup norm of the action on b), from scipy."""
    if "norms" not in op.cache:
        from scipy.linalg import expm

        generator = _generator(op.expect["u"], op.expect["v"], op.expect["grid"])
        half = expm(0.5 * generator)
        norms = {}
        for t, operator in ((0.5, half), (1.0, half @ half)):
            norms[t] = (_row_sum_norm(operator), float(np.max(np.abs(operator @ op.expect["b"]))))
        op.cache["norms"] = norms
    return op.cache["norms"]


def _semigroup_check(op: Op, out: Path, codes) -> list:
    problems = _codes_ok(codes)
    report = _read_json(out / "c0" / "semigroup_report.json")
    if not report["law_residual"] <= SEMIGROUP_LAW_TOL:
        problems.append(f"law residual {report['law_residual']:.3e} above {SEMIGROUP_LAW_TOL}")
    with (out / "c0" / "semigroup_table.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "operator_norm", "applied_sup_norm"] or len(rows) != 1 + len(SEMIGROUP_T_VALUES):
        return problems + [f"unexpected semigroup table {rows}"]
    expected = _semigroup_expected(op)
    for row in rows[1:]:
        t, got = float(row[0]), (float(row[1]), float(row[2]))
        want = expected[t]
        if not np.allclose(got, want, rtol=SEMIGROUP_NORM_RTOL, atol=0.0):
            problems.append(f"t={t}: norms {got} differ from scipy expm {want}")
    return problems


# -- dualpath-large -----------------------------------------------------------


def _dualpath_make(rng, grid, directory: Path, index: int) -> Op:
    seed = int(rng.integers(0, 2**31 - 1))
    config = _write_json(directory / f"unitalg{index}.json", {"grid": _grid_json(grid), "cases": 1, "seed": seed})
    return Op([("unitalg", config)], {"seed": seed})


def _dualpath_check(op: Op, out: Path, codes) -> list:
    problems = _codes_ok(codes)
    report = _read_json(out / "c0" / "unitalg_report.json")
    if report["seed"] != op.expect["seed"] or report["cases"] != len(UNITALG_CASES):
        problems.append("report seed or case count differs from the config")
    if not report["max_residual"] <= DUAL_PATH_TOL:
        problems.append(f"max dual-path residual {report['max_residual']:.3e} above {DUAL_PATH_TOL}")
    with (out / "c0" / "unitalg_cases.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if [row[0] for row in rows] != list(UNITALG_CASES):
        problems.append(f"unexpected cases {[row[0] for row in rows]}")
    if any(not float(row[1]) <= DUAL_PATH_TOL for row in rows):
        problems.append("a case residual is above the dual-path tolerance")
    return problems


# -- classify -----------------------------------------------------------------


def _limit_away_from_one(rng) -> complex:
    while True:
        tail = complex(rng.uniform(-2.0, 3.0), rng.uniform(-0.5, 0.5) if rng.random() < 0.5 else 0.0)
        if abs(tail - 1.0) >= 0.2:
            return tail


def _classify_make(rng, grid, directory: Path, index: int) -> Op:
    """One family of six units; the first parses a CSV, so set-up (which
    parses an op's first config) includes a CSV load."""
    s = _points(grid)
    member_csv = directory / f"member{index}.csv"
    _write_element_csv(member_csv, grid, 1.0 + _c(_box(rng, 0.8)) * np.exp(-rng.uniform(0.5, 2.0) * s), 1.0 + 0j)
    outside_tail = _limit_away_from_one(rng)
    outside_csv = directory / f"outside{index}.csv"
    _write_element_csv(outside_csv, grid, outside_tail + _c(_box(rng, 0.8)) * np.exp(-rng.uniform(0.5, 2.0) * s), outside_tail)
    decay_limit = _limit_away_from_one(rng)
    end = float(rng.uniform(2.0, grid[1] / 2))
    family = [
        ({"kind": "csv", "path": member_csv.name}, 1.0),
        ({"kind": "exp_approach", "c": _box(rng, 0.8), "a": float(rng.uniform(0.5, 2.0))}, 1.0),
        (
            {"kind": "exp_decay", "c": _box(rng, 0.8), "a": float(rng.uniform(0.5, 2.0)), "d": [decay_limit.real, decay_limit.imag]},
            decay_limit,
        ),
        ({"kind": "inverse_decay", "c": _box(rng, 1.0), "d": 1.0}, 1.0),  # tail not reached on the grid
        (
            {"kind": "piecewise_linear", "knots": [[0.0, float(rng.uniform(-1.0, 2.0))], [end / 2, float(rng.uniform(-1.0, 2.0))], [end, 1.0]]},
            1.0,
        ),
        ({"kind": "csv", "path": outside_csv.name}, outside_tail),
    ]
    calls, limits = [], []
    for j, (zeta, limit) in enumerate(family):
        payload = {"grid": _grid_json(grid), "zeta": zeta, "beta": {"kind": "constant", "value": _box(rng, 1.0)}}
        calls.append(("membership", _write_json(directory / f"unit{index}_{j}.json", payload)))
        limits.append(complex(limit))
    return Op(calls, {"limits": limits})


def _classify_check(op: Op, out: Path, codes) -> list:
    problems = _codes_ok(codes)
    for j, limit in enumerate(op.expect["limits"]):
        report = _read_json(out / f"c{j}" / "membership_report.json")
        got = report["zeta_limit"]
        got = complex(got["re"], got["im"]) if isinstance(got, dict) else complex(got)
        if report["in_E"] is not (limit == 1.0) or got != limit:
            problems.append(f"unit {j}: in_E={report['in_E']}, zeta_limit={got}; declared tail {limit}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("battery-small", (4, 40), 24, _battery_make, _battery_check),
        Workload("semigroup-large", (8, 80), 12, _semigroup_make, _semigroup_check),
        Workload("dualpath-large", (8, 80), 12, _dualpath_make, _dualpath_check),
        Workload("classify", (16, 100), 48, _classify_make, _classify_check),
    )
}
