"""Property battery: every acceptance-level identity of the calculus,
checked at its pinned tolerance against independently computed values.

Each criterion returns one or more :class:`CheckResult` rows; the CLI
prints them one per line and the test suite asserts them individually.
Expected values are computed inline with plain numpy (or closed forms),
never through the code path under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, GridSpec, constant
from .fock import (
    FockUnit,
    apply,
    generator_unit,
    gram_matrices,
    gram_psd_check,
    kernel,
    semigroup_law_residual,
    vacuum_unit,
)
from .presets import exp_approach, exp_decay, inverse_decay, piecewise_linear
from .subsystem import (
    approximate,
    centrality_check,
    convergence_report,
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
    scalar_mul,
    semi_inner,
    wrap,
)

__all__ = ["CheckResult", "run_selftest", "DEFAULT_GRID", "DEFAULT_SEED", "CRITERIA"]

DEFAULT_GRID = GridSpec(4, 40)
DEFAULT_SEED = 2024


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(name, residual <= tol, f"max residual {residual:.3e} (tol {tol:.1e})")


def _random_complex(rng, radius: float) -> complex:
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def _random_element(rng, grid: GridSpec) -> AlgebraElement:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return constant(grid, _random_complex(rng, 1.0))
    if kind == 1:
        return exp_approach(grid, _random_complex(rng, 0.8), rng.uniform(0.7, 2.0))
    return exp_decay(grid, _random_complex(rng, 0.8), rng.uniform(0.7, 2.0), _random_complex(rng, 0.5))


def _random_unit(rng, grid: GridSpec) -> FockUnit:
    return FockUnit(_random_element(rng, grid), _random_element(rng, grid))


def _random_member(rng, grid: GridSpec) -> FockUnit:
    zeta = exp_approach(grid, _random_complex(rng, 1.0), rng.uniform(0.7, 2.0))
    return FockUnit(zeta, _random_element(rng, grid))


# -- criteria ------------------------------------------------------------


def criterion_inner_product_identity(grid: GridSpec, seed: int) -> list[CheckResult]:
    """<u(z,b), u(z',b')> at b = 1 relative to the vacuum reduces to
    conj(z) * z' entrywise."""
    rng = np.random.default_rng(seed)
    omega = vacuum_unit(grid)
    one = constant(grid, 1.0)
    worst = 0.0
    for _ in range(10):
        u, v = _random_unit(rng, grid), _random_unit(rng, grid)
        got = semi_inner(wrap(u, omega), wrap(v, omega), one).coordinates
        expected = np.conj(u.zeta.coordinates) * v.zeta.coordinates
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return [_result("inner-product identity at b=1 (vacuum reference)", worst, 1e-12)]


def criterion_kernel_adjoint_symmetry(grid: GridSpec, seed: int) -> list[CheckResult]:
    """K(v,u)(b) equals star(K(u,v)(star b)) for all units and probes."""
    rng = np.random.default_rng(seed + 1)
    probes = [
        constant(grid, 1.0),
        constant(grid, complex(0.3, -1.2)),
        exp_decay(grid, 1.0, 1.0, 0.1),
        exp_approach(grid, complex(-0.4, 0.8), 1.5),
        exp_decay(grid, complex(0.0, 1.0), 0.9, complex(0.5, 0.5)),
    ]
    worst = 0.0
    for _ in range(10):
        u, v = _random_unit(rng, grid), _random_unit(rng, grid)
        forward = kernel(u, v)
        backward = kernel(v, u)
        for b in probes:
            gap = (backward.apply(b) - forward.apply(b.star()).star()).sup_norm()
            worst = max(worst, gap)
    return [_result("kernel adjoint symmetry", worst, 1e-13)]


def _semigroup_test_pairs(grid: GridSpec) -> list[tuple[FockUnit, FockUnit]]:
    """The pairs whose law is checked besides the generator's own (xi, xi)."""
    zero = constant(grid, 0.0)
    xi = generator_unit(grid)
    return [
        (vacuum_unit(grid), xi),
        (FockUnit(exp_approach(grid, 1.0, 1.0), zero), xi),
        (
            FockUnit(exp_approach(grid, 0.5, 1.0), constant(grid, 0.2)),
            FockUnit(exp_approach(grid, complex(0.0, 0.3), 1.0), constant(grid, complex(0.0, 0.1))),
        ),
        (
            FockUnit(constant(grid, 0.8), constant(grid, 0.2)),
            FockUnit(constant(grid, 1.1), constant(grid, -0.1)),
        ),
    ]


def criterion_semigroup_law(grid: GridSpec, seed: int) -> list[CheckResult]:
    """exp((s+t)L) equals exp(sL) exp(tL), and the generator pair acts on
    the unit element by multiplication by e^t."""
    del seed
    times = (0.3, 0.7, 1.0)
    eig_times = (0.5, 1.0, 2.0)
    xi = generator_unit(grid)
    worst, xi_exps = semigroup_law_residual(xi, xi, times, extra_times=eig_times)
    one = constant(grid, 1.0)
    worst_eig = 0.0
    for t in eig_times:
        got = apply(xi_exps[t], one)
        scale = math.exp(t)
        worst_eig = max(worst_eig, (got - constant(grid, scale)).sup_norm() / scale)
    del xi_exps  # not kept alive through the other pairs' exponentials
    for u, v in _semigroup_test_pairs(grid):
        worst = max(worst, semigroup_law_residual(u, v, times)[0])
    return [
        _result("semigroup law exp((s+t)L) = exp(sL)exp(tL)", worst, 1e-9),
        _result("semigroup action on the unit element is e^t", worst_eig, 1e-10),
    ]


def criterion_gram_positivity(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Pointwise Gram matrices of a unit family stay PSD."""
    del seed
    zero = constant(grid, 0.0)
    units = [vacuum_unit(grid), generator_unit(grid), FockUnit(exp_approach(grid, 1.0, 1.0), zero)]
    bs = [constant(grid, 1.0), exp_decay(grid, 1.0, 1.0, 0.1)]
    worst = 0.0
    for row in gram_matrices(units, (0.5, 1.0), bs):
        for gram in row:
            worst = min(worst, gram_psd_check(gram, 1e-10).min_eigenvalue)
    return [
        CheckResult(
            "gram positivity over the unit family",
            worst >= -1e-10,
            f"min pointwise eigenvalue {worst:.3e} (floor -1.0e-10)",
        )
    ]


def criterion_semi_inner_properties(grid: GridSpec, seed: int) -> list[CheckResult]:
    """The six semi-inner-product module properties."""
    del seed
    omega = vacuum_unit(grid)
    zero = constant(grid, 0.0)
    one = constant(grid, 1.0)
    x = wrap(FockUnit(exp_approach(grid, 1.0, 1.0), constant(grid, 0.2)), omega)
    y = wrap(FockUnit(exp_approach(grid, complex(0.5, 0.5), 1.3), constant(grid, complex(0.0, 0.3))), omega)
    z = wrap(FockUnit(constant(grid, 2.0), exp_decay(grid, 0.2, 1.0, 0.1)), omega)
    bs = [one, exp_decay(grid, 1.0, 1.0, 0.1), exp_approach(grid, -0.5, 1.0)]
    results = []

    alpha, beta = complex(0.7, -0.2), complex(1.3, 0.5)
    worst = 0.0
    for b in bs:
        combo = add(scalar_mul(alpha, y), scalar_mul(beta, z))
        expected = alpha * semi_inner(x, y, b) + beta * semi_inner(x, z, b)
        worst = max(worst, (semi_inner(x, combo, b) - expected).sup_norm())
    results.append(_result("semi-inner linearity in the second slot", worst, 1e-11))

    a = exp_approach(grid, complex(0.3, 0.4), 1.0)
    worst = 0.0
    for b in bs:
        worst = max(worst, (semi_inner(x, right_mul(y, a), b) - semi_inner(x, y, b) * a).sup_norm())
    results.append(_result("semi-inner right module linearity", worst, 1e-11))

    worst = 0.0
    for b in bs + [constant(grid, complex(0.4, -0.9))]:
        worst = max(worst, (semi_inner(x, y, b) - semi_inner(y, x, b.star()).star()).sup_norm())
    results.append(_result("semi-inner adjoint symmetry", worst, 1e-12))

    positive_ok = all(semi_inner(w, w, b).is_positive(1e-10) for w in (x, y, z) for b in bs)
    results.append(CheckResult("semi-inner positivity on positive elements", positive_ok, "all diagonal values >= -1e-10"))

    worst = 0.0
    shift_x = power_beta(x, exp_decay(grid, 0.4, 1.0, complex(0.0, 0.2)))
    shift_y = power_beta(y, constant(grid, complex(-0.3, 0.1)))
    for b in bs:
        worst = max(worst, (semi_inner(shift_x, shift_y, b) - semi_inner(x, y, b)).sup_norm())
    results.append(_result("semi-inner invariance under beta shifts", worst, 1e-12))

    contractions = [constant(grid, 0.5), exp_decay(grid, 1.0, 1.0, 0.0), exp_approach(grid, -1.0, 1.0)]
    monotone_ok = True
    for b in contractions:
        if not (b.is_positive(1e-10) and (one - b).is_positive(1e-10)):
            raise ValueError("monotonicity test element is not between 0 and 1")
        for w in (x, y, z):
            diff = semi_inner(w, w, one) - semi_inner(w, w, b)
            monotone_ok = monotone_ok and diff.is_positive(1e-10)
    results.append(CheckResult("semi-inner monotonicity for 0 <= b <= 1", monotone_ok, "diagonal dominated by the b=1 value"))
    return results


def criterion_dual_path_coherence(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Formula-path kernels agree with the kernels of the parameter-path
    candidates for every bimodule operation."""
    rng = np.random.default_rng(seed + 2)
    probes = default_probe_units(grid)[:5]
    one = constant(grid, 1.0)
    results = []

    def run(name, build):
        worst = 0.0
        for _ in range(5):
            worst = max(worst, dual_path_residual(build(), probes))
        results.append(_result(f"dual-path coherence: {name}", worst, 1e-11))

    run("beta shift", lambda: power_beta(wrap(_random_unit(rng, grid), _random_unit(rng, grid)), _random_element(rng, grid)))

    def random_coefficients():
        c1, c2 = _random_element(rng, grid), _random_element(rng, grid)
        return [c1, c2, one - c1 - c2]

    run(
        "left combination",
        lambda: boxplus_left(random_coefficients(), [_random_unit(rng, grid) for _ in range(3)], vacuum_unit(grid)),
    )
    run(
        "right combination",
        lambda: boxplus_right([_random_unit(rng, grid) for _ in range(3)], random_coefficients(), vacuum_unit(grid)),
    )

    def random_pair():
        reference = _random_unit(rng, grid)
        return add(wrap(_random_unit(rng, grid), reference), wrap(_random_unit(rng, grid), reference))

    run("addition", random_pair)
    run("left multiplication", lambda: left_mul(_random_element(rng, grid), wrap(_random_unit(rng, grid), _random_unit(rng, grid))))
    run("right multiplication", lambda: right_mul(wrap(_random_unit(rng, grid), _random_unit(rng, grid)), _random_element(rng, grid)))
    return results


def criterion_conjugation_witness(grid: GridSpec, seed: int) -> list[CheckResult]:
    """The conjugating pair identity for eventually-one units."""
    del seed
    cases = {
        1: piecewise_linear(grid, [(0.0, 0.5), (1.0, 1.0)]),
        2: piecewise_linear(grid, [(0.0, 0.3), (2.0, 1.0)]),
        4: piecewise_linear(grid, [(0.0, 0.2), (1.0, 0.6), (4.0, 1.0)]),
    }
    return [
        _result(f"conjugation witness identity, n={n}", witness_step1(zeta, n).max_identity_residual, 1e-12)
        for n, zeta in cases.items()
    ]


def _negative_dip_zeta(grid: GridSpec, n: int = 8) -> AlgebraElement:
    s = grid.points()
    samples = np.where(s < n, 1.0 - 2.0 * np.exp(-s), 1.0).astype(complex)
    return AlgebraElement(grid, samples, 1.0)


def criterion_convexified_kernel_equality(grid: GridSpec, seed: int) -> list[CheckResult]:
    """The convexified detour reproduces the kernels of a unit whose zeta
    dips negative near 0."""
    del seed
    residual = theta_check(_negative_dip_zeta(grid), 8)
    return [_result("convexified-combination kernel equality", residual, 1e-10)]


def criterion_truncation_convergence(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Truncation approximants of 1 + e^{-s}: sup distances against a
    brute-force grid evaluation, index distance against sup distance, and
    monotone decay of the operator distance columns."""
    del seed
    ns = [2, 4, 6, 8, 10]
    zeta = exp_approach(grid, 1.0, 1.0)
    report = convergence_report(zeta, 1.0, ns)

    s = grid.points()
    z = 1.0 + np.exp(-s)
    worst = 0.0
    for row in report.rows:
        pivot = 1.0 + math.exp(-float(row.n))
        zn = np.where(s < row.n, z / pivot, 1.0)
        brute = float(np.max(np.abs(z - zn)))
        worst = max(worst, abs(row.sup_dist - brute))
    anchored = True
    detail = f"max |report - brute force| = {worst:.3e}"
    if grid == DEFAULT_GRID:
        anchor = 2.0 * math.exp(-10.0) / (1.0 + math.exp(-10.0))
        anchored = abs(report.rows[-1].sup_dist - anchor) <= 0.02 * anchor
        detail += f"; n=10 sup distance {report.rows[-1].sup_dist:.4e} vs closed form {anchor:.4e}"
    return [
        CheckResult("truncation sup-distance against brute force", worst <= 1e-12 and anchored, detail),
        _result("truncation index distance equals sup distance", report.max_index_sup_gap, 1e-10),
        CheckResult(
            "truncation operator distances nonincreasing",
            report.monotone,
            "all five columns nonincreasing over n=" + ",".join(str(n) for n in ns),
        ),
    ]


def _membership_cases(grid: GridSpec) -> list[tuple[str, AlgebraElement, bool]]:
    return [
        ("constant one", constant(grid, 1.0), True),
        ("exponential approach", exp_approach(grid, 1.0, 1.0), True),
        ("complex-direction approach", exp_approach(grid, complex(0.0, 0.5), 1.0), True),
        ("slow approach", inverse_decay(grid, 1.0, 1.0), True),
        ("negative dip, eventually one", _negative_dip_zeta(grid), True),
        ("just above one", constant(grid, 1.0 + 1e-12), True),
        ("just below one", constant(grid, 1.0 - 1e-12), True),
        ("vacuum direction", constant(grid, 0.0), False),
        ("decay to zero", exp_decay(grid, 1.0, 1.0, 0.0), False),
        ("constant two", constant(grid, 2.0), False),
        ("limit two", exp_decay(grid, 1.0, 1.0, 2.0), False),
        ("complex limit", constant(grid, complex(1.0, 0.5)), False),
    ]


def criterion_membership_battery(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Twelve labeled units classified by the tail criterion; beta never
    affects the verdict."""
    del seed
    betas = [
        constant(grid, 0.0),
        constant(grid, complex(0.7, -0.2)),
        exp_decay(grid, 0.5, 1.0, 0.3),
    ]
    errors = []
    for label, zeta, expected in _membership_cases(grid):
        verdicts = [membership(FockUnit(zeta, beta), 1e-9).in_E for beta in betas]
        if any(v != expected for v in verdicts):
            errors.append(label)
        if len(set(verdicts)) != 1:
            errors.append(label + " (beta-dependent)")
    return [
        CheckResult(
            "membership battery of 12 labeled cases",
            not errors,
            "all verdicts correct and beta-independent" if not errors else "errors: " + "; ".join(errors),
        )
    ]


def criterion_index_homomorphism(grid: GridSpec, seed: int) -> list[CheckResult]:
    """The representative map zeta - 1 respects the module structure with
    the generator as reference."""
    rng = np.random.default_rng(seed + 3)
    xi = generator_unit(grid)
    one = constant(grid, 1.0)
    worst = {"add": 0.0, "left": 0.0, "right": 0.0, "inner": 0.0}
    for _ in range(5):
        x, y = wrap(_random_member(rng, grid), xi), wrap(_random_member(rng, grid), xi)
        a = _random_element(rng, grid)
        rep_x = index_representative(x.unit)
        rep_y = index_representative(y.unit)
        worst["add"] = max(worst["add"], (index_representative(add(x, y).unit) - (rep_x + rep_y)).sup_norm())
        worst["left"] = max(worst["left"], (index_representative(left_mul(a, x).unit) - a.shift(1) * rep_x).sup_norm())
        worst["right"] = max(worst["right"], (index_representative(right_mul(x, a).unit) - rep_x * a).sup_norm())
        worst["inner"] = max(worst["inner"], (semi_inner(x, y, one) - rep_x.star() * rep_y).sup_norm())
    return [
        _result("index homomorphism: addition", worst["add"], 1e-11),
        _result("index homomorphism: left action (shift-twisted)", worst["left"], 1e-11),
        _result("index homomorphism: right action", worst["right"], 1e-11),
        _result("index pairing equals semi-inner product", worst["inner"], 1e-11),
    ]


def criterion_no_central_members(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Every member fails the centrality obstruction check; the zero-zeta
    unit passes it vacuously."""
    rng = np.random.default_rng(seed + 4)
    members = [zeta for _, zeta, expected in _membership_cases(grid) if expected]
    members += [_random_member(rng, grid).zeta for _ in range(3)]
    zero_beta = constant(grid, 0.0)
    offenders = [i for i, zeta in enumerate(members) if centrality_check(FockUnit(zeta, zero_beta))]
    vacuous = centrality_check(FockUnit(constant(grid, 0.0), constant(grid, 0.5)))
    passed = not offenders and vacuous
    detail = "all members obstructed; zero-zeta unit unobstructed"
    if offenders:
        detail = f"member indices {offenders} passed the obstruction check"
    elif not vacuous:
        detail = "zero-zeta unit unexpectedly obstructed"
    return [CheckResult("no central unit among members", passed, detail)]


CRITERIA = (
    ("1", criterion_inner_product_identity),
    ("2", criterion_kernel_adjoint_symmetry),
    ("3", criterion_semigroup_law),
    ("4", criterion_gram_positivity),
    ("5", criterion_semi_inner_properties),
    ("6", criterion_dual_path_coherence),
    ("7", criterion_conjugation_witness),
    ("8", criterion_convexified_kernel_equality),
    ("9", criterion_truncation_convergence),
    ("10", criterion_membership_battery),
    ("11", criterion_index_homomorphism),
    ("12", criterion_no_central_members),
)


def run_selftest(grid: GridSpec | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the full property battery and return one row per check."""
    grid = grid or DEFAULT_GRID
    results: list[CheckResult] = []
    for label, criterion in CRITERIA:
        for row in criterion(grid, seed):
            results.append(CheckResult(f"[{label}] {row.name}", row.passed, row.detail))
    return results
