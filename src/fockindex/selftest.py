"""Property battery: every acceptance-level identity of the calculus,
checked at its pinned tolerance against independently computed values.

Each criterion returns one or more :class:`CheckResult` rows; the CLI
prints them one per line and the test suite asserts them individually.
Most expected values are computed inline with plain numpy (or closed
forms), never through the code path under test. Criteria 1, 3, 6 and 11
instead check that two code paths of the calculus agree: the semi-inner
product against the module inner product of one-particle components,
exp((s+t)L) against exp(sL) exp(tL), the formula path of each bimodule
operation against its parameter path, and the representative of an
operation's result against the same operation on the representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import POSITIVITY_TOLERANCE, AlgebraElement, DomainError, GridSpec, constant, judge
from .fock import (
    TAYLOR_TOLERANCE,
    FockUnit,
    generator_unit,
    gram_matrices,
    gram_psd_check,
    kernel,
    module_inner,
    semigroup_law_residual,
    unit_component,
    vacuum_unit,
)
from .presets import exp_approach, exp_decay, inverse_decay, piecewise_linear
from .subsystem import (
    CONVERGENCE_THRESHOLD,
    INDEX_SUP_TOLERANCE,
    MEMBERSHIP_TOLERANCE,
    TRUNCATION_NS,
    centrality_check,
    convergence_report,
    index_homomorphism_residuals,
    membership,
    step1_grid_end,
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
    semi_inner_adjoint_residual,
    wrap,
)

__all__ = [
    "CheckResult", "run_selftest", "Pcg64Draws", "random_element", "random_unit",
    "DEFAULT_GRID", "DEFAULT_SEED", "DEFAULT_TOLERANCES", "MIN_GRID_END", "CRITERIA",
]

DEFAULT_GRID = GridSpec(4, 40)
DEFAULT_SEED = 2024

# Criterion 7's eventually-one zetas, keyed by n, as piecewise-linear knots.
_WITNESS_KNOTS = {
    1: [(0.0, 0.5), (1.0, 1.0)],
    2: [(0.0, 0.3), (2.0, 1.0)],
    4: [(0.0, 0.2), (1.0, 0.6), (4.0, 1.0)],
}

# The shortest grid end S the battery runs on: criterion 7 builds witnesses
# up to its largest n, and criterion 9 truncates up to its largest n.
MIN_GRID_END = max(step1_grid_end(max(_WITNESS_KNOTS)), max(TRUNCATION_NS))

# Pinned tolerances, keyed as a CLI config overrides them. Each key but
# "exp" (the exponential's Taylor series) pins the criterion in brackets;
# "membership", "exp" and "convergence_threshold" are the library defaults.
DEFAULT_TOLERANCES = {
    "membership": MEMBERSHIP_TOLERANCE,  # [10]
    "psd": 1e-10,  # [4]
    "exp": TAYLOR_TOLERANCE,
    "semigroup_law": 1e-9,  # [3]
    "hermitian": 1e-13,  # [2]
    "dual_path": 1e-11,  # [6]
    "witness": 1e-12,  # [7]
    "theta": 1e-10,  # [8]
    "index_hom": 1e-11,  # [11]
    "inner_hermitian": 1e-12,  # [5] adjoint symmetry
    "convergence_threshold": CONVERGENCE_THRESHOLD,  # [9]
}


@dataclass(frozen=True)
class CheckResult:
    """One check. A check with one number holds it as ``value`` and its
    tolerance as ``bound``, from which :func:`judge` gives ``passed`` and
    ``detail``; a check with no single number leaves both None."""

    name: str
    passed: bool
    detail: str
    value: float | None = None
    bound: float | None = None


def _result(name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(name, *judge(residual, tol, floor=False), residual, tol)


# numpy's SeedSequence constants (pool of 4 words) and the 128-bit PCG multiplier.
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, np.uint64)``:
    the seed's 32-bit words hashed into a pool of four, then eight 32-bit
    words drawn from the pool and paired little-end first."""
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, halves = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]


class Pcg64Draws:
    """The two draws of ``numpy.random.default_rng(seed)`` that the battery
    and ``unitalg`` use, bit for bit and in the standard library only:
    ``uniform(low, high)`` and ``integers(low, high)``, interleaved in any
    order, give numpy's values for every seed >= 0. The state is numpy's
    PCG64 (a 128-bit LCG with XSL-RR output), seeded through its
    SeedSequence; seeded reports therefore do not depend on numpy's
    ``Generator`` methods, whose streams numpy does not promise to keep
    across releases (NEP 19)."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        seed_high, seed_low, inc_high, inc_low = _seed_state(int(seed))
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        # PCG's srandom: step from state 0, add the seed, step again.
        self._state = (self._inc + (seed_high << 64 | seed_low)) * _PCG64_MULTIPLIER + self._inc & _MASK128
        self._upper_half = None  # the unused upper 32 bits of the last 64-bit draw taken for 32 bits

    def _next64(self) -> int:
        self._state = self._state * _PCG64_MULTIPLIER + self._inc & _MASK128
        word = (self._state >> 64 ^ self._state) & _MASK64
        rotation = self._state >> 122
        return (word >> rotation | word << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        if self._upper_half is not None:
            half, self._upper_half = self._upper_half, None
            return half
        word = self._next64()
        self._upper_half = word >> 32
        return word & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high) for finite low <= high: low + (high - low)
        times 53 random bits over 2^53."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high) by Lemire's rejection on 32-bit draws; a
        range of one value takes no draw. Ranges of 2^32 values or more,
        which the package never draws, raise ValueError."""
        span = high - low
        if not 1 <= span < 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low < 2**32, got ({low}, {high})")
        if span == 1:
            return low
        product = self._next32() * span
        if product & _MASK32 < span:
            threshold = (1 << 32) % span
            while product & _MASK32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)


def _random_complex(rng, radius: float) -> complex:
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def random_element(rng, grid: GridSpec) -> AlgebraElement:
    """A seeded draw: a constant, 1 + c e^{-as} or c e^{-as} + d, with random
    parameters. ``rng`` is anything with ``uniform(low, high)`` and
    ``integers(low, high)``: the package passes a :class:`Pcg64Draws`, and
    a numpy ``Generator`` of the same seed gives the same element."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return constant(grid, _random_complex(rng, 1.0))
    if kind == 1:
        return exp_approach(grid, _random_complex(rng, 0.8), rng.uniform(0.7, 2.0))
    return exp_decay(grid, _random_complex(rng, 0.8), rng.uniform(0.7, 2.0), _random_complex(rng, 0.5))


def random_unit(rng, grid: GridSpec) -> FockUnit:
    """A seeded unit whose zeta and beta are two :func:`random_element` draws."""
    return FockUnit(random_element(rng, grid), random_element(rng, grid))


def _random_member(rng, grid: GridSpec) -> FockUnit:
    zeta = exp_approach(grid, _random_complex(rng, 1.0), rng.uniform(0.7, 2.0))
    return FockUnit(zeta, random_element(rng, grid))


# -- criteria ------------------------------------------------------------


def criterion_inner_product_identity(grid: GridSpec, seed: int) -> list[CheckResult]:
    """<u(z,b), u(z',b')> at b = 1 relative to the vacuum reduces to the
    module inner product of the one-particle components, conj(z) * z'
    entrywise."""
    rng = Pcg64Draws(seed)
    omega = vacuum_unit(grid)
    zero, one = constant(grid, 0.0), constant(grid, 1.0)
    worst = 0.0
    for _ in range(10):
        u, v = random_unit(rng, grid), random_unit(rng, grid)
        got = semi_inner(wrap(u, omega), wrap(v, omega), one).coordinates
        x, y = (unit_component(FockUnit(w.zeta, zero), 1) for w in (u, v))  # one-particle components of u(z, 0), u(z', 0)
        expected = module_inner(x, y).coordinates
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return [_result("inner-product identity at b=1 (vacuum reference)", worst, 1e-12)]


def criterion_kernel_adjoint_symmetry(grid: GridSpec, seed: int) -> list[CheckResult]:
    """K(v,u)(b) equals star(K(u,v)(star b)) for all units and probes."""
    rng = Pcg64Draws(seed + 1)
    probes = [
        constant(grid, 1.0),
        constant(grid, complex(0.3, -1.2)),
        exp_decay(grid, 1.0, 1.0, 0.1),
        exp_approach(grid, complex(-0.4, 0.8), 1.5),
        exp_decay(grid, complex(0.0, 1.0), 0.9, complex(0.5, 0.5)),
    ]
    worst = 0.0
    for _ in range(10):
        u, v = random_unit(rng, grid), random_unit(rng, grid)
        forward = kernel(u, v)
        backward = kernel(v, u)
        for b in probes:
            gap = (backward.apply(b) - forward.apply(b.star()).star()).sup_norm()
            worst = max(worst, gap)
    return [_result("kernel adjoint symmetry", worst, DEFAULT_TOLERANCES["hermitian"])]


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
        got = xi_exps[t].apply(one)
        scale = math.exp(t)
        worst_eig = max(worst_eig, (got - constant(grid, scale)).sup_norm() / scale)
    del xi_exps  # not kept alive through the other pairs' exponentials
    for u, v in _semigroup_test_pairs(grid):
        worst = max(worst, semigroup_law_residual(u, v, times)[0])
    return [
        _result("semigroup law exp((s+t)L) = exp(sL)exp(tL)", worst, DEFAULT_TOLERANCES["semigroup_law"]),
        _result("semigroup action on the unit element is e^t", worst_eig, 1e-10),
    ]


def criterion_gram_positivity(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Pointwise Gram matrices of a unit family stay PSD."""
    del seed
    zero = constant(grid, 0.0)
    units = [vacuum_unit(grid), generator_unit(grid), FockUnit(exp_approach(grid, 1.0, 1.0), zero)]
    bs = [constant(grid, 1.0), exp_decay(grid, 1.0, 1.0, 0.1)]
    tol = DEFAULT_TOLERANCES["psd"]
    grams = gram_matrices(units, (0.5, 1.0), bs)
    worst = min(0.0, *(gram_psd_check(grid, gram, tol).min_eigenvalue for row in grams for gram in row))
    return [CheckResult("gram positivity over the unit family", *judge(worst, tol, floor=True), worst, tol)]


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
        worst = max(worst, semi_inner_adjoint_residual(x, y, b))
    results.append(_result("semi-inner adjoint symmetry", worst, DEFAULT_TOLERANCES["inner_hermitian"]))

    positive_ok = all(semi_inner(w, w, b).is_positive() for w in (x, y, z) for b in bs)
    detail = f"all diagonal values >= -{POSITIVITY_TOLERANCE:g}"
    results.append(CheckResult("semi-inner positivity on positive elements", positive_ok, detail))

    worst = 0.0
    shift_x = power_beta(x, exp_decay(grid, 0.4, 1.0, complex(0.0, 0.2)))
    shift_y = power_beta(y, constant(grid, complex(-0.3, 0.1)))
    for b in bs:
        worst = max(worst, (semi_inner(shift_x, shift_y, b) - semi_inner(x, y, b)).sup_norm())
    results.append(_result("semi-inner invariance under beta shifts", worst, 1e-12))

    contractions = [constant(grid, 0.5), exp_decay(grid, 1.0, 1.0, 0.0), exp_approach(grid, -1.0, 1.0)]
    monotone_ok = True
    for b in contractions:
        if not (b.is_positive() and (one - b).is_positive()):
            raise ValueError("monotonicity test element is not between 0 and 1")
        for w in (x, y, z):
            diff = semi_inner(w, w, one) - semi_inner(w, w, b)
            monotone_ok = monotone_ok and diff.is_positive()
    results.append(CheckResult("semi-inner monotonicity for 0 <= b <= 1", monotone_ok, "diagonal dominated by the b=1 value"))
    return results


def criterion_dual_path_coherence(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Formula-path kernels agree with the kernels of the parameter-path
    candidates for every bimodule operation."""
    rng = Pcg64Draws(seed + 2)
    probes = default_probe_units(grid)[:5]
    one = constant(grid, 1.0)
    results = []

    def run(name, build):
        worst = 0.0
        for _ in range(5):
            worst = max(worst, dual_path_residual(build(), probes))
        results.append(_result(f"dual-path coherence: {name}", worst, DEFAULT_TOLERANCES["dual_path"]))

    run("beta shift", lambda: power_beta(wrap(random_unit(rng, grid), random_unit(rng, grid)), random_element(rng, grid)))

    def random_coefficients():
        c1, c2 = random_element(rng, grid), random_element(rng, grid)
        return [c1, c2, one - c1 - c2]

    run(
        "left combination",
        lambda: boxplus_left(random_coefficients(), [random_unit(rng, grid) for _ in range(3)], vacuum_unit(grid)),
    )
    run(
        "right combination",
        lambda: boxplus_right([random_unit(rng, grid) for _ in range(3)], random_coefficients(), vacuum_unit(grid)),
    )

    def random_pair():
        reference = random_unit(rng, grid)
        return add(wrap(random_unit(rng, grid), reference), wrap(random_unit(rng, grid), reference))

    run("addition", random_pair)
    run("left multiplication", lambda: left_mul(random_element(rng, grid), wrap(random_unit(rng, grid), random_unit(rng, grid))))
    run("right multiplication", lambda: right_mul(wrap(random_unit(rng, grid), random_unit(rng, grid)), random_element(rng, grid)))
    return results


def criterion_conjugation_witness(grid: GridSpec, seed: int) -> list[CheckResult]:
    """The conjugating pair identity for eventually-one units; a witness
    that cannot be built fails its row with the obstacle as detail."""
    del seed
    results = []
    for n, knots in _WITNESS_KNOTS.items():
        name = f"conjugation witness identity, n={n}"
        witness = witness_step1(piecewise_linear(grid, knots), n)
        if isinstance(witness, str):
            results.append(CheckResult(name, False, witness))
        else:
            results.append(_result(name, witness.max_identity_residual, DEFAULT_TOLERANCES["witness"]))
    return results


# Where the negative-dip zeta of criteria 8 and 10 becomes exactly 1.
_DIP_END = 8


def _negative_dip_zeta(grid: GridSpec) -> AlgebraElement:
    """1 - 2e^{-s} below _DIP_END, negative near 0, and 1 from there on."""
    s = grid.points()
    samples = np.where(s < _DIP_END, 1.0 - 2.0 * np.exp(-s), 1.0).astype(complex)
    return AlgebraElement(grid, samples, 1.0)


def criterion_convexified_kernel_equality(grid: GridSpec, seed: int) -> list[CheckResult]:
    """The convexified detour reproduces the kernels of a unit whose zeta
    dips negative near 0."""
    del seed
    residual = theta_check(_negative_dip_zeta(grid), _DIP_END)
    return [_result("convexified-combination kernel equality", residual, DEFAULT_TOLERANCES["theta"])]


def criterion_truncation_convergence(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Truncation approximants of 1 + e^{-s}: sup distances against a
    brute-force grid evaluation, index distance against sup distance, and
    monotone decay of the operator distance columns."""
    del seed
    zeta = exp_approach(grid, 1.0, 1.0)
    report = convergence_report(zeta, 1.0, TRUNCATION_NS)

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
        _result("truncation index distance equals sup distance", report.max_index_sup_gap, INDEX_SUP_TOLERANCE),
        CheckResult(
            "truncation operator distances nonincreasing",
            report.monotone,
            "all five columns nonincreasing over n=" + ",".join(str(n) for n in TRUNCATION_NS),
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
        verdicts = [membership(FockUnit(zeta, beta)).in_E for beta in betas]
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
    rng = Pcg64Draws(seed + 3)
    xi = generator_unit(grid)
    worst = {"add": 0.0, "left": 0.0, "right": 0.0, "inner": 0.0}
    for _ in range(5):
        x, y = wrap(_random_member(rng, grid), xi), wrap(_random_member(rng, grid), xi)
        for key, residual in index_homomorphism_residuals(x, y, random_element(rng, grid)).items():
            worst[key] = max(worst[key], residual)
    tol = DEFAULT_TOLERANCES["index_hom"]
    return [
        _result("index homomorphism: addition", worst["add"], tol),
        _result("index homomorphism: left action (shift-twisted)", worst["left"], tol),
        _result("index homomorphism: right action", worst["right"], tol),
        _result("index pairing equals semi-inner product", worst["inner"], tol),
    ]


def criterion_no_central_members(grid: GridSpec, seed: int) -> list[CheckResult]:
    """Every member fails the centrality obstruction check; the zero-zeta
    unit passes it vacuously."""
    rng = Pcg64Draws(seed + 4)
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
    """Run the full property battery and return one row per check; a grid
    shorter than MIN_GRID_END is outside its domain and runs no check."""
    grid = grid or DEFAULT_GRID
    if grid.domain_end < MIN_GRID_END:
        raise DomainError(f"the selftest needs a grid end S >= {MIN_GRID_END}, got S = {grid.domain_end}")
    results: list[CheckResult] = []
    for label, criterion in CRITERIA:
        for row in criterion(grid, seed):
            results.append(replace(row, name=f"[{label}] {row.name}"))
    return results
