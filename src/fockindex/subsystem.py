"""The product subsystem generated by the unit (1, 0): membership of
parameterized units, the constructive witnesses that realize eventually-one
units inside it, truncation approximants for general members, and the
index representatives.

A unit u(zeta, beta) belongs to the generated subsystem exactly when
zeta tends to 1 at infinity; beta never matters. In the grid model the
limit is the stored tail, so membership is a decidable comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .algebra import RECIPROCAL_FLOOR, AlgebraElement, DomainError, _is_count, _is_real, _require_tolerance, constant
from .fock import FockUnit, generator_unit, kernel, semigroup, unit_component, left_action, vacuum_unit
from .presets import exp_approach, exp_decay
from .unit_algebra import (
    ReferencedUnit,
    _largest_gap,
    add,
    boxplus_left,
    default_probe_units,
    index_norm,
    left_mul,
    right_mul,
    semi_inner,
    subtract,
    wrap,
)

__all__ = [
    "MEMBERSHIP_TOLERANCE",
    "EXACT_ONE_TOLERANCE",
    "INDEX_SUP_TOLERANCE",
    "CONVERGENCE_THRESHOLD",
    "TRUNCATION_NS",
    "CONVEXIFY_DELTA",
    "NotAMemberError",
    "WitnessKind",
    "MembershipReport",
    "Step1Witness",
    "membership",
    "step1_grid_end",
    "witness_step1",
    "convexify",
    "theta_check",
    "approximate",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_report",
    "index_representative",
    "index_homomorphism_residuals",
    "centrality_check",
]

MEMBERSHIP_TOLERANCE = 1e-9
EXACT_ONE_TOLERANCE = 1e-12
REALNESS_TOLERANCE = 1e-12
INDEX_SUP_TOLERANCE = 1e-10  # |index distance - sup distance| of a truncation
CONVERGENCE_THRESHOLD = 0.05  # bound on every distance at the last truncation point
TRUNCATION_NS = (2, 4, 6, 8, 10)  # truncation points of the default convergence table
CONVEXIFY_DELTA = 0.1  # the default floor of convexify's combination, for theta_check and the witness command
DYADIC_DEPTH = 10
MIN_PIVOT = 1e-8  # smallest |zeta(n)| a truncation approximant divides by
CENTRALITY_TOLERANCE = 1e-10  # largest shift obstruction a central unit may show


class NotAMemberError(DomainError):
    """A construction that exists only for members got a unit whose zeta
    does not tend to 1."""


class WitnessKind(str, Enum):
    EXACT_TAIL = "exact_tail"
    APPROXIMATION = "approximation"
    REJECTED = "rejected"


@dataclass(frozen=True)
class MembershipReport:
    """Verdict and evidence for a unit's membership in the subsystem."""

    in_E: bool
    zeta_limit: complex
    distance_to_one: float
    witness_kind: WitnessKind
    details: dict = field(default_factory=dict)
    warnings: tuple = ()


def _eventually_one_from(zeta: AlgebraElement) -> int | None:
    """Smallest integer point from which all samples and the tail equal 1
    within EXACT_ONE_TOLERANCE, or None."""
    if abs(zeta.tail - 1.0) > EXACT_ONE_TOLERANCE:
        return None
    deviations = np.abs(zeta.samples - 1.0) > EXACT_ONE_TOLERANCE
    if not np.any(deviations):
        return 0
    last_bad = int(np.max(np.nonzero(deviations)[0]))
    m = zeta.grid.step_denominator
    n = -((last_bad + 1) // -m)  # ceil((last_bad+1)/m)
    if n > zeta.grid.domain_end:
        return None
    return n


def membership(u: FockUnit, tol: float = MEMBERSHIP_TOLERANCE) -> MembershipReport:
    """Classify a unit: member iff |lim zeta - 1| <= tol. beta is ignored.
    A tolerance that is NaN, infinite or negative raises DomainError."""
    _require_tolerance(tol, "membership tolerance")
    limit = u.zeta.tail
    distance = abs(limit - 1.0)
    in_e = distance <= tol
    warnings_found = []
    if not u.zeta.is_resolved:
        warnings_found.append(
            f"zeta is unresolved: |samples[-1] - tail| = {abs(u.zeta.samples[-1] - u.zeta.tail):.3e}; "
            "the reported limit is the declared tail, which the grid data has not reached"
        )
    if not in_e:
        kind = WitnessKind.REJECTED
        details = {"tail_gap": distance}
    else:
        n = _eventually_one_from(u.zeta)
        if n is not None:
            kind = WitnessKind.EXACT_TAIL
            details = {"eventually_one_from": n}
        else:
            kind = WitnessKind.APPROXIMATION
            details = {"tail_gap": distance}
    return MembershipReport(in_e, limit, distance, kind, details, tuple(warnings_found))


@dataclass(frozen=True)
class Step1Witness:
    """The conjugating pair (b0, b1) realizing an eventually-one unit as
    b1 * (generator) * b0, together with the worst identity residual,
    which the caller judges against its own tolerance."""

    n: int
    b0: AlgebraElement
    b1: AlgebraElement
    max_identity_residual: float

    def __post_init__(self) -> None:
        if (self.b0 * self.b1 - constant(self.b0.grid, 1.0)).sup_norm() > EXACT_ONE_TOLERANCE:
            raise ValueError("b0 * b1 must equal 1 entrywise")


def _require_real(zeta: AlgebraElement, context: str) -> None:
    worst = max(float(np.max(np.abs(zeta.samples.imag))), abs(zeta.tail.imag))
    if worst > REALNESS_TOLERANCE:
        raise DomainError(f"{context} needs a real-valued zeta; max |imag| = {worst:.3e}")


def _require_eventually_one(zeta: AlgebraElement, n: int, context: str) -> None:
    m = zeta.grid.step_denominator
    from_index = n * m
    bad = np.max(np.abs(zeta.samples[from_index:] - 1.0), initial=0.0)
    if bad > EXACT_ONE_TOLERANCE or abs(zeta.tail - 1.0) > EXACT_ONE_TOLERANCE:
        raise DomainError(f"{context} needs zeta(s) = 1 for s >= {n}; max deviation {max(bad, abs(zeta.tail - 1.0)):.3e}")


def step1_grid_end(n: int) -> int:
    """The shortest grid end S on which the step-1 witness for n is built: 2n."""
    return 2 * n


def witness_step1(zeta: AlgebraElement, n: int) -> Step1Witness | str:
    """Constructive witness for a unit whose zeta is positive below n and
    exactly 1 from n on: b0(s) = zeta(s) * ... * zeta(s+n-1), b1 = 1/b0,
    and b1(s+n) * b0(s) reproduces the n-particle component of the unit.
    Returns why it cannot be built instead when zeta is not strictly
    positive below n or b0 is below the floor of :meth:`AlgebraElement.reciprocal`.
    Raises DomainError only outside the domain: n a count >= 1 with
    2n <= S, and zeta real and exactly 1 from n on."""
    if not _is_count(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    grid = zeta.grid
    if grid.domain_end < step1_grid_end(n):
        raise DomainError(f"grid end {grid.domain_end} is too short; need at least 2n = {step1_grid_end(n)}")
    _require_real(zeta, "witness_step1")
    _require_eventually_one(zeta, n, "witness_step1")
    if not np.min(zeta.samples[: n * grid.step_denominator].real) > 0:
        return "zeta is not strictly positive below n"
    b0 = unit_component(FockUnit(zeta, constant(grid, 0.0)), int(n)).value
    small = np.abs(b0.coordinates).min()
    if small < RECIPROCAL_FLOOR:
        return f"b0 = zeta(s)...zeta(s+n-1) falls to {small:.3e}, below the reciprocal floor {RECIPROCAL_FLOOR:.0e}"
    b1 = b0.reciprocal()
    direct = b1.shift(n) * b0
    via_action = left_action(b1, unit_component(generator_unit(grid), int(n))).value * b0
    residual = max((direct - b0).sup_norm(), (via_action - b0).sup_norm())
    return Step1Witness(int(n), b0, b1, residual)


def convexify(zeta: AlgebraElement, n: int, delta: float) -> tuple[float, AlgebraElement]:
    """Largest dyadic alpha in (0, 1) with alpha*zeta + (1-alpha) >= delta
    on all samples; returns alpha and the convexified element."""
    if not _is_count(n) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    _require_real(zeta, "convexify")
    _require_eventually_one(zeta, n, "convexify")
    if not _is_real(delta) or not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be a real number in (0, 1), got {delta!r}")
    # Rounding is monotone and alpha > 0, so the least of alpha * value + (1 - alpha)
    # over the samples is the one at the least sample, in the same float operations.
    lowest = float(np.min(zeta.samples.real))
    denominator = 2**DYADIC_DEPTH
    for k in range(denominator - 1, 0, -1):
        alpha = k / denominator
        if alpha * lowest + (1.0 - alpha) >= delta:
            return alpha, zeta * alpha + (1.0 - alpha)
    raise DomainError(f"no dyadic alpha in (0, 1) keeps the combination above {delta}")


def theta_check(
    zeta: AlgebraElement,
    n: int,
    probes: Sequence[FockUnit] | None = None,
    delta: float = CONVEXIFY_DELTA,
) -> float:
    """Kernel residual of the convexified detour: combine the convexified
    unit with the generator using coefficients (1/alpha, 1 - 1/alpha) and
    compare the resulting kernels against those of u(zeta, 0) over the
    probe battery. The cancellation is exact, so the residual is rounding
    noise."""
    grid = zeta.grid
    probes = default_probe_units(grid) if probes is None else list(probes)
    if not probes:
        raise DomainError("probes must hold at least one unit; an empty battery would check nothing")
    alpha, zeta_prime = convexify(zeta, n, delta)
    eta_prime = FockUnit(zeta_prime, constant(grid, 0.0))
    xi = generator_unit(grid)
    coefficients = [constant(grid, 1.0 / alpha), constant(grid, 1.0 - 1.0 / alpha)]
    theta = boxplus_left(coefficients, [eta_prime, xi], xi)
    eta = FockUnit(zeta, constant(grid, 0.0))
    return _largest_gap(theta.cross_kernels(probes), eta, probes)


def approximate(zeta: AlgebraElement, n: int) -> AlgebraElement:
    """Truncation approximant: zeta(s)/zeta(n) for s < n, and 1 from n on."""
    grid = zeta.grid
    if not _is_count(n) or n < 1 or n > grid.domain_end:
        raise DomainError(f"n must be an integer in [1, {grid.domain_end}], got {n!r}")
    pivot = zeta.value_at(n)
    if abs(pivot) < MIN_PIVOT:
        raise DomainError(f"|zeta({n})| = {abs(pivot):.3e} is below {MIN_PIVOT}; pick a larger n")
    m = grid.step_denominator
    samples = np.ones(grid.size, dtype=complex)
    samples[: n * m] = zeta.samples[: n * m] / pivot
    return AlgebraElement(grid, samples, 1.0)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    sup_dist: float
    index_dist: float
    kernel_dist: float
    semigroup_dist: float
    probe_kernel_dist: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    monotone: bool
    index_matches_sup: bool
    max_index_sup_gap: float
    below_threshold: bool
    target_threshold: float

    @property
    def passed(self) -> bool:
        return self.monotone and self.index_matches_sup and self.below_threshold


def convergence_report(
    zeta: AlgebraElement,
    t: float,
    ns: Sequence[int],
    probe: FockUnit | None = None,
    target_threshold: float = CONVERGENCE_THRESHOLD,
    membership_tol: float = MEMBERSHIP_TOLERANCE,
) -> ConvergenceReport:
    """Distances between a member unit and its truncation approximants.

    Per n: the sup distance of the zetas, the index distance of the units
    (which must equal the sup distance), the kernel and semigroup operator
    distances, and the kernel distance against a probe unit (by default
    u(1 + e^{-s}/2, 0.3)). All columns must be nonincreasing and end below
    the target threshold. ``ns`` must be strictly increasing, so that
    "nonincreasing" reads along refinement, and the threshold finite and
    nonnegative.
    """
    if len(ns) == 0:
        raise DomainError("ns must hold at least one truncation point; an empty one would check nothing")
    if any(later <= earlier for earlier, later in zip(ns, ns[1:])):
        raise DomainError(f"ns must be strictly increasing, got {list(ns)}")
    _require_tolerance(target_threshold, "target threshold")
    grid = zeta.grid
    report = membership(FockUnit(zeta, constant(grid, 0.0)), membership_tol)
    if not report.in_E:
        raise NotAMemberError(f"zeta limit {report.zeta_limit} is not 1; the truncation scheme does not apply")
    if probe is None:
        probe = FockUnit(exp_approach(grid, 0.5, 1.0), constant(grid, 0.3))
    zero = constant(grid, 0.0)
    eta = FockUnit(zeta, zero)
    omega = vacuum_unit(grid)
    eta_ref = wrap(eta, omega)
    diag = kernel(eta, eta)
    diag_exp = semigroup(eta, eta, t)
    cross = kernel(eta, probe)
    rows = []
    for n in ns:
        zeta_n = approximate(zeta, n)
        eta_n = FockUnit(zeta_n, zero)
        rows.append(
            ConvergenceRow(
                n=n,
                sup_dist=(zeta - zeta_n).sup_norm(),
                index_dist=index_norm(subtract(eta_ref, wrap(eta_n, omega))),
                kernel_dist=(kernel(eta_n, eta_n) - diag).operator_norm(),
                semigroup_dist=(semigroup(eta_n, eta_n, t) - diag_exp).operator_norm(),
                probe_kernel_dist=(kernel(eta_n, probe) - cross).operator_norm(),
            )
        )
    columns = [f.name for f in fields(ConvergenceRow) if f.name != "n"]
    monotone = all(
        getattr(rows[i + 1], col) <= getattr(rows[i], col) + 1e-12
        for col in columns
        for i in range(len(rows) - 1)
    )
    gaps = [abs(row.index_dist - row.sup_dist) for row in rows]
    below = all(getattr(rows[-1], col) <= target_threshold for col in columns)
    return ConvergenceReport(
        rows=tuple(rows),
        monotone=monotone,
        index_matches_sup=max(gaps) <= INDEX_SUP_TOLERANCE,
        max_index_sup_gap=max(gaps),
        below_threshold=below,
        target_threshold=target_threshold,
    )


def index_representative(u: FockUnit, tol: float = MEMBERSHIP_TOLERANCE) -> AlgebraElement:
    """The class of a member in the index: zeta - 1, an element vanishing
    at infinity. beta is quotiented out."""
    report = membership(u, tol)
    if not report.in_E:
        raise NotAMemberError(f"unit with zeta limit {report.zeta_limit} is not a member; no representative")
    return u.zeta - constant(u.grid, 1.0)


def index_homomorphism_residuals(
    x: ReferencedUnit, y: ReferencedUnit, a: AlgebraElement, tol: float = MEMBERSHIP_TOLERANCE
) -> dict:
    """Sup-norm residuals of the representative map zeta - 1 as a homomorphism, for members x, y
    referenced to the generator and an element a: "add", "left" (shift-twisted), "right", and
    "inner", the pairing <x, y> at b = 1 against star(rep x) * rep y."""
    rep_x, rep_y = index_representative(x.unit, tol), index_representative(y.unit, tol)
    return {
        "add": (index_representative(add(x, y).unit, tol) - (rep_x + rep_y)).sup_norm(),
        "left": (index_representative(left_mul(a, x).unit, tol) - a.shift(1) * rep_x).sup_norm(),
        "right": (index_representative(right_mul(x, a).unit, tol) - rep_x * a).sup_norm(),
        "inner": (semi_inner(x, y, constant(x.grid, 1.0)) - rep_x.star() * rep_y).sup_norm(),
    }


def _centrality_probes(grid) -> list[AlgebraElement]:
    """Strictly monotone probes; their unit shift differs from them at
    every grid point, which is what exposes non-central units."""
    return [
        exp_decay(grid, 1.0, 1.0, 0.0),
        exp_decay(grid, -1.0, 1.0, 1.0),
        exp_decay(grid, 1.0, 0.6, 0.0),
    ]


def centrality_check(u: FockUnit) -> bool:
    """Whether the shift obstruction shift(b, 1)*zeta - b*zeta stays below
    CENTRALITY_TOLERANCE for every strictly monotone probe b. Members always
    fail; zeta = 0 passes vacuously."""
    probes, zeta = _centrality_probes(u.grid), u.zeta
    return all(((b.shift(1) - b) * zeta).sup_norm() <= CENTRALITY_TOLERANCE for b in probes)
