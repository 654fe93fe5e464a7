"""Bimodule calculus on continuous units relative to a reference unit.

Every operation here is carried out twice. The formula path combines the
operands' kernels (sums, and compositions with multiplication operators)
exactly as the kernel-level definitions prescribe; the parameter path
writes down the (zeta, beta) pair the result must have. The two paths are
kept side by side on the result so their agreement can be checked against
a probe battery, rather than assumed.

Scalar multiplication and subtraction are realized through the module
operations themselves: alpha*x is left multiplication by the constant
alpha, and x - y is add(x, (-1)*y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement, DomainError, GridSpec, constant
from .fock import FockUnit, WeightedShift, kernel, multiplication_operator
from .presets import exp_approach, exp_decay

__all__ = [
    "ReferencedUnit",
    "wrap",
    "default_probe_units",
    "power_beta",
    "boxplus_left",
    "boxplus_right",
    "add",
    "left_mul",
    "right_mul",
    "scalar_mul",
    "subtract",
    "semi_inner",
    "semi_inner_adjoint_residual",
    "coefficients_sum_to_one",
    "index_norm",
    "dual_path_residual",
]

COEFFICIENT_SUM_TOLERANCE = 1e-12


def _units_equal(a: FockUnit, b: FockUnit) -> bool:
    return (
        a.grid == b.grid
        and np.array_equal(a.zeta.samples, b.zeta.samples)
        and a.zeta.tail == b.zeta.tail
        and np.array_equal(a.beta.samples, b.beta.samples)
        and a.beta.tail == b.beta.tail
    )


@dataclass(frozen=True, eq=False)
class ReferencedUnit:
    """A unit together with the reference against which the bimodule
    operations and the semi-inner product are formed.

    ``unit`` is the parameter-path representation. ``cross_kernel`` gives
    the formula-path kernel against an arbitrary probe unit, and
    ``self_kernel`` the formula-path diagonal kernel; :func:`wrap` gives a
    plain unit its own kernels.
    """

    unit: FockUnit
    reference: FockUnit
    _cross: Callable[[FockUnit], WeightedShift] = field(repr=False)
    _self: Callable[[], WeightedShift] = field(repr=False)

    def __post_init__(self) -> None:
        if self.unit.grid != self.reference.grid:
            raise DomainError("unit and reference must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.unit.grid

    def cross_kernel(self, probe: FockUnit) -> WeightedShift:
        return self._cross(probe)

    def self_kernel(self) -> WeightedShift:
        return self._self()


def wrap(unit: FockUnit, reference: FockUnit) -> ReferencedUnit:
    return ReferencedUnit(unit, reference, lambda probe: kernel(unit, probe), lambda: kernel(unit, unit))


def _check_same_reference(x: ReferencedUnit, y: ReferencedUnit) -> None:
    if not _units_equal(x.reference, y.reference):
        raise DomainError("reference mismatch: operands carry different reference units")


def default_probe_units(grid: GridSpec) -> list[FockUnit]:
    """Six probes covering constant, decaying and complex parameters."""
    zero = constant(grid, 0.0)
    one = constant(grid, 1.0)
    return [
        FockUnit(zero, zero),
        FockUnit(one, zero),
        FockUnit(exp_approach(grid, 1.0, 1.0), zero),
        FockUnit(constant(grid, 2.0), one),
        FockUnit(exp_approach(grid, complex(0.5, 0.5), 1.0), constant(grid, 1j)),
        FockUnit(exp_decay(grid, 1.0, 1.0, 0.5), exp_decay(grid, complex(0.2, -0.3), 0.8, 0.0)),
    ]


def power_beta(x: ReferencedUnit, beta: AlgebraElement) -> ReferencedUnit:
    """Shift a unit's beta parameter; kernels gain multiplication terms:
    against a probe, conj(beta)*id; on the diagonal, conj(beta)*id + id*beta."""
    base = x.unit
    candidate = FockUnit(base.zeta, base.beta + beta)
    mul_conj = multiplication_operator(beta.star())
    mul_plain = multiplication_operator(beta)

    def cross(probe: FockUnit) -> WeightedShift:
        return kernel(base, probe) + mul_conj

    def diagonal() -> WeightedShift:
        return kernel(base, base) + mul_conj + mul_plain

    return ReferencedUnit(candidate, x.reference, cross, diagonal)


def coefficients_sum_to_one(coefficients: Sequence[AlgebraElement]) -> bool:
    """Whether the coefficients of a combination sum to the unit element within COEFFICIENT_SUM_TOLERANCE."""
    grid = coefficients[0].grid
    return (sum(coefficients, constant(grid, 0.0)) - constant(grid, 1.0)).sup_norm() <= COEFFICIENT_SUM_TOLERANCE


def _act(mul: WeightedShift, k: WeightedShift, inner: bool) -> WeightedShift:
    """A multiplication composed with a kernel on its input side (inner) or its output side."""
    return k @ mul if inner else mul @ k


def _combination(coefficients, units, reference: FockUnit, inner: bool) -> ReferencedUnit:
    """Formula path: against a probe, the sum over i of conj(c_i) composed
    with K(u_i, probe); on the diagonal, of conj(c_i)*c_j composed with
    K(u_i, u_j). Parameter path: (sum c_j zeta_j, sum c_j beta_j), with
    c_j shifted by 1 in the zeta sum when it composes on the input side."""
    coefficients = list(coefficients)
    units = list(units)
    if len(coefficients) != len(units) or not units:
        raise DomainError("need one coefficient per unit and at least one unit")
    if not coefficients_sum_to_one(coefficients):
        raise DomainError("coefficients must sum to the unit element")
    grid = units[0].grid
    zeta = constant(grid, 0.0)
    beta = constant(grid, 0.0)
    for c, u in zip(coefficients, units):
        zeta = zeta + c.shift(int(inner)) * u.zeta
        beta = beta + c * u.beta
    candidate = FockUnit(zeta, beta)

    def cross(probe: FockUnit) -> WeightedShift:
        total = WeightedShift.zero(grid)
        for c, u in zip(coefficients, units):
            total = total + _act(multiplication_operator(c.star()), kernel(u, probe), inner)
        return total

    def diagonal() -> WeightedShift:
        total = WeightedShift.zero(grid)
        for ci, ui in zip(coefficients, units):
            for cj, uj in zip(coefficients, units):
                total = total + _act(multiplication_operator(ci.star() * cj), kernel(ui, uj), inner)
        return total

    return ReferencedUnit(candidate, reference, cross, diagonal)


def boxplus_left(
    coefficients: Sequence[AlgebraElement],
    units: Sequence[FockUnit],
    reference: FockUnit,
) -> ReferencedUnit:
    """Combination with coefficients acting on the left of each unit: the
    multiplications are applied to the kernel output."""
    return _combination(coefficients, units, reference, inner=False)


def boxplus_right(
    units: Sequence[FockUnit],
    coefficients: Sequence[AlgebraElement],
    reference: FockUnit,
) -> ReferencedUnit:
    """Combination with coefficients acting on the right of each unit: the
    multiplications compose with the kernels on the input side, so the
    parameter path picks up the unit shift: (sum shift(c_j, 1) zeta_j, sum c_j beta_j)."""
    return _combination(coefficients, units, reference, inner=True)


def _signed_kernels(lefts, rights) -> WeightedShift:
    """sum_i sum_j s_i s_j K(u_i, v_j) over signed units (s_i, u_i) and
    (s_j, v_j), s = +-1, summed row by row from the first term. The first
    unit of each side must carry +1, as it does for every caller, so the
    sum starts from the first kernel itself."""
    terms = [(si * sj, kernel(u, v)) for si, u in lefts for sj, v in rights]
    total = terms[0][1]
    for sign, term in terms[1:]:
        total = total + term if sign > 0 else total - term
    return total


def add(x: ReferencedUnit, y: ReferencedUnit) -> ReferencedUnit:
    """x + y, the combination of x, y and the reference with coefficients
    (1, 1, -1); the reference is the operation's neutral element."""
    _check_same_reference(x, y)
    omega = x.reference
    xu, yu = x.unit, y.unit
    candidate = FockUnit(xu.zeta + yu.zeta - omega.zeta, xu.beta + yu.beta - omega.beta)
    signed = ((1, xu), (1, yu), (-1, omega))
    return ReferencedUnit(
        candidate, omega, lambda probe: _signed_kernels(signed, ((1, probe),)), lambda: _signed_kernels(signed, signed)
    )


def _module_mul(a: AlgebraElement, x: ReferencedUnit, inner: bool) -> ReferencedUnit:
    """The action of a on x: a and 1 - a compose with the kernels of x and
    the reference on the input side (inner) or the output side; on the
    input side a takes the unit shift in the zeta parameter."""
    omega = x.reference
    xu = x.unit
    one = constant(a.grid, 1.0)
    rest = one - a
    a_zeta = a.shift(int(inner))

    def times(c: AlgebraElement, e: AlgebraElement) -> AlgebraElement:
        return c * e if inner else e * c  # each side's operand order: complex products are not bitwise commutative

    candidate = FockUnit(
        times(a_zeta, xu.zeta) + times(one - a_zeta, omega.zeta),
        times(a, xu.beta) + times(rest, omega.beta),
    )
    mul_a = multiplication_operator(a.star())
    mul_rest = multiplication_operator(rest.star())

    def cross(probe: FockUnit) -> WeightedShift:
        return _act(mul_a, kernel(xu, probe), inner) + _act(mul_rest, kernel(omega, probe), inner)

    def diagonal() -> WeightedShift:
        pairs = ((a, xu), (rest, omega))
        terms = [_act(multiplication_operator(ci.star() * cj), kernel(ui, uj), inner) for cj, uj in pairs for ci, ui in pairs]
        return sum(terms[1:], terms[0])

    return ReferencedUnit(candidate, omega, cross, diagonal)


def left_mul(a: AlgebraElement, x: ReferencedUnit) -> ReferencedUnit:
    """a . x, with the multiplications composed on the input side of the
    kernels; the parameter path twists a by the unit shift:
    (shift(a,1) zeta_x + (1 - shift(a,1)) zeta_ref, a beta_x + (1-a) beta_ref)."""
    return _module_mul(a, x, inner=True)


def right_mul(x: ReferencedUnit, a: AlgebraElement) -> ReferencedUnit:
    """x . a, with the multiplications applied to the kernel output:
    (zeta_x a + zeta_ref (1-a), beta_x a + beta_ref (1-a))."""
    return _module_mul(a, x, inner=False)


def scalar_mul(alpha: complex, x: ReferencedUnit) -> ReferencedUnit:
    """alpha * x as left multiplication by the constant alpha."""
    return left_mul(constant(x.grid, alpha), x)


def subtract(x: ReferencedUnit, y: ReferencedUnit) -> ReferencedUnit:
    """x - y as add(x, (-1) * y)."""
    return add(x, scalar_mul(-1.0, y))


def semi_inner(x: ReferencedUnit, y: ReferencedUnit, b: AlgebraElement) -> AlgebraElement:
    """The reference-relative semi-inner product
    (K(x,y) - K(x,ref) - K(ref,y) + K(ref,ref)) applied to b."""
    _check_same_reference(x, y)
    omega = x.reference
    return _signed_kernels(((1, x.unit), (-1, omega)), ((1, y.unit), (-1, omega))).apply(b)


def semi_inner_adjoint_residual(x: ReferencedUnit, y: ReferencedUnit, b: AlgebraElement) -> float:
    """Sup-norm gap of the adjoint symmetry <x, y>(b) = star(<y, x>(star b))."""
    return (semi_inner(x, y, b) - semi_inner(y, x, b.star()).star()).sup_norm()


def index_norm(x: ReferencedUnit) -> float:
    """sqrt of the sup-norm of <x, x> at b = 1; vanishing exactly on the
    null space the index quotients out."""
    one = constant(x.grid, 1.0)
    return float(np.sqrt(semi_inner(x, x, one).sup_norm()))


def dual_path_residual(x: ReferencedUnit, probes: Sequence[FockUnit]) -> float:
    """Largest operator-norm gap between the formula-path kernels and the
    kernels of the parameter-path candidate, over a probe battery and the
    diagonal."""
    worst = (x.self_kernel() - kernel(x.unit, x.unit)).operator_norm()
    for probe in probes:
        gap = (x.cross_kernel(probe) - kernel(x.unit, probe)).operator_norm()
        worst = max(worst, gap)
    return worst
