"""Bimodule calculus on continuous units relative to a reference unit.

Every operation here is carried out twice. The formula path combines the
operands' kernels (sums, and compositions with multiplication operators)
exactly as the kernel-level definitions prescribe; the parameter path
writes down the (zeta, beta) pair the result must have. The two paths are
kept side by side on the result so their agreement can be checked against
a probe battery, rather than assumed. The formula path is taken over the
whole battery at once: each operation composes and sums stacks of kernel
bands, one row per probe, in the order and from the start that the sum of
operators per probe took, so each row has that sum's bits.

Scalar multiplication and subtraction are realized through the module
operations themselves: alpha*x is left multiplication by the constant
alpha, and x - y is add(x, (-1)*y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement, DomainError, GridMismatchError, GridSpec, constant
from .fock import FockUnit, WeightedShift, _largest_row_sum, _scale_input, kernel, kernel_stack, multiplication_operator
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

    ``unit`` is the parameter-path representation. ``cross_kernels`` gives
    the formula-path kernel bands against every unit of a probe battery as
    one stack, and ``self_kernel`` the formula-path diagonal kernel;
    :func:`wrap` gives a plain unit its own kernels.
    """

    unit: FockUnit
    reference: FockUnit
    _cross: Callable[[Sequence[FockUnit]], np.ndarray] = field(repr=False)
    _self: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if self.unit.grid != self.reference.grid:
            raise GridMismatchError("unit and reference must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.unit.grid

    def cross_kernels(self, probes: Sequence[FockUnit]) -> np.ndarray:
        """The formula-path bands against each probe, shape (len(probes), 2, dim), in an array the caller may modify."""
        return self._cross(probes)

    def self_kernel(self) -> WeightedShift:
        return WeightedShift._wrap(self.grid, self._self())


def wrap(unit: FockUnit, reference: FockUnit) -> ReferencedUnit:
    return ReferencedUnit(unit, reference, lambda probes: kernel_stack((unit,), probes)[0], lambda: kernel(unit, unit).bands)


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
    mul_conj = multiplication_operator(beta.star()).bands
    mul_plain = multiplication_operator(beta).bands

    def cross(probes: Sequence[FockUnit]) -> np.ndarray:
        kernels = kernel_stack((base,), probes)[0]
        kernels += mul_conj
        return kernels

    return ReferencedUnit(candidate, x.reference, cross, lambda: kernel(base, base).bands + mul_conj + mul_plain)


def coefficients_sum_to_one(coefficients: Sequence[AlgebraElement]) -> bool:
    """Whether the coefficients of a combination sum to the unit element within COEFFICIENT_SUM_TOLERANCE."""
    if not coefficients:
        return False  # the empty sum is 0
    grid = coefficients[0].grid
    return (sum(coefficients, constant(grid, 0.0)) - constant(grid, 1.0)).sup_norm() <= COEFFICIENT_SUM_TOLERANCE


def _act(coordinates: np.ndarray, kernels: np.ndarray, inner: bool, grid: GridSpec) -> np.ndarray:
    """The bands of ``kernel @ multiplication_operator(c)`` (inner) or
    ``multiplication_operator(c) @ kernel`` for each kernel of a stack
    (k, 2, dim) that the caller owns, taken in place, with the coordinates
    of the multipliers c given as (dim,) or (k, dim)."""
    if inner:
        return _scale_input(kernels, coordinates, np.zeros(grid.dim), grid)
    return np.multiply(coordinates[..., None, :], kernels, out=kernels)


def _accumulate(terms: np.ndarray, signs: Sequence[int] | None = None, from_zero: bool = False) -> np.ndarray:
    """The terms of a stack that the caller owns summed in order along its
    first axis, in place in the first: a term whose sign in ``signs`` is
    -1 is subtracted, and the first term's sign must be +1. ``from_zero``
    takes 0 + terms[0] + ..., the sum of operators that started from
    WeightedShift.zero; it differs from the sum from the first term only
    where that term has a -0 entry, which the zero turns into +0, and
    x + 0 has the bits of 0 + x."""
    total = terms[0]
    if from_zero:
        total += 0.0
    for k in range(1, len(terms)):
        if signs is not None and signs[k] < 0:
            total -= terms[k]
        else:
            total += terms[k]
    return total


def _coordinates(elements: Sequence[AlgebraElement]) -> np.ndarray:
    """The coordinates of each element, stacked (len(elements), dim)."""
    return np.array([e.coordinates for e in elements])


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
    stars = [c.star() for c in coefficients]

    def cross(probes: Sequence[FockUnit]) -> np.ndarray:
        terms = _act(_coordinates(stars)[:, None], kernel_stack(units, probes), inner, grid)
        return _accumulate(terms, from_zero=True)

    def diagonal() -> np.ndarray:
        products = _coordinates([si * cj for si in stars for cj in coefficients])
        terms = _act(products, kernel_stack(units, units).reshape(len(products), 2, grid.dim), inner, grid)
        return _accumulate(terms, from_zero=True)

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


def _signed_sum(lefts, rights, signs) -> np.ndarray:
    """sum_i sum_j s_i s_j K(u_i, v_j) over one kernel stack, the signs
    s = +-1 the same on both sides, summed row by row from the first term.
    s_0 must be +1, as it is for every caller, so the sum starts from the
    first kernel itself."""
    kernels = kernel_stack(lefts, rights)
    return _accumulate(kernels.reshape(-1, *kernels.shape[2:]), [si * sj for si in signs for sj in signs])


def add(x: ReferencedUnit, y: ReferencedUnit) -> ReferencedUnit:
    """x + y, the combination of x, y and the reference with coefficients
    (1, 1, -1); the reference is the operation's neutral element."""
    _check_same_reference(x, y)
    omega = x.reference
    xu, yu = x.unit, y.unit
    candidate = FockUnit(xu.zeta + yu.zeta - omega.zeta, xu.beta + yu.beta - omega.beta)
    units, signs = (xu, yu, omega), (1, 1, -1)

    def cross(probes: Sequence[FockUnit]) -> np.ndarray:
        return _accumulate(kernel_stack(units, probes), signs)

    return ReferencedUnit(candidate, omega, cross, lambda: _signed_sum(units, units, signs))


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
    stars = (a.star(), rest.star())
    multipliers = _coordinates(stars)
    units = (xu, omega)

    def cross(probes: Sequence[FockUnit]) -> np.ndarray:
        return _accumulate(_act(multipliers[:, None], kernel_stack(units, probes), inner, a.grid))

    def diagonal() -> np.ndarray:
        # Summed column by column, (i, j) = (0, 0), (1, 0), (0, 1), (1, 1), from the first term.
        products = _coordinates([si * cj for cj in (a, rest) for si in stars])
        kernels = kernel_stack(units, units).swapaxes(0, 1).reshape(len(products), 2, a.grid.dim)
        return _accumulate(_act(products, kernels, inner, a.grid))

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
    return WeightedShift._wrap(x.grid, _signed_sum((x.unit, omega), (y.unit, omega), (1, -1))).apply(b)


def semi_inner_adjoint_residual(x: ReferencedUnit, y: ReferencedUnit, b: AlgebraElement) -> float:
    """Sup-norm gap of the adjoint symmetry <x, y>(b) = star(<y, x>(star b))."""
    return (semi_inner(x, y, b) - semi_inner(y, x, b.star()).star()).sup_norm()


def index_norm(x: ReferencedUnit) -> float:
    """sqrt of the sup-norm of <x, x> at b = 1; vanishing exactly on the
    null space the index quotients out."""
    one = constant(x.grid, 1.0)
    return float(np.sqrt(semi_inner(x, x, one).sup_norm()))


def _largest_gap(formula: np.ndarray, unit: FockUnit, rights: Sequence[FockUnit]) -> float:
    """Largest operator-norm gap between a stack of formula-path bands,
    which the caller owns, and the kernels K(unit, r) for r in ``rights``,
    row for row: one difference, taken in place, and one abs over the
    whole stack. A NaN gap raises ValueError, as
    ``WeightedShift.operator_norm`` does."""
    formula -= kernel_stack((unit,), rights)[0]
    gap = np.abs(formula)
    return _largest_row_sum(gap[:, 0] + gap[:, 1])


def dual_path_residual(x: ReferencedUnit, probes: Sequence[FockUnit]) -> float:
    """Largest operator-norm gap between the formula-path kernels and the
    kernels of the parameter-path candidate, over the diagonal and a probe
    battery."""
    probes = list(probes)
    formula = np.empty((1 + len(probes), 2, x.grid.dim), dtype=complex)
    formula[0] = x.self_kernel().bands
    formula[1:] = x.cross_kernels(probes)
    return _largest_gap(formula, x.unit, [x.unit, *probes])
