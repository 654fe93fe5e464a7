"""Each mirror pair of the bimodule calculus is written once, and each
operation takes its formula path over a whole probe battery as one kernel
stack. These tests hold both to the per-probe bodies they replaced: the
reference functions below are verbatim copies of that code, and every
candidate parameter, formula-path kernel band (each row of a probe stack
included), semi-inner value, dual-path residual and theta residual must
match them byte for byte, signed zeros included. The exceptions are the
kernel bands of the combinations and module actions and the products with
a multiplication operator: they keep every nonzero bit but not the signs
of zeros, which no report reads, so they are compared after ``+ 0.0``,
which maps -0 to +0 and keeps every other bit.

The references build :class:`PerProbeUnit`, the per-probe form that
``ReferencedUnit`` had when they were written, and start their sums from
``zero_shift(grid)``, the retired ``WeightedShift.zero``; those two names
are all that changed in them. They still call ``kernel`` and ``@``, which
now share code with the stacks, so two tests below hold those to verbatim
copies of their old bodies as well."""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockindex.algebra import AlgebraElement, GridSpec, constant
from fockindex.fock import FockUnit, KernelOperator, WeightedShift, generator_unit, kernel, kernel_stack, multiplication_operator
from fockindex.subsystem import convexify, theta_check
from fockindex.unit_algebra import (
    COEFFICIENT_SUM_TOLERANCE,
    _check_same_reference,
    add,
    boxplus_left,
    boxplus_right,
    dual_path_residual,
    left_mul,
    power_beta,
    right_mul,
    semi_inner,
    wrap,
)


@dataclass(frozen=True, eq=False)
class PerProbeUnit:
    """A unit, its reference and its formula-path kernels as per-probe
    closures, the form the references below were written against."""

    unit: FockUnit
    reference: FockUnit
    _cross: Callable = field(repr=False)
    _self: Callable = field(repr=False)

    @property
    def grid(self):
        return self.unit.grid

    def cross_kernel(self, probe):
        return self._cross(probe)

    def self_kernel(self):
        return self._self()


def zero_shift(grid):
    return WeightedShift(grid, np.zeros((2, grid.dim)))


# -- the replaced bodies, verbatim ---------------------------------------------


def reference_check_coefficients(coefficients, units):
    if len(coefficients) != len(units) or not units:
        raise ValueError("need one coefficient per unit and at least one unit")
    grid = units[0].grid
    total = constant(grid, 0.0)
    for c in coefficients:
        total = total + c
    if (total - constant(grid, 1.0)).sup_norm() > COEFFICIENT_SUM_TOLERANCE:
        raise ValueError("coefficients must sum to the unit element")


def reference_boxplus_left(coefficients, units, reference):
    coefficients = list(coefficients)
    units = list(units)
    reference_check_coefficients(coefficients, units)
    grid = units[0].grid
    zeta = constant(grid, 0.0)
    beta = constant(grid, 0.0)
    for c, u in zip(coefficients, units):
        zeta = zeta + c * u.zeta
        beta = beta + c * u.beta
    candidate = FockUnit(zeta, beta)

    def cross(probe):
        total = zero_shift(grid)
        for c, u in zip(coefficients, units):
            total = total + multiplication_operator(c.star()) @ kernel(u, probe)
        return total

    def diagonal():
        total = zero_shift(grid)
        for ci, ui in zip(coefficients, units):
            for cj, uj in zip(coefficients, units):
                total = total + multiplication_operator(ci.star() * cj) @ kernel(ui, uj)
        return total

    return PerProbeUnit(candidate, reference, cross, diagonal)


def reference_boxplus_right(units, coefficients, reference):
    coefficients = list(coefficients)
    units = list(units)
    reference_check_coefficients(coefficients, units)
    grid = units[0].grid
    zeta = constant(grid, 0.0)
    beta = constant(grid, 0.0)
    for c, u in zip(coefficients, units):
        zeta = zeta + c.shift(1) * u.zeta
        beta = beta + c * u.beta
    candidate = FockUnit(zeta, beta)

    def cross(probe):
        total = zero_shift(grid)
        for c, u in zip(coefficients, units):
            total = total + kernel(u, probe) @ multiplication_operator(c.star())
        return total

    def diagonal():
        total = zero_shift(grid)
        for ci, ui in zip(coefficients, units):
            for cj, uj in zip(coefficients, units):
                total = total + kernel(ui, uj) @ multiplication_operator(ci.star() * cj)
        return total

    return PerProbeUnit(candidate, reference, cross, diagonal)


def reference_add(x, y):
    _check_same_reference(x, y)
    omega = x.reference
    xu, yu = x.unit, y.unit
    candidate = FockUnit(xu.zeta + yu.zeta - omega.zeta, xu.beta + yu.beta - omega.beta)

    def cross(probe):
        return kernel(xu, probe) + kernel(yu, probe) - kernel(omega, probe)

    def diagonal():
        return (
            kernel(xu, xu)
            + kernel(xu, yu)
            - kernel(xu, omega)
            + kernel(yu, xu)
            + kernel(yu, yu)
            - kernel(yu, omega)
            - kernel(omega, xu)
            - kernel(omega, yu)
            + kernel(omega, omega)
        )

    return PerProbeUnit(candidate, omega, cross, diagonal)


def reference_left_mul(a, x):
    omega = x.reference
    xu = x.unit
    a_shift = a.shift(1)
    one = constant(a.grid, 1.0)
    candidate = FockUnit(
        a_shift * xu.zeta + (one - a_shift) * omega.zeta,
        a * xu.beta + (one - a) * omega.beta,
    )
    mul_a = multiplication_operator(a.star())
    mul_rest = multiplication_operator((one - a).star())

    def cross(probe):
        return kernel(xu, probe) @ mul_a + kernel(omega, probe) @ mul_rest

    def diagonal():
        return (
            kernel(xu, xu) @ multiplication_operator(a.star() * a)
            + kernel(omega, xu) @ multiplication_operator((one - a).star() * a)
            + kernel(xu, omega) @ multiplication_operator(a.star() * (one - a))
            + kernel(omega, omega) @ multiplication_operator((one - a).star() * (one - a))
        )

    return PerProbeUnit(candidate, omega, cross, diagonal)


def reference_right_mul(x, a):
    omega = x.reference
    xu = x.unit
    one = constant(a.grid, 1.0)
    candidate = FockUnit(
        xu.zeta * a + omega.zeta * (one - a),
        xu.beta * a + omega.beta * (one - a),
    )
    mul_a = multiplication_operator(a.star())
    mul_rest = multiplication_operator((one - a).star())

    def cross(probe):
        return mul_a @ kernel(xu, probe) + mul_rest @ kernel(omega, probe)

    def diagonal():
        return (
            multiplication_operator(a.star() * a) @ kernel(xu, xu)
            + multiplication_operator((one - a).star() * a) @ kernel(omega, xu)
            + multiplication_operator(a.star() * (one - a)) @ kernel(xu, omega)
            + multiplication_operator((one - a).star() * (one - a)) @ kernel(omega, omega)
        )

    return PerProbeUnit(candidate, omega, cross, diagonal)


def reference_semi_inner(x, y, b):
    _check_same_reference(x, y)
    omega = x.reference
    combined = (
        kernel(x.unit, y.unit)
        - kernel(x.unit, omega)
        - kernel(omega, y.unit)
        + kernel(omega, omega)
    )
    return combined.apply(b)


def reference_wrap(unit, reference):
    return PerProbeUnit(unit, reference, lambda probe: kernel(unit, probe), lambda: kernel(unit, unit))


def reference_power_beta(x, beta):
    base = x.unit
    candidate = FockUnit(base.zeta, base.beta + beta)
    mul_conj = multiplication_operator(beta.star())
    mul_plain = multiplication_operator(beta)

    def cross(probe):
        return kernel(base, probe) + mul_conj

    def diagonal():
        return kernel(base, base) + mul_conj + mul_plain

    return PerProbeUnit(candidate, x.reference, cross, diagonal)


def reference_dual_path_residual(x, probes):
    worst = (x.self_kernel() - kernel(x.unit, x.unit)).operator_norm()
    for probe in probes:
        gap = (x.cross_kernel(probe) - kernel(x.unit, probe)).operator_norm()
        worst = max(worst, gap)
    return worst


def reference_theta_check(zeta, n, probes, delta=0.1):
    grid = zeta.grid
    alpha, zeta_prime = convexify(zeta, n, delta)
    eta_prime = FockUnit(zeta_prime, constant(grid, 0.0))
    xi = generator_unit(grid)
    coefficients = [constant(grid, 1.0 / alpha), constant(grid, 1.0 - 1.0 / alpha)]
    theta = reference_boxplus_left(coefficients, [eta_prime, xi], xi)
    eta = FockUnit(zeta, constant(grid, 0.0))
    worst = 0.0
    for probe in probes:
        gap = (theta.cross_kernel(probe) - kernel(eta, probe)).operator_norm()
        worst = max(worst, gap)
    return worst


def reference_kernel(u, v):
    bands = np.zeros((2, u.grid.dim), dtype=complex)
    # Added to zeros rather than assigned, so signed zeros come out as +0.
    bands[1, :-1] += np.conj(u.zeta.samples) * v.zeta.samples
    bands[0, :-1] += np.conj(u.beta.samples) + v.beta.samples
    bands[0, -1] = np.conj(u.zeta.tail) * v.zeta.tail + np.conj(u.beta.tail) + v.beta.tail
    return WeightedShift._wrap(u.grid, bands)


def reference_matmul(left, right):
    """WeightedShift.__matmul__ as the per-probe bodies composed with it."""
    if not left.bands[1].any():
        return WeightedShift._wrap(left.grid, left.bands[0] * right.bands)
    if not right.bands[1].any():
        a = right.bands[0]
        bands = np.zeros_like(left.bands)
        bands[0] = left.bands[0] * a
        bands[1, :-1] = left.bands[1, :-1] * a[np.minimum(np.arange(left.grid.size) + left.grid.step_denominator, left.grid.size)]
        return WeightedShift._wrap(left.grid, bands)
    return NotImplemented


def next_index(grid):
    """Where the unit shift moves each sample k: k+m, or the tail past the grid."""
    return np.minimum(np.arange(grid.size) + grid.step_denominator, grid.size)


def reference_to_dense(shift):
    """Sample k has a on the diagonal and w at column k+m, or at the tail
    past the grid end; the tail row holds only the tail's a."""
    grid = shift.grid
    n, m = grid.size, grid.step_denominator
    dense = np.zeros((grid.dim, grid.dim), dtype=complex)
    for k in range(n):
        dense[k, k] = shift.bands[0, k]
        dense[k, min(k + m, n)] = shift.bands[1, k]
    dense[n, n] = shift.bands[0, n]
    return dense


# -- random operands ---------------------------------------------------------------


def on_small_grids(test):
    """Run ``test(grid, seed)`` on random grids up to (4, 5), always
    including m = 1 (no pad slots) and S = 1."""
    for grid in (GridSpec(1, 1), GridSpec(1, 5), GridSpec(4, 1)):
        test = example(grid, 0)(test)
    grids = st.builds(GridSpec, st.integers(1, 4), st.integers(1, 5))
    return settings(max_examples=40, deadline=None)(given(grids, st.integers(0, 2**32 - 1))(test))


SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


def random_element(rng, grid):
    """Entries in the square of radius 0.7, with some parts exactly +0 or -0;
    the tail repeats the last sample, so the element is resolved."""
    samples = rng.uniform(-0.7, 0.7, grid.size) + 1j * rng.uniform(-0.7, 0.7, grid.size)
    for k in np.flatnonzero(rng.random(grid.size) < 0.3):
        samples[k] = SIGNED_ZEROS[rng.integers(4)]
    for k in np.flatnonzero(rng.random(grid.size) < 0.15):
        samples[k] = complex(samples[k].real, SIGNED_ZEROS[rng.integers(4)].imag)
    return AlgebraElement(grid, samples, complex(samples[-1]))


def random_unit(rng, grid):
    return FockUnit(random_element(rng, grid), random_element(rng, grid))


def element_bytes(e):
    return e.samples.tobytes() + np.complex128(e.tail).tobytes()


def assert_same_unit(got, expected, probes, zero_signs=True):
    """Candidates, diagonal kernels and every row of the probe stack the
    same to the byte, and the dual-path residuals the same to the bit.
    Without ``zero_signs`` the kernel bands are compared after + 0.0."""
    assert element_bytes(got.unit.zeta) == element_bytes(expected.unit.zeta)
    assert element_bytes(got.unit.beta) == element_bytes(expected.unit.beta)
    assert band_bytes(got.self_kernel().bands, zero_signs) == band_bytes(expected.self_kernel().bands, zero_signs)
    stack = got.cross_kernels(probes)
    assert stack.shape == (len(probes), 2, got.grid.dim)
    for row, probe in zip(stack, probes):
        assert band_bytes(row, zero_signs) == band_bytes(expected.cross_kernel(probe).bands, zero_signs)
    assert float_bytes(dual_path_residual(got, probes)) == float_bytes(reference_dual_path_residual(expected, probes))


def band_bytes(bands, zero_signs):
    """The bytes of an array, or of the array + 0.0, which maps -0 to +0
    and keeps every other bit, when the signs of zeros are not compared."""
    return (bands if zero_signs else bands + 0.0).tobytes()


def float_bytes(value):
    return np.float64(value).tobytes()


def draw(seed, grid):
    """A reference unit and a battery of 1 to 6 probes, drawn from four
    random units, the reference and a unit with zeta = -0, whose kernels
    have a zero shift band."""
    rng = np.random.default_rng(seed)
    reference = random_unit(rng, grid)
    pool = [random_unit(rng, grid) for _ in range(4)]
    pool += [reference, FockUnit(constant(grid, -0.0), random_element(rng, grid))]
    probes = [pool[k] for k in rng.permutation(len(pool))[: rng.integers(1, len(pool) + 1)]]
    return rng, reference, probes


# -- the tests ----------------------------------------------------------------------


@on_small_grids
def test_combinations_are_byte_identical_to_the_two_bodies(grid, seed):
    rng, reference, probes = draw(seed, grid)
    one = constant(grid, 1.0)
    for count in (1, 2, 3):
        coefficients = [random_element(rng, grid) for _ in range(count - 1)]
        coefficients.append(one - sum(coefficients, constant(grid, 0.0)))
        units = [random_unit(rng, grid) for _ in range(count)]
        assert_same_unit(
            boxplus_left(coefficients, units, reference),
            reference_boxplus_left(coefficients, units, reference),
            probes,
            zero_signs=False,
        )
        assert_same_unit(
            boxplus_right(units, coefficients, reference),
            reference_boxplus_right(units, coefficients, reference),
            probes,
            zero_signs=False,
        )


@on_small_grids
def test_module_actions_are_byte_identical_to_the_two_bodies(grid, seed):
    rng, reference, probes = draw(seed, grid)
    for a in (random_element(rng, grid), constant(grid, -1.0), constant(grid, -0.0)):
        x = wrap(random_unit(rng, grid), reference)
        assert_same_unit(left_mul(a, x), reference_left_mul(a, x), probes, zero_signs=False)
        assert_same_unit(right_mul(x, a), reference_right_mul(x, a), probes, zero_signs=False)


@on_small_grids
def test_addition_and_semi_inner_are_byte_identical_to_the_hand_written_sums(grid, seed):
    rng, reference, probes = draw(seed, grid)
    x, y = wrap(random_unit(rng, grid), reference), wrap(random_unit(rng, grid), reference)
    assert_same_unit(add(x, y), reference_add(x, y), probes)
    assert_same_unit(add(x, x), reference_add(x, x), probes)
    b = random_element(rng, grid)
    for left, right in ((x, y), (y, x), (x, x), (wrap(reference, reference), y)):
        assert element_bytes(semi_inner(left, right, b)) == element_bytes(reference_semi_inner(left, right, b))


@on_small_grids
def test_beta_shifts_and_plain_units_are_byte_identical_to_the_per_probe_bodies(grid, seed):
    rng, reference, probes = draw(seed, grid)
    unit = random_unit(rng, grid)
    assert_same_unit(wrap(unit, reference), reference_wrap(unit, reference), probes)
    for beta in (random_element(rng, grid), constant(grid, -0.0)):
        x = wrap(random_unit(rng, grid), reference)
        assert_same_unit(power_beta(x, beta), reference_power_beta(x, beta), probes)


@on_small_grids
def test_theta_residual_is_the_per_probe_loop(grid, seed):
    """A real zeta, 1 from n on, with samples below n that dip negative."""
    rng, _, probes = draw(seed, grid)
    n = int(rng.integers(1, grid.domain_end + 1))
    samples = np.ones(grid.size, dtype=complex)
    samples[: n * grid.step_denominator] = rng.uniform(-0.8, 1.5, n * grid.step_denominator)
    zeta = AlgebraElement(grid, samples, 1.0)
    assert float_bytes(theta_check(zeta, n, probes)) == float_bytes(reference_theta_check(zeta, n, probes))


def outcome(residual, x, probes):
    """The residual, or the type and message of the error it raises."""
    try:
        return float_bytes(residual(x, probes))
    except ValueError as error:
        return ("ValueError", str(error))


def test_an_overflowing_operand_raises_the_same_value_error():
    """Against a reference with zeta = 1e300 the kernels overflow to inf and
    the two paths meet inf - inf: each operation's residual raises the
    ValueError, or returns the value, that the per-probe loop gives."""
    grid = GridSpec(2, 4)
    huge = FockUnit(constant(grid, 1e300), constant(grid, 0.0))
    probes = [generator_unit(grid), huge, FockUnit(constant(grid, 0.0), constant(grid, 0.5))]
    one_third = constant(grid, 1.0 / 3.0)
    coefficients = [one_third, one_third, constant(grid, 1.0) - one_third - one_third]
    units = [generator_unit(grid), huge, probes[2]]
    x, y = wrap(generator_unit(grid), huge), wrap(probes[2], huge)
    ex, ey = reference_wrap(generator_unit(grid), huge), reference_wrap(probes[2], huge)
    a = constant(grid, 0.5 - 0.25j)
    cases = [
        (add(x, y), reference_add(ex, ey)),
        (add(x, x), reference_add(ex, ex)),
        (power_beta(x, a), reference_power_beta(ex, a)),
        (boxplus_left(coefficients, units, huge), reference_boxplus_left(coefficients, units, huge)),
        (boxplus_right(units, coefficients, huge), reference_boxplus_right(units, coefficients, huge)),
        (left_mul(a, x), reference_left_mul(a, ex)),
        (right_mul(x, a), reference_right_mul(ex, a)),
    ]
    raised = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for got, expected in cases:
            want = outcome(reference_dual_path_residual, expected, probes)
            assert outcome(dual_path_residual, got, probes) == want
            raised += isinstance(want, tuple)
    assert raised >= 2


@on_small_grids
def test_kernels_and_kernel_stacks_keep_the_bits_of_the_old_kernel(grid, seed):
    """A -0 zeta against a zeta with positive parts gives -0 products,
    which the kernel turns into +0."""
    rng = np.random.default_rng(seed)
    signed = FockUnit(constant(grid, complex(-0.0, -0.0)), constant(grid, complex(-0.0, 0.0)))
    positive = FockUnit(constant(grid, 1 + 1j), constant(grid, complex(-0.0, -0.0)))
    lefts = [random_unit(rng, grid), signed, positive]
    rights = [random_unit(rng, grid), positive, signed, lefts[0]]
    stack = kernel_stack(lefts, rights)
    for i, u in enumerate(lefts):
        for j, v in enumerate(rights):
            expected = reference_kernel(u, v).bands.tobytes()
            assert kernel(u, v).bands.tobytes() == expected
            assert stack[i, j].tobytes() == expected


@on_small_grids
def test_products_with_a_multiplication_keep_their_bits(grid, seed):
    """The input-side product takes both bands in one pass now; every
    product with a multiplication still has the nonzero bits of the old
    body, infinities and kernels without a shift band included. The one
    exception is K(huge, huge), whose band 0 is inf and band 1 zero: a
    product whose right factor is a multiplication composes it on the
    input side, so band 1 is w Ta, 0 with K(huge, huge) on the left (the
    old body read inf * 0 = NaN) and 0 * inf = NaN with it on the right
    (the old body read a * 0 = 0)."""
    rng = np.random.default_rng(seed)
    a, c = random_element(rng, grid), random_element(rng, grid)
    flat = FockUnit(constant(grid, -0.0), random_element(rng, grid))
    huge = FockUnit(constant(grid, -0.0), constant(grid, complex(1e308, -1.0)))  # band 0 of K(huge, huge) overflows
    signed = WeightedShift(grid, np.where(rng.random((2, grid.dim)) < 0.5, -0.0, 0.0) + np.array([[1.0], [0.0]]))
    muls = [multiplication_operator(a), multiplication_operator(constant(grid, -0.0)), signed]
    with np.errstate(invalid="ignore", over="ignore"):
        overflowed = kernel(huge, huge)
        shifts = [
            kernel(random_unit(rng, grid), random_unit(rng, grid)),
            kernel(flat, random_unit(rng, grid)),
            overflowed,
            multiplication_operator(a),
            multiplication_operator(c.star()),
            signed,
        ]
        for shift in shifts:
            for mul in muls:
                for left, right in ((shift, mul), (mul, shift)):
                    expected = np.array(reference_matmul(left, right).bands)
                    if shift is overflowed:
                        expected[1] = 0.0
                        expected[1, :-1] = left.bands[1, :-1] * right.bands[0, next_index(grid)]
                    assert ((left @ right).bands + 0.0).tobytes() == (expected + 0.0).tobytes()
        assert not (overflowed @ muls[0]).bands[1].any()


@on_small_grids
def test_weighted_shift_to_dense_matches_the_per_sample_formula(grid, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    a = random_element(rng, grid)
    shifts = [
        kernel(u, v),
        multiplication_operator(a),
        multiplication_operator(a) @ kernel(u, v),
        kernel(u, v) @ multiplication_operator(a),
        kernel(u, v) - kernel(v, u),
        zero_shift(grid),
    ]
    for shift in shifts:
        dense = shift.to_dense()
        assert dense.shape == (grid.dim, grid.dim)
        assert dense.tobytes() == reference_to_dense(shift).tobytes()
        assert dense.tobytes() == KernelOperator(grid, shift.blocks).to_dense().tobytes()
