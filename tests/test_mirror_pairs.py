"""Each mirror pair of the bimodule calculus is written once. These tests
hold it to the two hand-written bodies it replaced: the reference functions
below are verbatim copies of that code, and every candidate parameter,
formula-path kernel band and semi-inner value must match them byte for
byte, signed zeros included."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockindex.algebra import AlgebraElement, GridSpec, constant
from fockindex.fock import FockUnit, KernelOperator, WeightedShift, kernel, multiplication_operator
from fockindex.unit_algebra import (
    COEFFICIENT_SUM_TOLERANCE,
    ReferencedUnit,
    _check_same_reference,
    add,
    boxplus_left,
    boxplus_right,
    left_mul,
    right_mul,
    semi_inner,
    wrap,
)

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
        total = WeightedShift.zero(grid)
        for c, u in zip(coefficients, units):
            total = total + multiplication_operator(c.star()) @ kernel(u, probe)
        return total

    def diagonal():
        total = WeightedShift.zero(grid)
        for ci, ui in zip(coefficients, units):
            for cj, uj in zip(coefficients, units):
                total = total + multiplication_operator(ci.star() * cj) @ kernel(ui, uj)
        return total

    return ReferencedUnit(candidate, reference, cross, diagonal)


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
        total = WeightedShift.zero(grid)
        for c, u in zip(coefficients, units):
            total = total + kernel(u, probe) @ multiplication_operator(c.star())
        return total

    def diagonal():
        total = WeightedShift.zero(grid)
        for ci, ui in zip(coefficients, units):
            for cj, uj in zip(coefficients, units):
                total = total + kernel(ui, uj) @ multiplication_operator(ci.star() * cj)
        return total

    return ReferencedUnit(candidate, reference, cross, diagonal)


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

    return ReferencedUnit(candidate, omega, cross, diagonal)


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

    return ReferencedUnit(candidate, omega, cross, diagonal)


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

    return ReferencedUnit(candidate, omega, cross, diagonal)


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


def assert_same_unit(got, expected, probes):
    assert element_bytes(got.unit.zeta) == element_bytes(expected.unit.zeta)
    assert element_bytes(got.unit.beta) == element_bytes(expected.unit.beta)
    assert got.self_kernel().bands.tobytes() == expected.self_kernel().bands.tobytes()
    for probe in probes:
        assert got.cross_kernel(probe).bands.tobytes() == expected.cross_kernel(probe).bands.tobytes()


def draw(seed, grid):
    rng = np.random.default_rng(seed)
    reference = random_unit(rng, grid)
    probes = [random_unit(rng, grid) for _ in range(2)] + [reference]
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
            boxplus_left(coefficients, units, reference), reference_boxplus_left(coefficients, units, reference), probes
        )
        assert_same_unit(
            boxplus_right(units, coefficients, reference), reference_boxplus_right(units, coefficients, reference), probes
        )


@on_small_grids
def test_module_actions_are_byte_identical_to_the_two_bodies(grid, seed):
    rng, reference, probes = draw(seed, grid)
    for a in (random_element(rng, grid), constant(grid, -1.0), constant(grid, -0.0)):
        x = wrap(random_unit(rng, grid), reference)
        assert_same_unit(left_mul(a, x), reference_left_mul(a, x), probes)
        assert_same_unit(right_mul(x, a), reference_right_mul(x, a), probes)


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
        WeightedShift.zero(grid),
    ]
    for shift in shifts:
        dense = shift.to_dense()
        assert dense.shape == (grid.dim, grid.dim)
        assert dense.tobytes() == reference_to_dense(shift).tobytes()
        assert dense.tobytes() == KernelOperator(grid, shift.blocks).to_dense().tobytes()
