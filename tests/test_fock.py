"""Tests for units, kernels, semigroups and Gram positivity."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex.algebra import AlgebraElement, DomainError, GridMismatchError, GridSpec, _is_count, constant
from fockindex.fock import (
    FockUnit,
    NParticleVector,
    UnsupportedParameterError,
    WeightedShift,
    generator_unit,
    gram_matrices,
    gram_psd_check,
    kernel,
    left_action,
    matrix_exponential,
    module_inner,
    multiplication_operator,
    semigroup,
    unit_component,
    vacuum_unit,
)
from fockindex.presets import exp_approach, exp_decay
from test_chain_operators import exponential_operator, identity_operator, zero_operator

GRID = GridSpec(4, 25)


def random_unit(rng, grid=GRID):
    def elem():
        samples = rng.uniform(-1, 1, grid.size) + 1j * rng.uniform(-1, 1, grid.size)
        return AlgebraElement(grid, samples, complex(samples[-1]))

    return FockUnit(elem(), elem())


def brute_kernel_apply(u, v, b):
    """Direct evaluation of the kernel action, independent of the matrix."""
    grid = u.grid
    m = grid.step_denominator
    shifted = np.concatenate([b.samples[m:], np.full(m, b.tail)])
    samples = np.conj(u.zeta.samples) * shifted * v.zeta.samples + (
        np.conj(u.beta.samples) + v.beta.samples
    ) * b.samples
    tail = np.conj(u.zeta.tail) * b.tail * v.zeta.tail + (np.conj(u.beta.tail) + v.beta.tail) * b.tail
    return np.concatenate([samples, [tail]])


class TestUnits:
    def test_vacuum_and_generator(self):
        omega, xi = vacuum_unit(GRID), generator_unit(GRID)
        assert omega.zeta.sup_norm() == 0 and omega.beta.sup_norm() == 0
        assert np.all(xi.zeta.samples == 1) and xi.beta.sup_norm() == 0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            FockUnit(constant(GRID, 1), constant(GridSpec(2, 10), 0))


class TestKernel:
    def test_vacuum_kernel_vanishes(self):
        assert kernel(vacuum_unit(GRID), vacuum_unit(GRID)).operator_norm() == 0.0

    def test_generator_kernel_is_pure_shift(self):
        matrix = kernel(generator_unit(GRID), generator_unit(GRID)).to_dense()
        n, m = GRID.size, GRID.step_denominator
        expected = np.zeros((GRID.dim, GRID.dim), dtype=complex)
        for k in range(n):
            expected[k, min(k + m, n)] = 1.0
        expected[n, n] = 1.0
        assert np.array_equal(matrix, expected)
        assert kernel(generator_unit(GRID), generator_unit(GRID)).operator_norm() == 1.0

    def test_beta_only_kernel_multiplies(self):
        beta = exp_decay(GRID, 0.7, 1.0, 0.2)
        u = FockUnit(constant(GRID, 0), beta)
        b = exp_approach(GRID, 0.5, 1.0)
        got = kernel(u, vacuum_unit(GRID)).apply(b)
        expected = beta.star() * b
        assert (got - expected).sup_norm() < 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        b = AlgebraElement(GRID, rng.uniform(-1, 1, GRID.size) + 1j * rng.uniform(-1, 1, GRID.size), 0.3 - 0.2j)
        for _ in range(5):
            u, v = random_unit(rng), random_unit(rng)
            got = kernel(u, v).apply(b).coordinates
            assert np.max(np.abs(got - brute_kernel_apply(u, v, b))) < 1e-14

    def test_tail_row_touches_only_tail(self):
        rng = np.random.default_rng(8)
        u, v = random_unit(rng), random_unit(rng)
        matrix = kernel(u, v).to_dense()
        assert np.all(matrix[-1, :-1] == 0)

    def test_apply_to_unit_gives_closed_form(self):
        rng = np.random.default_rng(9)
        u, v = random_unit(rng), random_unit(rng)
        got = kernel(u, v).apply(constant(GRID, 1))
        expected = u.zeta.star() * v.zeta + u.beta.star() + v.beta
        assert (got - expected).sup_norm() < 1e-14

    def test_shift_of_constant_stays_constant(self):
        xi = generator_unit(GRID)
        got = kernel(xi, xi).apply(constant(GRID, 1))
        assert (got - constant(GRID, 1)).sup_norm() == 0.0


class TestKernelOperatorAlgebra:
    def test_identity_and_zero(self):
        b = exp_approach(GRID, 1.0, 1.0)
        assert (identity_operator(GRID).apply(b) - b).sup_norm() == 0.0
        assert zero_operator(GRID).apply(b).sup_norm() == 0.0

    def test_norm_examples(self):
        assert identity_operator(GRID).operator_norm() == 1.0
        assert ((-2.5 + 0j) * identity_operator(GRID)).operator_norm() == 2.5

    def test_multiplication_operator(self):
        a = exp_decay(GRID, 1.0, 1.0, 0.5)
        b = exp_approach(GRID, 0.3, 2.0)
        assert (multiplication_operator(a).apply(b) - a * b).sup_norm() < 1e-14


class TestMatrixExponential:
    def test_zero_matrix(self):
        grid = GridSpec(1, 2)
        assert np.array_equal(matrix_exponential(WeightedShift.zero(grid)), np.eye(4)[None])

    def test_against_scipy_random(self):
        rng = np.random.default_rng(11)
        for grid in (GridSpec(1, 3), GridSpec(4, 7)):
            bands = rng.uniform(-1, 1, (2, grid.dim)) + 1j * rng.uniform(-1, 1, (2, grid.dim))
            bands[1, -1] = 0.0
            shift = WeightedShift(grid, bands)
            expected = scipy.linalg.expm(shift.to_dense())
            assert np.max(np.abs(exponential_operator(shift).to_dense() - expected)) < 1e-11 * np.max(np.abs(expected))

    def test_against_scipy_on_kernels(self):
        rng = np.random.default_rng(12)
        u, v = random_unit(rng), random_unit(rng)
        shift = 1.3 * kernel(u, v)
        assert np.max(np.abs(exponential_operator(shift).to_dense() - scipy.linalg.expm(shift.to_dense()))) < 1e-10

    def test_rejects_anything_but_a_weighted_shift(self):
        xi = generator_unit(GRID)
        for operand in (np.zeros((4, 4)), np.zeros((2, 3)), kernel(xi, xi).blocks, identity_operator(GRID)):
            with pytest.raises(TypeError, match="takes a WeightedShift"):
                matrix_exponential(operand)


class TestSemigroup:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(13)
        u, v = random_unit(rng), random_unit(rng)
        assert (semigroup(u, v, 0.0) - identity_operator(GRID)).operator_norm() == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup(generator_unit(GRID), generator_unit(GRID), -0.5)

    def test_exponential_eigenvalue(self):
        xi = generator_unit(GRID)
        for t in (0.5, 1.0, 2.0):
            got = semigroup(xi, xi, t).apply(constant(GRID, 1))
            assert (got - constant(GRID, math.exp(t))).sup_norm() < 1e-10 * math.exp(t)

    def test_law_via_independent_multiplication(self):
        rng = np.random.default_rng(14)
        u, v = random_unit(rng), random_unit(rng)
        for s, t in [(0.3, 0.7), (0.7, 1.0), (1.0, 0.3)]:
            product = semigroup(u, v, s).to_dense() @ semigroup(u, v, t).to_dense()
            gap = np.max(np.abs(semigroup(u, v, s + t).to_dense() - product))
            assert gap < 1e-9

    def test_vacuum_semigroup_is_identity(self):
        omega = vacuum_unit(GRID)
        for t in (0.5, 1.7):
            assert (semigroup(omega, omega, t) - identity_operator(GRID)).operator_norm() == 0.0


class TestComponents:
    def test_generator_components_are_one(self):
        xi = generator_unit(GRID)
        for n in (0, 1, 3):
            comp = unit_component(xi, n)
            assert comp.n == n
            assert (comp.value - constant(GRID, 1)).sup_norm() == 0.0

    def test_product_formula(self):
        zeta = exp_approach(GRID, 1.0, 1.0)
        comp = unit_component(FockUnit(zeta, constant(GRID, 0)), 2)
        # independent evaluation with the same tail-substitution convention
        m = GRID.step_denominator
        z = zeta.samples
        z1 = np.concatenate([z[m:], np.full(m, zeta.tail)])
        assert np.max(np.abs(comp.value.samples - z * z1)) == 0.0
        assert comp.value.tail == zeta.tail * zeta.tail

    @pytest.mark.parametrize("n", [True, False, np.True_, 1.0, -1])
    def test_particle_counts_must_be_integers(self, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            NParticleVector(n, constant(GRID, 1))
        with pytest.raises(ValueError, match="nonnegative integer"):
            unit_component(generator_unit(GRID), n)

    def test_beta_refused(self):
        u = FockUnit(constant(GRID, 1), constant(GRID, 0.1))
        with pytest.raises(UnsupportedParameterError):
            unit_component(u, 1)

    def test_left_action_zero_shift(self):
        b = exp_decay(GRID, 1.0, 1.0, 0.1)
        x = NParticleVector(0, exp_approach(GRID, 0.5, 1.0))
        assert (left_action(b, x).value - b * x.value).sup_norm() == 0.0

    def test_left_action_unit(self):
        x = NParticleVector(2, exp_approach(GRID, 0.5, 1.0))
        assert (left_action(constant(GRID, 1), x).value - x.value).sup_norm() == 0.0

    def test_left_action_exponential(self):
        b = exp_decay(GRID, 1.0, 1.0, 0.0)
        x = NParticleVector(2, constant(GRID, 1))
        got = left_action(b, x)
        assert got.n == 2
        s = GRID.points()
        interior = s <= GRID.domain_end - 2
        expected = np.where(interior, np.exp(-(s + 2.0)), 0.0)
        assert np.max(np.abs(got.value.samples - expected)) == 0.0

    def test_module_inner(self):
        ones = NParticleVector(1, constant(GRID, 1))
        assert (module_inner(ones, ones) - constant(GRID, 1)).sup_norm() == 0.0
        x = NParticleVector(1, exp_approach(GRID, 0.5j, 1.0))
        y = NParticleVector(1, exp_decay(GRID, 1.0, 2.0, 0.3))
        assert (module_inner(x, y) - module_inner(y, x).star()).sup_norm() < 1e-15
        with pytest.raises(ValueError):
            module_inner(x, NParticleVector(2, constant(GRID, 1)))

    def test_inner_action_composition(self):
        zeta = exp_approach(GRID, 1.0, 1.0)
        zeta2 = exp_approach(GRID, 0.5j, 1.3)
        b = exp_decay(GRID, 1.0, 1.0, 0.2)
        n = 2
        x = unit_component(FockUnit(zeta, constant(GRID, 0)), n)
        y = unit_component(FockUnit(zeta2, constant(GRID, 0)), n)
        got = module_inner(x, left_action(b, y))
        expected = x.value.star() * b.shift(n) * y.value
        assert (got - expected).sup_norm() < 1e-14


class TestGram:
    def test_single_generator(self):
        xi = generator_unit(GRID)
        grams = gram_matrices([xi], [1.0], [constant(GRID, 1)])
        assert grams.shape == (1, 1, GRID.dim, 1, 1)
        assert np.max(np.abs(grams[0, 0, :, 0, 0] - math.e)) < 1e-12

    def test_time_zero_reproduces_b(self):
        rng = np.random.default_rng(15)
        units = [random_unit(rng), random_unit(rng)]
        b = exp_decay(GRID, 1.0, 1.0, 0.1)
        gram = gram_matrices(units, [0.0], [b])[0, 0]
        for i in range(2):
            for j in range(2):
                assert np.max(np.abs(gram[:, i, j] - b.coordinates)) == 0.0

    def test_two_unit_closed_form(self):
        omega, xi = vacuum_unit(GRID), generator_unit(GRID)
        one = constant(GRID, 1)
        gram = gram_matrices([omega, xi], [1.0], [one])[0, 0]
        expected = [[1.0, 1.0], [1.0, math.e]]
        for i, u in enumerate([omega, xi]):
            for j, v in enumerate([omega, xi]):
                assert np.max(np.abs(gram[:, i, j] - expected[i][j])) < 1e-12
                # brute-force matrix exponential route
                brute = scipy.linalg.expm(kernel(u, v).to_dense()) @ one.coordinates
                assert np.max(np.abs(gram[:, i, j] - brute)) < 1e-12
        report = gram_psd_check(GRID, gram, 1e-10)
        assert report.passed and report.min_eigenvalue > 0

    def test_psd_check_trivial_cases(self):
        assert gram_psd_check(GRID, np.full((GRID.dim, 1, 1), math.e, dtype=complex), 1e-10).passed
        assert gram_psd_check(GRID, np.broadcast_to(np.eye(2, dtype=complex), (GRID.dim, 2, 2)), 1e-10).passed

    def test_psd_check_rejects_non_hermitian(self):
        gram = np.broadcast_to(np.array([[1, 2], [3, 1]], dtype=complex), (GRID.dim, 2, 2))
        with pytest.raises(ValueError, match=r"not Hermitian up to 1e-10 at entry \(0, 1\)$"):
            gram_psd_check(GRID, gram, 1e-10)

    def test_psd_check_names_the_first_offending_entry(self):
        gram = np.zeros((GRID.dim, 3, 3), dtype=complex)
        gram[:] = np.eye(3)
        gram[-1, 1, 1] = 1j  # the tail's diagonal is not real
        gram[5, 2, 0] = 0.5  # nor is the stack symmetric in (0, 2), later in row-major order
        with pytest.raises(ValueError, match=r"at entry \(0, 2\)$"):
            gram_psd_check(GRID, gram, 1e-3)
        gram[5, 2, 0] = 0.0
        with pytest.raises(ValueError, match=r"at entry \(1, 1\)$"):
            gram_psd_check(GRID, gram, 1e-3)
        gram[-1, 1, 1] = 1 + 1e-4j  # within the tolerance
        assert gram_psd_check(GRID, gram, 1e-3).passed
        gram[-1, 1, 1] = 1 + 0.25j  # a gap of exactly the tolerance passes
        assert gram_psd_check(GRID, gram, 0.5).passed

    @pytest.mark.parametrize(
        "shape",
        [(GRID.dim, 2, 3), (GRID.dim - 1, 2, 2), (GRID.dim, 0, 0), (2, 2), (GRID.dim, 1, 1, 1), ()],
    )
    def test_psd_check_rejects_a_stack_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="stack"):
            gram_psd_check(GRID, np.ones(shape, dtype=complex), 1e-10)

    def test_gram_needs_positive_b(self):
        with pytest.raises(DomainError):
            gram_matrices([generator_unit(GRID)], [1.0], [constant(GRID, -1)])

    def test_gram_needs_a_unit(self):
        with pytest.raises(DomainError, match="at least one unit"):
            gram_matrices([], [1.0], [constant(GRID, 1)])

    def test_report_entries_labelled(self):
        report = gram_psd_check(GRID, np.ones((GRID.dim, 1, 1), dtype=complex), 1e-10)
        assert len(report.entries) == GRID.dim
        assert report.entries[0] == {"grid_point": 0.0, "min_eigenvalue": 1.0}
        assert report.entries[-1]["grid_point"] == "tail"


# -- unit_component before it started its product from zeta, verbatim ----------


def reference_unit_component(u: FockUnit, n: int) -> NParticleVector:
    """The n-particle component of a unit with beta = 0:
    value(s) = zeta(s) * zeta(s+1) * ... * zeta(s+n-1); n = 0 gives 1."""
    if (u.beta.samples != 0).any() or u.beta.tail != 0:
        raise UnsupportedParameterError("components are only available for units with beta = 0")
    if not _is_count(n) or n < 0:
        raise ValueError(f"particle count must be a nonnegative integer, got {n!r}")
    value = constant(u.grid, 1.0)
    for k in range(n):
        value = value * u.zeta.shift(k)
    return NParticleVector(int(n), value)


PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]), st.floats(-2.0, 2.0))


@pytest.mark.filterwarnings("ignore::fockindex.algebra.UnresolvedTailWarning")
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_unit_component_is_the_old_product(m, end, data):
    """Starting from zeta rather than 1 * zeta changes no value. Only the
    sign of a zero part can differ, and only where a part of zeta is -0:
    1 * (a + bi) is (a - 0b) + (b + 0a)i. A zeta without a -0 part gives
    the old bytes."""
    grid = GridSpec(m, end)
    parts = data.draw(st.lists(PARTS, min_size=2 * grid.dim, max_size=2 * grid.dim))
    coordinates = np.array(parts).view(complex)
    zeta = AlgebraElement(grid, coordinates[:-1], complex(coordinates[-1]))
    unit = FockUnit(zeta, constant(grid, 0.0))
    negative_zero = any(part == 0 and math.copysign(1.0, part) < 0 for part in parts)
    for n in range(end + 2):
        got, expected = unit_component(unit, n), reference_unit_component(unit, n)
        assert got.n == expected.n == n
        assert np.array_equal(got.value.coordinates, expected.value.coordinates), n
        if not negative_zero:
            assert got.value.coordinates.tobytes() == expected.value.coordinates.tobytes(), n
