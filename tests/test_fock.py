"""Tests for units, kernels, semigroups and Gram positivity."""

import math

import numpy as np
import pytest
import scipy.linalg

from fockindex.algebra import AlgebraElement, GridMismatchError, GridSpec, constant
from fockindex.fock import (
    FockUnit,
    KernelOperator,
    NParticleVector,
    UnsupportedParameterError,
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
        assert (KernelOperator.identity(GRID).apply(b) - b).sup_norm() == 0.0
        assert KernelOperator.zero(GRID).apply(b).sup_norm() == 0.0

    def test_norm_examples(self):
        assert KernelOperator.identity(GRID).operator_norm() == 1.0
        assert ((-2.5 + 0j) * KernelOperator.identity(GRID)).operator_norm() == 2.5

    def test_multiplication_operator(self):
        a = exp_decay(GRID, 1.0, 1.0, 0.5)
        b = exp_approach(GRID, 0.3, 2.0)
        assert (multiplication_operator(a).apply(b) - a * b).sup_norm() < 1e-14


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_against_scipy_random(self):
        rng = np.random.default_rng(11)
        for size in (5, 30):
            a = rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))
            got = matrix_exponential(a)
            expected = scipy.linalg.expm(a)
            assert np.max(np.abs(got - expected)) < 1e-11 * np.max(np.abs(expected))

    def test_against_scipy_on_kernels(self):
        rng = np.random.default_rng(12)
        u, v = random_unit(rng), random_unit(rng)
        a = 1.3 * kernel(u, v).to_dense()
        assert np.max(np.abs(matrix_exponential(a) - scipy.linalg.expm(a))) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))


class TestSemigroup:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(13)
        u, v = random_unit(rng), random_unit(rng)
        assert (semigroup(u, v, 0.0) - KernelOperator.identity(GRID)).operator_norm() == 0.0

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
            assert (semigroup(omega, omega, t) - KernelOperator.identity(GRID)).operator_norm() == 0.0


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
        gram = gram_matrices([xi], [1.0], [constant(GRID, 1)])[0][0]
        assert (gram[0][0] - constant(GRID, math.e)).sup_norm() < 1e-12

    def test_time_zero_reproduces_b(self):
        rng = np.random.default_rng(15)
        units = [random_unit(rng), random_unit(rng)]
        b = exp_decay(GRID, 1.0, 1.0, 0.1)
        gram = gram_matrices(units, [0.0], [b])[0][0]
        for row in gram:
            for entry in row:
                assert (entry - b).sup_norm() == 0.0

    def test_two_unit_closed_form(self):
        omega, xi = vacuum_unit(GRID), generator_unit(GRID)
        one = constant(GRID, 1)
        gram = gram_matrices([omega, xi], [1.0], [one])[0][0]
        expected = [[1.0, 1.0], [1.0, math.e]]
        for i, u in enumerate([omega, xi]):
            for j, v in enumerate([omega, xi]):
                assert (gram[i][j] - constant(GRID, expected[i][j])).sup_norm() < 1e-12
                # brute-force matrix exponential route
                brute = scipy.linalg.expm(kernel(u, v).to_dense()) @ one.coordinates
                assert np.max(np.abs(gram[i][j].coordinates - brute)) < 1e-12
        report = gram_psd_check(gram, 1e-10)
        assert report.passed and report.min_eigenvalue > 0

    def test_psd_check_trivial_cases(self):
        one = constant(GRID, 1)
        assert gram_psd_check([[constant(GRID, math.e)]], 1e-10).passed
        assert gram_psd_check([[one, constant(GRID, 0)], [constant(GRID, 0), one]], 1e-10).passed

    def test_psd_check_rejects_non_hermitian(self):
        one = constant(GRID, 1)
        with pytest.raises(ValueError):
            gram_psd_check([[one, constant(GRID, 2)], [constant(GRID, 3), one]], 1e-10)

    def test_gram_needs_positive_b(self):
        with pytest.raises(ValueError):
            gram_matrices([generator_unit(GRID)], [1.0], [constant(GRID, -1)])

    def test_report_entries_labelled(self):
        report = gram_psd_check([[constant(GRID, 1)]], 1e-10)
        assert len(report.entries) == GRID.dim
        assert report.entries[-1][0] == "tail"
        payload = report.json_entries()
        assert payload[0] == {"grid_point": 0.0, "min_eigenvalue": 1.0}
