"""Tests for the referenced-unit bimodule calculus."""

import numpy as np
import pytest

from fockindex.algebra import GridSpec, constant
from fockindex.fock import FockUnit, generator_unit, kernel, vacuum_unit
from fockindex.presets import exp_approach, exp_decay
from fockindex.unit_algebra import (
    add,
    boxplus_left,
    boxplus_right,
    default_probe_units,
    dual_path_residual,
    equivalent,
    index_norm,
    left_mul,
    power_beta,
    right_mul,
    scalar_mul,
    semi_inner,
    subtract,
    wrap,
)

GRID = GridSpec(4, 25)
OMEGA = vacuum_unit(GRID)
XI = generator_unit(GRID)


def unit(c=1.0, a=1.0, beta=0.0):
    return FockUnit(exp_approach(GRID, c, a), constant(GRID, beta))


def probes():
    return default_probe_units(GRID)


class TestPowerBeta:
    def test_zero_shift_is_identity(self):
        x = wrap(unit(), OMEGA)
        shifted = power_beta(x, constant(GRID, 0))
        assert (shifted.zeta - x.zeta).sup_norm() == 0.0
        assert (shifted.beta - x.beta).sup_norm() == 0.0
        assert dual_path_residual(shifted, probes()) < 1e-13

    def test_kernel_gains_multiplication_term(self):
        beta = exp_decay(GRID, 0.4, 1.0, 0.1j)
        x = wrap(unit(beta=0.2), OMEGA)
        shifted = power_beta(x, beta)
        b = exp_approach(GRID, 0.5, 2.0)
        for probe in probes()[:3]:
            base = kernel(x.unit, probe).apply(b)
            got = shifted.cross_kernel(probe).apply(b)
            assert (got - (base + beta.star() * b)).sup_norm() < 1e-14

    def test_dual_path(self):
        x = wrap(unit(0.3 + 0.4j, 1.2, 0.5), OMEGA)
        shifted = power_beta(x, exp_decay(GRID, 1.0, 1.0, 0.3))
        assert dual_path_residual(shifted, probes()) < 1e-12


class TestBoxplus:
    def test_single_unit_identity(self):
        u = unit(0.5, 1.0, 0.2)
        combo = boxplus_left([constant(GRID, 1)], [u], OMEGA)
        assert (combo.zeta - u.zeta).sup_norm() == 0.0
        assert (combo.beta - u.beta).sup_norm() == 0.0

    def test_degenerate_coefficients(self):
        u, v = unit(0.5), unit(-0.3, 2.0)
        combo = boxplus_left([constant(GRID, 1), constant(GRID, 0)], [u, v], OMEGA)
        assert (combo.zeta - u.zeta).sup_norm() == 0.0
        assert dual_path_residual(combo, probes()) < 1e-12

    def test_coefficient_sum_enforced(self):
        with pytest.raises(ValueError):
            boxplus_left([constant(GRID, 0.5), constant(GRID, 0.4)], [unit(), unit(0.2)], OMEGA)
        with pytest.raises(ValueError):
            boxplus_right([unit()], [], OMEGA)

    def test_half_half_average(self):
        u, v = unit(1.0), unit(0.5j, 1.5)
        half = constant(GRID, 0.5)
        combo = boxplus_left([half, half], [u, v], OMEGA)
        assert (combo.zeta - 0.5 * (u.zeta + v.zeta)).sup_norm() < 1e-15
        assert dual_path_residual(combo, probes()) < 1e-12

    def test_constant_coefficients_make_variants_agree(self):
        u, v = unit(1.0, 1.0, 0.2), unit(0.5j, 1.5, -0.1)
        coeffs = [constant(GRID, 0.3), constant(GRID, 0.7)]
        left = boxplus_left(coeffs, [u, v], OMEGA)
        right = boxplus_right([u, v], coeffs, OMEGA)
        assert (left.zeta - right.zeta).sup_norm() < 1e-15
        for probe in probes()[:3]:
            gap = (left.cross_kernel(probe) - right.cross_kernel(probe)).operator_norm()
            assert gap < 1e-13

    def test_nonconstant_coefficients_differ_but_cohere(self):
        u, v = unit(1.0), unit(0.5, 1.5)
        c = exp_decay(GRID, 0.5, 1.0, 0.2)
        coeffs = [c, constant(GRID, 1) - c]
        left = boxplus_left(coeffs, [u, v], OMEGA)
        right = boxplus_right([u, v], coeffs, OMEGA)
        assert (left.zeta - right.zeta).sup_norm() > 1e-3
        assert dual_path_residual(left, probes()) < 1e-12
        assert dual_path_residual(right, probes()) < 1e-12

    def test_right_variant_shifts_coefficients(self):
        u = unit(1.0)
        c = exp_decay(GRID, 0.5, 1.0, 0.2)
        coeffs = [c, constant(GRID, 1) - c]
        combo = boxplus_right([u, u], coeffs, OMEGA)
        expected = c.shift(1) * u.zeta + (constant(GRID, 1) - c).shift(1) * u.zeta
        assert (combo.zeta - expected).sup_norm() < 1e-15


class TestAdd:
    def test_reference_is_neutral(self):
        x = wrap(unit(1.0, 1.0, 0.3), OMEGA)
        total = add(x, wrap(OMEGA, OMEGA))
        for probe in probes()[:3]:
            gap = (total.cross_kernel(probe) - kernel(x.unit, probe)).operator_norm()
            assert gap < 1e-14

    def test_vacuum_reference_adds_parameters(self):
        x, y = wrap(unit(1.0), OMEGA), wrap(unit(0.5, 2.0), OMEGA)
        total = add(x, y)
        assert (total.zeta - (x.zeta + y.zeta)).sup_norm() < 1e-15
        assert dual_path_residual(total, probes()) < 1e-12

    def test_generator_reference_subtracts_one(self):
        x, y = wrap(unit(1.0), XI), wrap(unit(0.5, 2.0), XI)
        total = add(x, y)
        expected = x.zeta + y.zeta - constant(GRID, 1)
        assert (total.zeta - expected).sup_norm() < 1e-15

    def test_reference_mismatch(self):
        with pytest.raises(ValueError):
            add(wrap(unit(), OMEGA), wrap(unit(), XI))


class TestModuleActions:
    def test_unit_scalar_keeps_x(self):
        x = wrap(unit(0.7, 1.0, 0.2), OMEGA)
        for built in (left_mul(constant(GRID, 1), x), right_mul(x, constant(GRID, 1))):
            assert (built.zeta - x.zeta).sup_norm() == 0.0
            assert (built.beta - x.beta).sup_norm() == 0.0

    def test_zero_scalar_gives_reference(self):
        reference = unit(0.2, 1.0, 0.1)
        x = wrap(unit(0.7), reference)
        for built in (left_mul(constant(GRID, 0), x), right_mul(x, constant(GRID, 0))):
            assert (built.zeta - reference.zeta).sup_norm() == 0.0
            assert (built.beta - reference.beta).sup_norm() == 0.0

    def test_left_action_closed_form_at_generator_reference(self):
        a = exp_decay(GRID, 0.5, 1.0, 0.3)
        x = wrap(unit(1.0), XI)
        built = left_mul(a, x)
        expected = a.shift(1) * (x.zeta - constant(GRID, 1)) + constant(GRID, 1)
        assert (built.zeta - expected).sup_norm() < 1e-15
        assert dual_path_residual(built, probes()) < 1e-12

    def test_right_action_closed_form_at_generator_reference(self):
        a = exp_decay(GRID, 0.5, 1.0, 0.3)
        x = wrap(unit(1.0), XI)
        built = right_mul(x, a)
        expected = (x.zeta - constant(GRID, 1)) * a + constant(GRID, 1)
        assert (built.zeta - expected).sup_norm() < 1e-15
        assert dual_path_residual(built, probes()) < 1e-12


class TestSemiInner:
    def test_reference_against_itself_vanishes(self):
        x = wrap(OMEGA, OMEGA)
        assert semi_inner(x, x, constant(GRID, 1)).sup_norm() == 0.0

    def test_vacuum_reference_at_unit_element(self):
        u, v = unit(1.0, 1.0, 0.4), unit(0.5j, 1.5, -0.2)
        got = semi_inner(wrap(u, OMEGA), wrap(v, OMEGA), constant(GRID, 1))
        assert (got - u.zeta.star() * v.zeta).sup_norm() < 1e-14

    def test_generator_reference_at_unit_element(self):
        u, v = unit(1.0), unit(0.5, 2.0)
        got = semi_inner(wrap(u, XI), wrap(v, XI), constant(GRID, 1))
        one = constant(GRID, 1)
        expected = (u.zeta - one).star() * (v.zeta - one)
        assert (got - expected).sup_norm() < 1e-14

    def test_general_b_reduces_to_shifted_quadratic_form(self):
        reference = unit(0.3, 1.0, 0.2)
        u, v = unit(1.0, 1.0, 0.5), unit(0.5j, 1.5, 0.1)
        b = exp_decay(GRID, 1.0, 1.0, 0.4)
        got = semi_inner(wrap(u, reference), wrap(v, reference), b)
        expected = (u.zeta - reference.zeta).star() * b.shift(1) * (v.zeta - reference.zeta)
        assert (got - expected).sup_norm() < 1e-14

    def test_reference_mismatch(self):
        with pytest.raises(ValueError):
            semi_inner(wrap(unit(), OMEGA), wrap(unit(), XI), constant(GRID, 1))


class TestIndexNormAndEquivalence:
    def test_reference_has_zero_norm(self):
        assert index_norm(wrap(XI, XI)) == 0.0

    def test_vacuum_reference_norm_is_zeta_norm(self):
        u = unit(1.0, 1.0, 0.7)
        assert abs(index_norm(wrap(u, OMEGA)) - u.zeta.sup_norm()) < 1e-12

    def test_generator_reference_norm(self):
        u = unit(1.0)
        expected = (u.zeta - constant(GRID, 1)).sup_norm()
        assert abs(index_norm(wrap(u, XI)) - expected) < 1e-12

    def test_beta_shift_is_equivalent(self):
        x = wrap(unit(1.0, 1.0, 0.2), OMEGA)
        shifted = power_beta(x, exp_decay(GRID, 0.7, 1.0, 0.2))
        assert equivalent(x, wrap(shifted.unit, OMEGA), 1e-9)

    def test_translate_by_one_is_not_equivalent(self):
        u = unit(1.0)
        v = FockUnit(u.zeta + constant(GRID, 1), u.beta)
        x, y = wrap(u, OMEGA), wrap(v, OMEGA)
        assert not equivalent(x, y, 1e-9)
        assert abs(index_norm(subtract(x, y)) - 1.0) < 1e-12

    def test_reflexive(self):
        x = wrap(unit(0.5, 1.3, 0.1), OMEGA)
        assert equivalent(x, x, 1e-12)

    def test_scalar_mul_scales_distance(self):
        x = wrap(unit(1.0), OMEGA)
        doubled = scalar_mul(2.0, x)
        assert abs(index_norm(doubled) - 2.0 * index_norm(x)) < 1e-10

    def test_index_isometry_with_generator_reference(self):
        u, v = unit(1.0, 1.0, 0.3), unit(0.5j, 1.5, -0.2)
        gap = abs(index_norm(subtract(wrap(u, XI), wrap(v, XI))) - (u.zeta - v.zeta).sup_norm())
        assert gap < 1e-10


def test_a_nan_residual_raises():
    """Kernels against a reference with zeta = 1e300 overflow to inf, and
    the two paths meet inf - inf: the residual raises instead of reading
    NaN, which a later max() would drop."""
    grid = GridSpec(2, 4)
    x = wrap(generator_unit(grid), FockUnit(constant(grid, 1e300), constant(grid, 0.0)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="NaN"):
        dual_path_residual(add(x, x), default_probe_units(grid))
