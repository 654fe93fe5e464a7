"""Tests for the grid-sampled function algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex.algebra import (
    POSITIVITY_TOLERANCE,
    RECIPROCAL_FLOOR,
    AlgebraElement,
    DomainError,
    GridMismatchError,
    GridSpec,
    UnresolvedTailWarning,
    constant,
)
from fockindex.fock import FockUnit, kernel, multiplication_operator, semigroup

GRID = GridSpec(4, 40)
SMALL = GridSpec(2, 3)


def element(samples, tail):
    return AlgebraElement(SMALL, np.asarray(samples, dtype=complex), tail)


finite_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
small_samples = st.lists(finite_complex, min_size=SMALL.size, max_size=SMALL.size)


def resolved(samples):
    # tail equal to the last sample keeps the element resolved
    return element(samples, samples[-1])


class TestGridSpec:
    def test_counts(self):
        assert GRID.size == 161
        assert GRID.dim == 162
        np.testing.assert_allclose(GRID.points()[:3], [0.0, 0.25, 0.5])

    @pytest.mark.parametrize("m,S", [(0, 4), (-1, 4), (4, 0), (2.5, 4), (4, 1.5)])
    def test_rejects_bad_parameters(self, m, S):
        with pytest.raises(ValueError):
            GridSpec(m, S)

    @pytest.mark.parametrize("m,S", [(True, 3), (3, True), (False, 3), (np.True_, 3)])
    def test_rejects_bools(self, m, S):
        with pytest.raises(ValueError, match="must be a positive integer"):
            GridSpec(m, S)

    def test_accepts_numpy_integers(self):
        assert GridSpec(np.int64(2), np.int32(3)).size == 7

    def test_offsets(self):
        assert GRID.offset_of(1) == 4
        assert GRID.offset_of(0.75) == 3
        with pytest.raises(GridMismatchError):
            GRID.offset_of(0.3)
        with pytest.raises(GridMismatchError):
            GRID.offset_of(-1)


class TestConstruction:
    def test_constant_is_unit(self):
        one = constant(GRID, 1)
        assert np.all(one.samples == 1)
        assert one.tail == 1

    def test_constant_zero_and_complex(self):
        assert constant(GRID, 0).sup_norm() == 0.0
        c = constant(GRID, 2 + 1j)
        assert np.all(c.samples == 2 + 1j)
        assert c.tail == 2 + 1j

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            AlgebraElement(GRID, np.zeros(5, dtype=complex), 0.0)

    def test_rejects_nonfinite(self):
        bad = np.zeros(SMALL.size, dtype=complex)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            AlgebraElement(SMALL, bad, 0.0)
        with pytest.raises(ValueError):
            constant(SMALL, complex(np.nan, 0))

    def test_samples_frozen(self):
        one = constant(SMALL, 1)
        with pytest.raises(ValueError):
            one.samples[0] = 2

    def test_coordinates_roundtrip(self):
        b = element([1, 2, 3, 4, 5, 6, 7], 7)
        coords = b.coordinates
        back = AlgebraElement(SMALL, coords[:-1], coords[-1])
        assert np.array_equal(back.samples, b.samples)
        assert back.tail == b.tail

    def test_value_at(self):
        b = element([0, 1, 2, 3, 4, 5, 6], 6)
        assert b.value_at(1) == 2
        assert b.value_at(0.5) == 1
        with pytest.raises(GridMismatchError):
            b.value_at(7)


class TestPointwise:
    def test_mul_by_unit(self):
        b = resolved([1, 2j, -3, 0.5, 1, 1, 1])
        assert np.array_equal((b * constant(SMALL, 1)).samples, b.samples)

    def test_additive_inverse(self):
        b = resolved([1, 2j, -3, 0.5, 1, 1, 1])
        zero = b + (constant(SMALL, 0) - b)
        assert zero.sup_norm() == 0.0

    def test_mul_values(self):
        grid = GridSpec(1, 1)
        a = AlgebraElement(grid, [1, 2], 2)
        b = AlgebraElement(grid, [3, 4], 4)
        assert np.array_equal((a * b).samples, [3, 8])

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            constant(SMALL, 1) + constant(GRID, 1)

    def test_scalar_broadcast(self):
        b = resolved([1, 2, 3, 4, 5, 6, 7])
        assert np.array_equal((b + 1).samples, b.samples + 1)
        assert np.array_equal((2 * b).samples, 2 * b.samples)
        assert np.array_equal((1 - b).samples, 1 - b.samples)

    @pytest.mark.parametrize(
        "op",
        [lambda a: a + "1", lambda a: "1" + a, lambda a: a / "1", lambda a: "1" / a],
        ids=["a + str", "str + a", "a / str", "str / a"],
    )
    def test_a_string_operand_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(constant(SMALL, 1))

    @given(small_samples, small_samples)
    @settings(max_examples=25, deadline=None)
    def test_mul_commutative(self, xs, ys):
        a, b = resolved(xs), resolved(ys)
        scale = 1.0 + a.sup_norm() * b.sup_norm()
        assert np.max(np.abs((a * b).coordinates - (b * a).coordinates)) <= 1e-15 * scale

    @given(small_samples, small_samples, small_samples)
    @settings(max_examples=25, deadline=None)
    def test_mul_associative(self, xs, ys, zs):
        a, b, c = resolved(xs), resolved(ys), resolved(zs)
        left = ((a * b) * c).coordinates
        right = (a * (b * c)).coordinates
        scale = 1.0 + a.sup_norm() * b.sup_norm() * c.sup_norm()
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


class TestStar:
    def test_conjugates(self):
        assert constant(SMALL, 1j).star().tail == -1j

    @given(small_samples)
    @settings(max_examples=25, deadline=None)
    def test_involution(self, xs):
        b = resolved(xs)
        assert np.array_equal(b.star().star().coordinates, b.coordinates)

    def test_real_fixed_point(self):
        b = resolved([1, -2, 3, 0, 1, 1, 1])
        assert np.array_equal(b.star().coordinates, b.coordinates)

    @given(small_samples, small_samples)
    @settings(max_examples=25, deadline=None)
    def test_antimultiplicative(self, xs, ys):
        a, b = resolved(xs), resolved(ys)
        scale = 1.0 + a.sup_norm() * b.sup_norm()
        gap = np.max(np.abs((a * b).star().coordinates - (a.star() * b.star()).coordinates))
        assert gap <= 1e-15 * scale


class TestShift:
    def test_shift_of_constant(self):
        for t in (0, 1, 2, 0.5):
            assert np.array_equal(constant(SMALL, 3 - 1j).shift(t).coordinates, constant(SMALL, 3 - 1j).coordinates)

    def test_exponential_shift_with_tail_substitution(self):
        # m=1, S=3, samples e^{-s}, tail 0: shifting by 1 pulls in the tail at the end
        grid = GridSpec(1, 3)
        b = AlgebraElement(grid, np.exp(-np.arange(4.0)), 0.0)
        with pytest.warns(UnresolvedTailWarning):
            shifted = b.shift(1)
        expected = np.array([np.exp(-1.0), np.exp(-2.0), np.exp(-3.0), 0.0])
        assert np.array_equal(shifted.samples, expected)
        assert shifted.tail == 0.0

    def test_composition_exact(self):
        b = resolved([1, 2j, 3, 4, 5, 6, 7])
        for s in (0, 0.5, 1, 1.5):
            for t in (0, 0.5, 2, 4):
                assert np.array_equal(b.shift(s).shift(t).coordinates, b.shift(s + t).coordinates)

    def test_shift_past_end(self):
        b = resolved([1, 2, 3, 4, 5, 6, 7])
        assert np.all(b.shift(10).samples == b.tail)

    def test_off_grid_rejected(self):
        with pytest.raises(GridMismatchError):
            constant(SMALL, 1).shift(0.3)


class TestNorms:
    def test_sup_norm_examples(self):
        assert constant(SMALL, -3).sup_norm() == 3.0
        assert constant(SMALL, 0).sup_norm() == 0.0

    @given(small_samples)
    @settings(max_examples=50, deadline=None)
    def test_cstar_identity(self, xs):
        b = resolved(xs)
        lhs = (b.star() * b).sup_norm()
        rhs = b.sup_norm() ** 2
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, rhs)

    def test_is_positive(self):
        assert constant(SMALL, 1).is_positive()
        assert constant(SMALL, complex(-POSITIVITY_TOLERANCE, POSITIVITY_TOLERANCE)).is_positive()
        assert not constant(SMALL, -1).is_positive()
        assert not constant(SMALL, 1j).is_positive()
        assert not constant(SMALL, -2 * POSITIVITY_TOLERANCE).is_positive()

    def test_limit_at_infinity(self):
        assert constant(SMALL, 2 - 1j).limit_at_infinity() == 2 - 1j
        assert constant(SMALL, 0).limit_at_infinity() == 0


class TestResolution:
    def test_resolved_flag(self):
        assert constant(SMALL, 5).is_resolved
        assert not element([1, 1, 1, 1, 1, 1, 1], 0.5).is_resolved

    def test_operations_warn_on_unresolved(self):
        bad = element([1, 1, 1, 1, 1, 1, 1], 0.5)
        good = constant(SMALL, 1)
        with pytest.warns(UnresolvedTailWarning):
            bad * good
        with pytest.warns(UnresolvedTailWarning):
            bad.shift(1)

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: 1 - a,
            lambda a, b: a.shift(1),
            lambda a, b: a / b,
            lambda a, b: 1 / a,
        ],
        ids=["a + b", "a - b", "a * b", "1 - a", "a.shift(1)", "a / b", "1 / a"],
    )
    def test_warning_names_the_calling_line(self, op):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op(element([1, 1, 1, 1, 1, 1, 1], 0.5), constant(SMALL, 2))
        assert [w.category for w in caught] == [UnresolvedTailWarning]
        assert caught[0].filename == __file__

    def test_resolved_operations_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            constant(SMALL, 1) * constant(SMALL, 2)
            constant(SMALL, 1).shift(1)


class TestReciprocal:
    def test_inverts(self):
        b = resolved([1, 2, -3, 1j, 4, 5, 2])
        assert (b * b.reciprocal() - constant(SMALL, 1)).sup_norm() < 1e-15

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            constant(SMALL, 0).reciprocal()

    def test_floor_is_the_least_modulus_inverted(self):
        assert constant(SMALL, RECIPROCAL_FLOOR).reciprocal().tail == 1 / RECIPROCAL_FLOOR
        with pytest.raises(DomainError):
            constant(SMALL, np.nextafter(RECIPROCAL_FLOOR, 0.0)).reciprocal()


class TestFiniteFastPath:
    """Elements that the arithmetic computes skip the shape check and the
    copy, but not the finiteness check, and they come out read-only."""

    HUGE = resolved([1e200] * SMALL.size)

    @pytest.mark.parametrize(
        "compute",
        [
            lambda h: h * h,
            lambda h: h * 1e200,
            lambda h: (h * 1e108) + (h * 1e108),
            lambda h: (h * 1e108) - (h * -1e108),
            lambda h: 1e308 - (h * -1e108),
            lambda h: multiplication_operator(h).apply(h),
            lambda h: kernel(FockUnit(h, h), FockUnit(h, h)).apply(h),
        ],
    )
    def test_overflow_raises(self, compute):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="samples must be finite"):
            compute(self.HUGE)

    def test_nonfinite_tail_raises(self):
        unresolved = element([1.0] * SMALL.size, 1e200)
        with pytest.warns(UnresolvedTailWarning), pytest.raises(ValueError, match="tail must be finite"):
            unresolved * unresolved

    def test_results_are_read_only(self):
        a, b = resolved([1, 2j, -3, 0.5, 1, 1, 1]), resolved([2, 1, 1j, 1, 1, 1, 1])
        results = [
            a + b,
            a - b,
            a * b,
            -a,
            a.star(),
            a.shift(1),
            b.reciprocal(),
            a / b,
            constant(SMALL, 2.0),
            multiplication_operator(a).apply(b),
            kernel(FockUnit(a, b), FockUnit(b, a)).apply(b),
            semigroup(FockUnit(a, b), FockUnit(b, a), 0.5).apply(b),
        ]
        for result in results:
            assert isinstance(result.tail, complex)
            assert not result.samples.flags.writeable
            with pytest.raises(ValueError):
                result.samples[0] = 0.0
