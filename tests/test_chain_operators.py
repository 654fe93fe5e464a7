"""Chain-block kernel operators and weighted shifts against dense matrices
built here from the unit formulas, against each other, and against
scipy's expm."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockindex.fock as fock
from fockindex.algebra import AlgebraElement, GridMismatchError, GridSpec, constant
from fockindex.fock import (
    FockUnit,
    KernelOperator,
    WeightedShift,
    kernel,
    matrix_exponential,
    multiplication_operator,
    semigroup,
    semigroup_law_residual,
)
from fockindex.presets import exp_approach, exp_decay

TOL = 1e-13


def on_small_grids(test):
    """Run ``test(grid, seed)`` on random grids up to (4, 5), always
    including m = 1 (no pad slots) and S = 1."""
    for grid in (GridSpec(1, 1), GridSpec(1, 5), GridSpec(4, 1)):
        test = example(grid, 0)(test)
    grids = st.builds(GridSpec, st.integers(1, 4), st.integers(1, 5))
    return settings(max_examples=40, deadline=None)(given(grids, st.integers(0, 2**32 - 1))(test))


def random_element(rng, grid, radius=0.7):
    samples = rng.uniform(-radius, radius, grid.size) + 1j * rng.uniform(-radius, radius, grid.size)
    return AlgebraElement(grid, samples, complex(samples[-1]))


def random_unit(rng, grid):
    return FockUnit(random_element(rng, grid), random_element(rng, grid))


def dense_kernel(u, v):
    """The kernel as a dim x dim matrix, from its defining formula."""
    grid = u.grid
    n, m = grid.size, grid.step_denominator
    rows = np.arange(n)
    matrix = np.zeros((grid.dim, grid.dim), dtype=complex)
    matrix[rows, np.minimum(rows + m, n)] = np.conj(u.zeta.samples) * v.zeta.samples
    matrix[rows, rows] += np.conj(u.beta.samples) + v.beta.samples
    matrix[n, n] = np.conj(u.zeta.tail) * v.zeta.tail + np.conj(u.beta.tail) + v.beta.tail
    return matrix


def gap(a, b):
    return float(np.max(np.abs(a - b)))


@on_small_grids
def test_kernel_matches_dense(grid, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    operator = kernel(u, v)
    assert gap(operator.to_dense(), dense_kernel(u, v)) <= TOL
    assert abs(operator.operator_norm() - np.max(np.sum(np.abs(dense_kernel(u, v)), axis=1))) <= TOL


@on_small_grids
def test_sums_and_compositions_match_dense(grid, seed):
    rng = np.random.default_rng(seed)
    u, v, w = random_unit(rng, grid), random_unit(rng, grid), random_unit(rng, grid)
    a = random_element(rng, grid)
    diag = np.diag(a.coordinates)
    ku, kv = dense_kernel(u, v), dense_kernel(v, w)
    assert gap((kernel(u, v) + kernel(v, w)).to_dense(), ku + kv) <= TOL
    assert gap((kernel(u, v) - 2.5 * kernel(v, w)).to_dense(), ku - 2.5 * kv) <= TOL
    assert gap((multiplication_operator(a) @ kernel(u, v)).to_dense(), diag @ ku) <= TOL
    assert gap((kernel(u, v) @ multiplication_operator(a)).to_dense(), ku @ diag) <= TOL
    assert gap((kernel(u, v) @ kernel(v, w)).to_dense(), ku @ kv) <= TOL


@on_small_grids
def test_apply_matches_dense(grid, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    b = random_element(rng, grid)
    assert gap(kernel(u, v).apply(b).coordinates, dense_kernel(u, v) @ b.coordinates) <= TOL
    operator = semigroup(u, v, 0.8)
    assert gap(operator.apply(b).coordinates, operator.to_dense() @ b.coordinates) <= TOL


@on_small_grids
def test_semigroup_matches_dense_exponential(grid, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    t = rng.uniform(0.0, 1.0)
    operator = semigroup(u, v, t)
    assert gap(operator.to_dense(), matrix_exponential(t * dense_kernel(u, v))) <= TOL
    assert np.all(operator.blocks[1:, 0, :] == 0) and np.all(operator.blocks[1:, :, 0] == 0)


def test_semigroup_against_scipy_on_large_grid():
    grid = GridSpec(8, 80)
    u = FockUnit(exp_approach(grid, complex(0.5, 0.3), 1.2), constant(grid, complex(0.2, -0.1)))
    v = FockUnit(exp_decay(grid, 0.6, 0.9, complex(0.8, 0.2)), constant(grid, 0.3))
    generator = dense_kernel(u, v)
    for t in (0.5, 1.0, 2.0):
        expected = scipy.linalg.expm(t * generator)
        assert gap(semigroup(u, v, t).to_dense(), expected) <= 1e-12


def test_stacked_exponential_against_scipy():
    rng = np.random.default_rng(3)
    stack = rng.uniform(-1, 1, (4, 6, 6)) + 1j * rng.uniform(-1, 1, (4, 6, 6))
    got = matrix_exponential(stack)
    assert got.shape == stack.shape
    for block, expected in zip(got, (scipy.linalg.expm(a) for a in stack)):
        assert gap(block, expected) <= 1e-11 * np.max(np.abs(expected))


class TestPads:
    GRID = GridSpec(3, 6)

    def test_zero_norm(self):
        assert KernelOperator.zero(self.GRID).operator_norm() == 0.0

    def test_identity_norm(self):
        identity = KernelOperator.identity(self.GRID)
        assert identity.operator_norm() == 1.0
        assert np.array_equal(identity.to_dense(), np.eye(self.GRID.dim))

    def test_contractive_semigroup_norm_below_one(self):
        u = FockUnit(constant(self.GRID, 0.5), constant(self.GRID, -1.0))
        norm = semigroup(u, u, 1.0).operator_norm()
        assert 0.0 < norm < 1.0
        assert np.array_equal(semigroup(u, u, 1.0).blocks[1:, 0, 0], np.zeros(2))

    def test_constructor_copies_and_checks(self):
        u = FockUnit(constant(self.GRID, 1.0), constant(self.GRID, 0.5))
        blocks = np.array(kernel(u, u).blocks)
        operator = KernelOperator(self.GRID, blocks)
        blocks[0, 0, 0] = 99.0
        assert operator.blocks[0, 0, 0] != 99.0
        assert not operator.blocks.flags.writeable
        padded = blocks.copy()
        padded[1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            KernelOperator(self.GRID, padded)
        leaking_tail = blocks.copy()
        leaking_tail[2, -1, -1] += 1.0
        with pytest.raises(ValueError):
            KernelOperator(self.GRID, leaking_tail)
        with pytest.raises(ValueError):
            KernelOperator(self.GRID, np.eye(self.GRID.dim))


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_rejected_before_scaling(self, value):
        matrix = np.zeros((3, 3), dtype=complex)
        matrix[1, 2] = value
        with pytest.raises(ValueError):
            matrix_exponential(matrix)

    def test_row_sum_overflow_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.full((2, 2), 1e308))

    def test_finite_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            matrix_exponential(np.array([[1e300]]))

    def test_large_time_rejected(self):
        grid = GridSpec(2, 5)
        u = FockUnit(constant(grid, 2.0), constant(grid, 0.0))
        with pytest.raises(ValueError):
            semigroup(u, u, 1e308)


def unmemoised_law_residual(u, v, times):
    cached = {t: semigroup(u, v, t) for t in times}
    worst = 0.0
    for s in times:
        for t in times:
            worst = max(worst, (semigroup(u, v, s + t) - cached[s] @ cached[t]).operator_norm())
    return worst


@pytest.mark.parametrize("times", [(0.5, 1.0), (0.3, 0.7, 1.0), (0.0, 0.25, 2.0)])
def test_law_residual_is_bit_identical_and_memoised(monkeypatch, times):
    grid = GridSpec(4, 12)
    rng = np.random.default_rng(21)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    expected = unmemoised_law_residual(u, v, times)
    calls = []
    original = fock.semigroup

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, "semigroup", counting)
    worst, exps = semigroup_law_residual(u, v, times)
    assert worst == expected
    distinct = set(times) | {s + t for s in times for t in times}
    assert len(calls) == len(distinct) and set(exps) == distinct


def chain(operator):
    """The same operator on the chain-block path, through the checked
    constructor."""
    return KernelOperator(operator.grid, operator.blocks)


def assert_shift_form(operator):
    assert isinstance(operator, WeightedShift)
    assert np.all(operator.bands[:, 1:, 0] == 0), "pad slots"
    assert np.all(operator.bands[1, :, -1] == 0), "band 1 at the tail slot"
    assert np.all(operator.bands[0, :, -1] == operator.bands[0, 0, -1]), "tail entry"


@on_small_grids
def test_weighted_shifts_match_dense_and_chain_path(grid, seed):
    rng = np.random.default_rng(seed)
    u, v, w = random_unit(rng, grid), random_unit(rng, grid), random_unit(rng, grid)
    a, c, b = random_element(rng, grid), random_element(rng, grid), random_element(rng, grid)
    k1, k2 = kernel(u, v), kernel(v, w)
    ma, mc = multiplication_operator(a), multiplication_operator(c)
    dk1, dk2 = dense_kernel(u, v), dense_kernel(v, w)
    da, dc = np.diag(a.coordinates), np.diag(c.coordinates)
    cases = [
        (k1, chain(k1), dk1),
        (ma, chain(ma), da),
        (k1 + k2, chain(k1) + chain(k2), dk1 + dk2),
        (k1 - 2.5 * k2, chain(k1) - 2.5 * chain(k2), dk1 - 2.5 * dk2),
        (-k1, -chain(k1), -dk1),
        (ma * (1 - 2j), chain(ma) * (1 - 2j), (1 - 2j) * da),
        (ma @ k1, chain(ma) @ chain(k1), da @ dk1),
        (k1 @ ma, chain(k1) @ chain(ma), dk1 @ da),
        (ma @ mc, chain(ma) @ chain(mc), da @ dc),
        (mc @ k1 @ ma + k2, chain(mc) @ chain(k1) @ chain(ma) + chain(k2), dc @ dk1 @ da + dk2),
    ]
    for shift, chained, dense in cases:
        assert_shift_form(shift)
        assert gap(shift.to_dense(), dense) <= TOL
        assert gap(shift.blocks, chained.blocks) <= TOL
        assert gap(shift.apply(b).coordinates, dense @ b.coordinates) <= TOL
        assert gap(shift.apply(b).coordinates, chained.apply(b).coordinates) <= TOL
        assert abs(shift.operator_norm() - chained.operator_norm()) <= TOL
        assert abs(shift.operator_norm() - np.max(np.sum(np.abs(dense), axis=1))) <= TOL


@on_small_grids
def test_products_of_shifts_and_mixed_operands_promote(grid, seed):
    rng = np.random.default_rng(seed)
    u, v, w = random_unit(rng, grid), random_unit(rng, grid), random_unit(rng, grid)
    t = rng.uniform(0.0, 1.0)
    k1, k2, exp_t = kernel(u, v), kernel(v, w), semigroup(u, v, t)
    dk1, dk2, dexp = dense_kernel(u, v), dense_kernel(v, w), exp_t.to_dense()
    cases = [
        (k1 @ k2, dk1 @ dk2),
        (exp_t - k1, dexp - dk1),
        (k1 - exp_t, dk1 - dexp),
        (k1 + exp_t, dk1 + dexp),
        (exp_t @ k1, dexp @ dk1),
        (k1 @ exp_t, dk1 @ dexp),
    ]
    for operator, dense in cases:
        assert isinstance(operator, KernelOperator)
        assert gap(operator.to_dense(), dense) <= TOL
        assert np.all(operator.blocks[1:, 0, :] == 0) and np.all(operator.blocks[1:, :, 0] == 0)


class TestWeightedShiftConstruction:
    GRID = GridSpec(3, 4)

    def test_zero(self):
        zero = WeightedShift.zero(self.GRID)
        assert zero.operator_norm() == 0.0
        assert np.array_equal(zero.to_dense(), np.zeros((self.GRID.dim, self.GRID.dim)))

    def test_constructor_copies_and_checks(self):
        u = FockUnit(constant(self.GRID, 1.0), constant(self.GRID, 0.5))
        bands = np.array(kernel(u, u).bands)
        operator = WeightedShift(self.GRID, bands)
        bands[0, 0, 0] = 99.0
        assert operator.bands[0, 0, 0] != 99.0
        assert not operator.bands.flags.writeable
        assert not operator.blocks.flags.writeable
        for band, chain_index, slot in ((0, 1, 0), (1, 2, 0), (1, 0, -1), (0, 2, -1)):
            bad = np.array(operator.bands)
            bad[band, chain_index, slot] += 1.0
            with pytest.raises(ValueError):
                WeightedShift(self.GRID, bad)
        with pytest.raises(ValueError):
            WeightedShift(self.GRID, kernel(u, u).blocks)

    def test_grid_mismatch(self):
        other = GridSpec(2, 4)
        a, b = constant(self.GRID, 2.0), constant(other, 2.0)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
            with pytest.raises(GridMismatchError):
                op(multiplication_operator(a), multiplication_operator(b))
        with pytest.raises(GridMismatchError):
            multiplication_operator(a).apply(b)
