"""Chain-block kernel operators and weighted shifts against dense matrices
built here from the unit formulas, against each other, and against
scipy's expm. The exponential of a weighted shift is held to the plain
loop ``reference_exponential`` on its chain blocks, bit for bit."""

import math
import platform
import subprocess
import sys
import tracemalloc

import hypothesis.extra.numpy
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fockindex.fock as fock
from fockindex.algebra import AlgebraElement, GridMismatchError, GridSpec, constant
from fockindex.fock import (
    FockUnit,
    KernelOperator,
    WeightedShift,
    generator_unit,
    kernel,
    matrix_exponential,
    multiplication_operator,
    semigroup,
    semigroup_law_residual,
    vacuum_unit,
)
from fockindex.presets import exp_approach, exp_decay
from fockindex.selftest import _semigroup_test_pairs
from test_cli import child_env
from test_mirror_pairs import on_small_grids

TOL = 1e-13


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


def identity_operator(grid):
    """The identity in chain blocks, pads zero, through the checked constructor."""
    blocks = np.tile(np.eye(grid.domain_end + 2, dtype=complex), (grid.step_denominator, 1, 1))
    blocks[1:, 0, 0] = 0.0
    return KernelOperator(grid, blocks)


def zero_operator(grid):
    chain = grid.domain_end + 2
    return KernelOperator(grid, np.zeros((grid.step_denominator, chain, chain), dtype=complex))


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
    assert gap((chain(kernel(u, v)) @ chain(kernel(v, w))).to_dense(), ku @ kv) <= TOL


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
    assert gap(operator.to_dense(), reference_exponential(t * dense_kernel(u, v))) <= TOL
    assert np.all(operator.blocks[1:, 0, :] == 0) and np.all(operator.blocks[1:, :, 0] == 0)


def test_semigroup_against_scipy_on_large_grid():
    grid = GridSpec(8, 80)
    u = FockUnit(exp_approach(grid, complex(0.5, 0.3), 1.2), constant(grid, complex(0.2, -0.1)))
    v = FockUnit(exp_decay(grid, 0.6, 0.9, complex(0.8, 0.2)), constant(grid, 0.3))
    generator = dense_kernel(u, v)
    for t in (0.5, 1.0, 2.0):
        expected = scipy.linalg.expm(t * generator)
        assert gap(semigroup(u, v, t).to_dense(), expected) <= 1e-12


def test_shift_exponential_against_scipy():
    rng = np.random.default_rng(3)
    for grid in (GridSpec(4, 4), GridSpec(1, 10), GridSpec(3, 1)):
        for scale in (0.3, 1.0, 3.0):
            shift = random_shift(rng, grid, scale)
            expected = scipy.linalg.expm(shift.to_dense())
            got = exponential_operator(shift)
            assert got.blocks.shape == fock._block_shape(grid)
            assert gap(got.to_dense(), expected) <= 1e-11 * np.max(np.abs(expected))


class TestPads:
    GRID = GridSpec(3, 6)

    def test_zero_norm(self):
        assert zero_operator(self.GRID).operator_norm() == 0.0

    def test_identity_norm(self):
        identity = identity_operator(self.GRID)
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


def shift_with(grid, entries):
    """The zero shift of ``grid`` with ``entries``, {(band, coordinate):
    value}, set."""
    bands = np.zeros((2, grid.dim), dtype=complex)
    for index, value in entries.items():
        bands[index] = value
    return WeightedShift(grid, bands)


class TestNonFinite:
    GRID = GridSpec(2, 1)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_rejected_before_scaling(self, value):
        with pytest.raises(ValueError, match="cannot exponentiate|NaN"):
            matrix_exponential(shift_with(self.GRID, {(1, 1): value}))

    def test_row_sum_overflow_rejected(self):
        with pytest.raises(ValueError, match="cannot exponentiate"):
            matrix_exponential(shift_with(self.GRID, {(0, 1): 1e308, (1, 1): 1e308}))

    def test_finite_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            matrix_exponential(shift_with(self.GRID, {(0, -1): 1e300}))

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


def count_exponentials(monkeypatch):
    calls = []
    original = fock.matrix_exponential

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, "matrix_exponential", counting)
    return calls


def dense_scaled_key(u, v, t):
    """The squaring count s of the scaling-and-squaring rule for tL and the
    bytes of the stack (tL) 2^-s, from the dense kernel."""
    a = t * dense_kernel(u, v)
    norm = np.max(np.sum(np.abs(a), axis=1))
    squarings = int(np.ceil(np.log2(norm))) + 1 if norm > 0.5 else 0
    return squarings, (a * 2.0**-squarings).tobytes()


def scaled_generator_count(u, v, times):
    """The number of distinct stacks (tL) 2^-s over ``times``."""
    return len({dense_scaled_key(u, v, t)[1] for t in times})


@pytest.mark.parametrize("times", [(0.5, 1.0), (0.3, 0.7, 1.0), (0.0, 0.25, 2.0), (0.0, 0.5, 1.0, 1.5, 2.0)])
def test_law_residual_is_bit_identical_and_memoised(monkeypatch, times):
    grid = GridSpec(4, 12)
    rng = np.random.default_rng(21)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    expected = unmemoised_law_residual(u, v, times)
    calls = count_exponentials(monkeypatch)
    worst, exps = semigroup_law_residual(u, v, times)
    assert worst == expected
    distinct = set(times) | {s + t for s in times for t in times}
    assert len(calls) == scaled_generator_count(u, v, distinct) and set(exps) == distinct


def law_pairs(grid):
    """Criterion 3's unit pairs, (xi, xi) first, and the zero generator
    of (vacuum, vacuum)."""
    xi = generator_unit(grid)
    return [(xi, xi), *_semigroup_test_pairs(grid), (vacuum_unit(grid), vacuum_unit(grid))]


@pytest.mark.parametrize("times", [(0.3, 0.7, 1.0), (0.0, 0.5, 1.0, 1.5, 2.0)])
@pytest.mark.parametrize("pair", range(6))
def test_law_residual_skips_exactly_the_squared_pairs(monkeypatch, pair, times):
    """The residual forms exp(sL) exp(tL) for every pair but those with a
    zero time and the (s, s) whose 2sL has the scaled stack of sL and one
    squaring more, and for each of the latter exp(2sL) is that product to
    the bit. A zero generator keeps every stack at no squaring, so none of
    its (s, s) pairs is skipped as squared."""
    grid = GridSpec(4, 12)
    u, v = law_pairs(grid)[pair]
    squared = set()
    for s in times:
        squarings, key = dense_scaled_key(u, v, s)
        if s > 0 and dense_scaled_key(u, v, s + s) == (squarings + 1, key):
            squared.add(s)
    products = []
    original = KernelOperator.__matmul__
    with monkeypatch.context() as patch:
        patch.setattr(KernelOperator, "__matmul__", lambda x, y: products.append((x, y)) or original(x, y))
        worst, exps = semigroup_law_residual(u, v, times)
    formed = [(exps[s], exps[t]) for s in times for t in times if s and t and not (s == t and s in squared)]
    assert len(products) == len(formed)
    assert all(x is a and y is b for (x, y), (a, b) in zip(products, formed))
    for s in squared:
        assert (exps[s + s] - exps[s] @ exps[s]).operator_norm() == 0.0, s
    if not kernel(u, v).bands.any():
        assert not squared and worst == 0.0
    if pair == 0 and times == (0.3, 0.7, 1.0):
        assert squared == {0.3, 0.7, 1.0}


@pytest.mark.parametrize("times", [(0.0, 0.3, 0.7, 1.0), (0.0, 0.5, 1.0, 1.5, 2.0), (0.0, 2.5, 100.0)])
@pytest.mark.parametrize("pair", range(6))
def test_skipped_zero_time_pairs_have_residual_zero(pair, times):
    """exp(0L) is the identity to the bit, so for every pair (0, t) and
    (s, 0) the residual the law would measure is exactly 0.0."""
    grid = GridSpec(4, 12)
    u, v = law_pairs(grid)[pair]
    _, exps = semigroup_law_residual(u, v, times)
    assert exps[0.0].blocks.tobytes() == identity_operator(grid).blocks.tobytes()
    for t in times:
        assert (exps[t] - exps[0.0] @ exps[t]).operator_norm() == 0.0, t
        assert (exps[t] - exps[t] @ exps[0.0]).operator_norm() == 0.0, t


def times_kernel(u, v, t):
    """tL as a weighted shift, its bands the products semigroups takes."""
    return WeightedShift(u.grid, t * kernel(u, v).bands)


def exponential_operator(shift):
    """matrix_exponential(shift) through the checked constructor."""
    return KernelOperator(shift.grid, matrix_exponential(shift))


def fresh_exponential(u, v, t):
    """exp(tL) as one call of matrix_exponential."""
    return exponential_operator(times_kernel(u, v, t)).blocks


DOUBLING = (0.25, 0.5, 1.0, 2.0, 4.0)


@on_small_grids
def test_semigroups_are_byte_identical_to_fresh_exponentials(grid, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    times = [*DOUBLING, 0.0, 1.0, 0.25, 0.3, 0.6, 1.2, rng.uniform(0.0, 3.0)]
    exps = fock.semigroups(u, v, times)
    assert set(exps) == set(times)
    for t in times:
        assert exps[t].blocks.tobytes() == fresh_exponential(u, v, t).tobytes(), t


@on_small_grids
def test_every_stack_keeps_its_pads_zero(grid, seed):
    """With no clearing pass anywhere: every operator semigroups returns,
    reused squarings and fresh exponentials alike, passes the checked
    constructor, and every matrix_exponential result, of a kernel or of a
    random shift, has zero pad rows and columns."""
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    times = [0.0, *DOUBLING, *rng.uniform(0.0, 6.0, 3)]
    shifts = [random_shift(rng, grid, scale) for scale in (0.1, 1.0, 4.0)]
    for t, operator in fock.semigroups(u, v, times).items():
        KernelOperator(grid, operator.blocks)
        shifts.append(times_kernel(u, v, t))
    for shift in shifts:
        blocks = matrix_exponential(shift)
        assert not blocks[1:, 0, :].any() and not blocks[1:, :, 0].any()


def test_doubling_chain_takes_one_exponential(monkeypatch):
    grid = GridSpec(4, 5)
    u, v = random_unit(np.random.default_rng(5), grid), random_unit(np.random.default_rng(6), grid)
    expected = {t: fresh_exponential(u, v, t).tobytes() for t in DOUBLING}
    calls = count_exponentials(monkeypatch)
    exps = fock.semigroups(u, v, reversed(DOUBLING))
    assert len(calls) == scaled_generator_count(u, v, DOUBLING) == 1
    assert {t: op.blocks.tobytes() for t, op in exps.items()} == expected


def test_zero_generator_gives_identities(monkeypatch):
    grid = GridSpec(3, 4)
    omega = fock.vacuum_unit(grid)
    calls = count_exponentials(monkeypatch)
    exps = fock.semigroups(omega, omega, DOUBLING)
    identity = identity_operator(grid).blocks.tobytes()
    assert all(op.blocks.tobytes() == identity for op in exps.values())
    assert len(calls) == 1  # every time has the same all-zero scaled stack
    assert len({id(op) for op in exps.values()}) == 1  # and so the same operator


@pytest.mark.parametrize("grid", [GridSpec(2, 3), GridSpec(3, 4), GridSpec(4, 5)])
def test_semigroup_pads_are_zero_on_every_path(monkeypatch, grid):
    """Every operator that semigroups returns has zero pad rows and columns,
    whether it is a fresh exponential, squared from an earlier time or
    reused as is."""
    rng = np.random.default_rng(13)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    omega = fock.vacuum_unit(grid)
    times = [*DOUBLING, 0.3]
    calls = count_exponentials(monkeypatch)
    reused = fock.semigroups(omega, omega, times)
    assert len(calls) == 1 and len({id(op) for op in reused.values()}) == 1
    squared = fock.semigroups(u, v, times)
    assert 1 < len(calls) - 1 == scaled_generator_count(u, v, times) < len(times)
    for operator in [*reused.values(), *squared.values()]:
        assert not operator.blocks[1:, 0, :].any() and not operator.blocks[1:, :, 0].any()


@pytest.mark.parametrize("grid", [GridSpec(1, 1), GridSpec(2, 5), GridSpec(4, 3)])
def test_small_norms_share_nothing(monkeypatch, grid):
    rng = np.random.default_rng(9)
    small = [random_element(rng, grid, radius=0.05) for _ in range(4)]
    u, v = FockUnit(small[0], small[1]), FockUnit(small[2], small[3])
    times = (0.25, 0.5, 1.0)
    assert kernel(u, v).operator_norm() <= 0.25
    calls = count_exponentials(monkeypatch)
    exps = fock.semigroups(u, v, times)
    assert len(calls) == len(times)
    for t in times:
        assert exps[t].blocks.tobytes() == fresh_exponential(u, v, t).tobytes()


def test_subnormal_entries_that_scale_apart_share_nothing(monkeypatch):
    """1.5 * 3.5e-323 rounds in the subnormal range, so (1.5 L) / 4 and
    (3 L) / 8 differ in one entry and exp(3L) may not be a square."""
    grid = GridSpec(1, 1)
    zero = constant(grid, 0.0)
    u = FockUnit(zero, AlgebraElement(grid, np.array([3.5e-323, 0.7]), 0.7))
    v = FockUnit(zero, zero)
    calls = count_exponentials(monkeypatch)
    exps = fock.semigroups(u, v, (1.5, 3.0))
    assert len(calls) == 2
    for t in (1.5, 3.0):
        assert exps[t].blocks.tobytes() == fresh_exponential(u, v, t).tobytes()


@pytest.mark.parametrize("times", [(100.0, 200.0), (50.0, 200.0), (1e300,)])
def test_overflowing_time_raises_the_same_error(monkeypatch, times):
    grid = GridSpec(2, 5)
    u = FockUnit(constant(grid, 2.0), constant(grid, 0.0))
    with pytest.raises(ValueError) as fresh:
        matrix_exponential(times_kernel(u, u, times[-1]))
    calls = count_exponentials(monkeypatch)
    with pytest.raises(ValueError) as shared:
        fock.semigroups(u, u, times)
    assert str(shared.value) == str(fresh.value) and "overflows" in str(fresh.value)
    assert len(calls) == 1  # only the first time runs matrix_exponential


def test_negative_time_rejected():
    grid = GridSpec(2, 5)
    xi = fock.generator_unit(grid)
    with pytest.raises(ValueError, match="nonnegative"):
        fock.semigroups(xi, xi, [1.0, -0.5])


def test_semigroups_against_scipy_on_large_grid():
    grid = GridSpec(8, 80)
    u = FockUnit(exp_approach(grid, complex(0.5, 0.3), 1.2), constant(grid, complex(0.2, -0.1)))
    v = FockUnit(exp_decay(grid, 0.6, 0.9, complex(0.8, 0.2)), constant(grid, 0.3))
    generator = dense_kernel(u, v)
    exps = fock.semigroups(u, v, (0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    for t, operator in exps.items():
        expected = scipy.linalg.expm(t * generator)
        assert gap(operator.to_dense(), expected) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def traced_peak(run):
    """run() and the peak of the memory traced while it ran, numpy buffers
    included."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def large_pair(grid):
    u = FockUnit(exp_approach(grid, complex(0.5, 0.3), 1.2), constant(grid, complex(0.2, -0.1)))
    v = FockUnit(exp_decay(grid, 0.6, 0.9, complex(0.8, 0.2)), constant(grid, 0.1))
    return u, v


def test_exponential_working_set():
    """A fresh exponential of a weighted shift holds at most four chain
    stacks at once (the scaled stack, the sum, two term buffers), plus
    the temporaries of one block."""
    grid = GridSpec(8, 80)
    stack = np.zeros(fock._block_shape(grid), dtype=complex)
    shift = 1.7 * kernel(*large_pair(grid))
    assert fock._scaled_bands(shift)[1] >= 2
    expected = reference_exponential(shift.blocks)
    matrix_exponential(shift)  # layout caches
    result, peak = traced_peak(lambda: matrix_exponential(shift))
    assert result.tobytes() == expected.tobytes()
    assert peak <= 4 * stack.nbytes + stack[0].nbytes, peak / stack.nbytes


def test_law_residual_working_set():
    """The law residual at the semigroup benchmark's times (0.5, 1.0), for
    a generator whose norm lies in that benchmark's band, holds at most
    three chain stacks beyond those of the exponentials it returns."""
    grid = GridSpec(8, 80)
    stack = np.zeros(fock._block_shape(grid), dtype=complex)
    u, v = large_pair(grid)
    assert 2.05 < kernel(u, v).operator_norm() <= 2.6
    semigroup_law_residual(u, v, (0.5, 1.0))  # layout caches
    (_, exps), peak = traced_peak(lambda: semigroup_law_residual(u, v, (0.5, 1.0)))
    assert peak <= (len({id(op) for op in exps.values()}) + 3) * stack.nbytes, peak / stack.nbytes


def chain(operator):
    """The same operator on the chain-block path, through the checked
    constructor."""
    return KernelOperator(operator.grid, operator.blocks)


def assert_shift_form(operator):
    assert isinstance(operator, WeightedShift)
    assert operator.bands.shape == (2, operator.grid.dim), "coordinate layout"
    assert operator.bands[1, -1] == 0, "band 1 at the tail"
    blocks = operator.blocks
    assert np.all(blocks[1:, 0, :] == 0) and np.all(blocks[1:, :, 0] == 0), "pad slots"
    assert np.all(blocks[:, -1, -1] == operator.bands[0, -1]), "tail entry"


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
def test_products_of_shifts_and_mixed_operands_raise_type_error(grid, seed):
    """Each operator form combines only with its own kind: a product of
    two general shifts, and a sum, difference or product of a shift and a
    chain operator, in either order, raise TypeError."""
    rng = np.random.default_rng(seed)
    u, v, w = random_unit(rng, grid), random_unit(rng, grid), random_unit(rng, grid)
    k1, k2, exp_t = kernel(u, v), kernel(v, w), semigroup(u, v, rng.uniform(0.0, 1.0))
    assert k1.bands[1].any() and k2.bands[1].any()
    cases = [
        lambda: k1 @ k2,
        lambda: exp_t - k1,
        lambda: k1 - exp_t,
        lambda: k1 + exp_t,
        lambda: exp_t @ k1,
        lambda: k1 @ exp_t,
    ]
    for case in cases:
        with pytest.raises(TypeError):
            case()


class TestWeightedShiftConstruction:
    GRID = GridSpec(3, 4)

    def test_zero(self):
        zero = WeightedShift(self.GRID, np.zeros((2, self.GRID.dim)))
        assert zero.operator_norm() == 0.0
        assert np.array_equal(zero.to_dense(), np.zeros((self.GRID.dim, self.GRID.dim)))

    def test_constructor_copies_and_checks(self):
        u = FockUnit(constant(self.GRID, 1.0), constant(self.GRID, 0.5))
        bands = np.array(kernel(u, u).bands)
        operator = WeightedShift(self.GRID, bands)
        bands[0, 0] = 99.0
        assert operator.bands[0, 0] != 99.0
        assert not operator.bands.flags.writeable
        assert not operator.blocks.flags.writeable
        bad = np.array(operator.bands)
        bad[1, -1] += 1.0
        with pytest.raises(ValueError, match="band 1 must be zero at the tail"):
            WeightedShift(self.GRID, bad)
        chain_layout = np.zeros((2, self.GRID.step_denominator, self.GRID.domain_end + 2), dtype=complex)
        for wrong_shape in (chain_layout, kernel(u, u).blocks, operator.bands[:, :-1]):
            with pytest.raises(ValueError, match="expected bands of shape"):
                WeightedShift(self.GRID, wrong_shape)

    def test_grid_mismatch(self):
        other = GridSpec(2, 4)
        a, b = constant(self.GRID, 2.0), constant(other, 2.0)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
            with pytest.raises(GridMismatchError):
                op(multiplication_operator(a), multiplication_operator(b))
        with pytest.raises(GridMismatchError):
            multiplication_operator(a).apply(b)


# The exponential before its Taylor loop ran in place, verbatim but for
# its identity, as the reference the in-place loop must match byte for
# byte. It takes any square matrix or stack of them; matrix_exponential
# takes a weighted shift, and is held to the reference on the shift's
# chain blocks, whose identity is the operator's: 0 on the pad diagonal.


def reference_inf_norm(matrix: np.ndarray) -> float:
    """Max absolute row sum, over every matrix of a stack."""
    return float(np.max(np.sum(np.abs(matrix), axis=-1)))


def reference_scaling(a: np.ndarray) -> tuple[float, int]:
    """The row-sum norm of a stack and the number of squarings that
    bring it to at most 1/2: none up to 1/2, else ceil(log2 norm) + 1."""
    norm = reference_inf_norm(a)
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix with non-finite entries or row sums (row-sum norm {norm})")
    return norm, int(math.ceil(math.log2(norm))) + 1 if norm > 0.5 else 0


def reference_square(result: np.ndarray, norm: float) -> np.ndarray:
    """One squaring step; ``norm`` is the row-sum norm of the input, for
    the message when the square overflows."""
    result = result @ result
    if not np.all(np.isfinite(result)):
        raise ValueError(f"matrix exponential overflows (row-sum norm of the input {norm:.3g})")
    return result


def reference_identity(a: np.ndarray) -> np.ndarray:
    """The identity of a matrix, or of the operator a chain stack stores: 0
    on the pad diagonal, slot 0 of the chains r >= 1."""
    identity = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
    if a.ndim == 3:
        identity[1:, 0, 0] = 0.0
    return identity


def reference_exponential(matrix: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises ValueError below instead
        norm, squarings = reference_scaling(a)
        scaled = a * math.ldexp(1.0, -squarings)
        identity = reference_identity(a)
        result = identity.copy()
        term = identity
        for k in range(1, 64):
            term = term @ scaled / k
            result = result + term
            if reference_inf_norm(term) <= rel_tol * reference_inf_norm(result):
                break
        else:
            raise RuntimeError("matrix exponential series did not converge in 64 terms")
        for _ in range(squarings):
            result = reference_square(result, norm)
    return result


def assert_same_exponential(shift, rel_tol=1e-12):
    expected = reference_exponential(shift.blocks, rel_tol)
    got = matrix_exponential(shift, rel_tol)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def random_stack(rng, shape, scale):
    """Complex entries, about a third of them exactly zero, some -0."""
    a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a[rng.random(shape) < 0.3] = 0.0
    a[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    return a


def random_shift(rng, grid, scale, bands=(0, 1)):
    """A weighted shift whose ``bands`` hold random_stack entries; any
    other band is zero."""
    entries = np.zeros((2, grid.dim), dtype=complex)
    entries[list(bands)] = random_stack(rng, (len(bands), grid.dim), scale)
    entries[1, -1] = 0.0
    return WeightedShift(grid, entries)


@on_small_grids
def test_in_place_exponential_is_byte_identical_to_the_reference(grid, seed):
    rng = np.random.default_rng(seed)
    generator = kernel(random_unit(rng, grid), random_unit(rng, grid))
    for t in (0.0, rng.uniform(0.0, 0.5), rng.uniform(0.5, 4.0), rng.uniform(4.0, 60.0)):
        assert_same_exponential(WeightedShift(grid, t * generator.bands))
    for scale in (1e-3, 0.3, 3.0):
        rel_tol = 10.0 ** rng.uniform(-16, -4)
        assert_same_exponential(random_shift(rng, grid, scale), rel_tol)
        assert_same_exponential(random_shift(rng, grid, scale, bands=(1,)), rel_tol)


@pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3, 3), (4, 5, 5), (2, 7, 7)])
def test_zero_stack_gives_the_identity_of_the_reference(shape):
    """The zero shift whose chain stack has ``shape``, and the shift whose
    every entry is -0."""
    grid = GridSpec(shape[0], shape[-1] - 2)
    assert_same_exponential(WeightedShift(grid, np.zeros((2, grid.dim))))
    assert_same_exponential(WeightedShift(grid, np.full((2, grid.dim), complex(-0.0, -0.0))))
    identity = matrix_exponential(WeightedShift(grid, np.zeros((2, grid.dim))))
    assert identity.tobytes() == identity_operator(grid).blocks.tobytes()
    assert identity.flags.writeable


def test_subnormal_entries_match_the_reference():
    grid = GridSpec(2, 1)
    entries = {(1, 0): complex(3.5e-323, -5e-324)}
    assert_same_exponential(shift_with(grid, entries))
    entries.update({(1, 1): 0.9, (0, 3): complex(0.0, -2.0)})
    assert_same_exponential(shift_with(grid, entries))
    assert_same_exponential(shift_with(grid, {(0, -1): 5e-324}))


def constant_shift(value, grid=GridSpec(1, 1)):
    """value times the identity, as a weighted shift: every Taylor term is
    its own largest part."""
    return multiplication_operator(constant(grid, value))


def taylor_norms(shift, terms=None):
    """Per Taylor term of the reference on the chain blocks of ``shift``:
    the term norm, the norm of the sum, 1 + the sum of the term norms, and
    the largest |real or imaginary part| of the term; up to the default
    stop, or for ``terms`` terms."""
    a = shift.blocks
    _, squarings = reference_scaling(a)
    scaled = a * math.ldexp(1.0, -squarings)
    term = result = reference_identity(a)
    rows, bound = [], 1.0
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        term_norm = reference_inf_norm(term)
        bound += term_norm
        rows.append((term_norm, reference_inf_norm(result), bound, float(np.max(np.abs(term.view(float))))))
        if len(rows) == terms or terms is None and term_norm <= 1e-12 * rows[-1][1]:
            return rows
    raise AssertionError("no stop")


def contraction_stack():
    """0.7 L for a pair of units whose beta makes exp(L) a contraction, so
    the sum of the series is much smaller than 1 + the sum of the term norms."""
    grid = GridSpec(3, 6)
    zeta = AlgebraElement(grid, np.linspace(0.9, 0.2, grid.size).astype(complex), 0.2)
    beta = constant(grid, complex(-0.8, 0.3))
    return WeightedShift(grid, 0.7 * kernel(FockUnit(zeta, beta), FockUnit(zeta, constant(grid, -0.5))).bands)


def stop_stacks():
    """The contraction; exp(1/2) times the identity, whose terms are their
    own largest parts and whose sum is the largest a scaled stack allows;
    a kernel with a unit tail entry; and random complex shifts, with both
    bands and with band 1 alone, below and above the 1/2 that needs no
    squaring."""
    rng = np.random.default_rng(3)
    grid = GridSpec(2, 5)
    yield contraction_stack()
    yield constant_shift(0.5)
    yield WeightedShift(grid, 0.9 * kernel(random_unit(rng, grid), generator_unit(grid)).bands)
    for scale in (0.02, 0.3):
        yield random_shift(rng, grid, scale)
        yield random_shift(rng, grid, scale, bands=(1,))


def test_stop_at_the_bound_matches_the_reference():
    """rel_tol at and next to term_norm / sum_norm of each term of the
    contraction: the stop index is decided by the test of the sum itself,
    once the largest part of the term has let its norms be taken."""
    a = contraction_stack()
    decided_by_the_sum = 0
    for term_norm, sum_norm, _, largest_part in taylor_norms(a):
        ratio = term_norm / sum_norm
        for rel_tol in (np.nextafter(ratio, 0.0), ratio, np.nextafter(ratio, 1.0)):
            assert_same_exponential(a, float(rel_tol))
            if largest_part <= 2.0 * rel_tol and not term_norm <= rel_tol * sum_norm:
                decided_by_the_sum += 1
    assert decided_by_the_sum >= 3


def test_stop_at_the_part_floor_matches_the_reference():
    """rel_tol one ulp below, at and one ulp above half the largest |part|
    of each term up to the default stop, the stopping term included: the
    floor below which a term's norms are not taken. And at and next to
    term_norm / sum_norm, where the sum of exp(1/2) puts that ratio within
    a factor 1.65 of the largest part."""
    floors = 0
    for a in stop_stacks():
        for term_norm, sum_norm, _, largest_part in taylor_norms(a):
            half, ratio = largest_part / 2.0, term_norm / sum_norm
            for rel_tol in (half, ratio):
                for tol in (np.nextafter(rel_tol, 0.0), rel_tol, np.nextafter(rel_tol, 1.0)):
                    assert_same_exponential(a, float(tol))
            floors += largest_part > 0.0
    assert floors >= 20


@pytest.mark.parametrize("rel_tol", [0.25, 1.0, 10.0])
def test_large_tolerances_match_the_reference(rel_tol):
    for a in stop_stacks():
        assert_same_exponential(a, rel_tol)


def test_zero_tolerance_matches_the_reference():
    """With rel_tol = 0 only a term that is exactly zero stops the series:
    a nilpotent stack stops, and any other runs out of terms on both sides."""
    rng = np.random.default_rng(4)
    nilpotent = random_shift(rng, GridSpec(3, 5), 0.4, bands=(1,))
    assert_same_exponential(nilpotent, 0.0)
    for a in (contraction_stack(), constant_shift(0.3)):
        with pytest.raises(RuntimeError):
            reference_exponential(a.blocks, 0.0)
        with pytest.raises(RuntimeError):
            matrix_exponential(a, 0.0)


def test_the_tolerance_floor_converges():
    """At TAYLOR_TOLERANCE_FLOOR the series stops within its 64 terms, with
    the reference's bits, on -1/2 and 1/2 times the identity: terms of the
    largest norm a scaled stack allows, over the smallest and the largest
    sum."""
    for value in (-0.5, 0.5):
        a = constant_shift(value)
        assert_same_exponential(a, fock.TAYLOR_TOLERANCE_FLOOR)
        assert abs(matrix_exponential(a, fock.TAYLOR_TOLERANCE_FLOOR)[0, 0, 0] - math.exp(value)) <= 1e-15


NORM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 2.0**-1022, math.inf, -math.inf]),
    st.floats(-4.0, 4.0),
)


def norm_stack(data, shape):
    """A complex stack whose float parts are drawn from NORM_ENTRIES."""
    parts = data.draw(hypothesis.extra.numpy.arrays(np.float64, (*shape, 2), elements=NORM_ENTRIES))
    return parts.view(np.complex128)[..., 0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inf_norm_is_the_reference_norm(data):
    """The one row-sum norm, taken one matrix at a time, equals the
    stack-wide reference bit for bit on stacks up to (4, 7, 7), contiguous
    or transposed, and on their differences; a NaN norm raises."""
    d = data.draw(st.integers(1, 7))
    shape = data.draw(st.sampled_from([(d, d), *((k, d, d) for k in range(1, 5))]))
    x, y = norm_stack(data, shape), norm_stack(data, shape)
    if data.draw(st.booleans()):
        x, y = x.swapaxes(-1, -2), y.swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):
        for args, expected in (((x,), reference_inf_norm(x)), ((x, y), reference_inf_norm(x - y))):
            if math.isnan(expected):
                with pytest.raises(ValueError, match="NaN"):
                    fock._inf_norm(*args)
            else:
                assert np.array(fock._inf_norm(*args)).view(np.uint64) == np.array(expected).view(np.uint64)


def test_a_nan_norm_raises_and_reprs_as_nan():
    grid = GridSpec(2, 3)
    bands = np.zeros((2, grid.dim), dtype=complex)
    bands[0, 0] = complex(np.nan, 0.0)
    shift = WeightedShift(grid, bands)
    for operator in (shift, KernelOperator(grid, shift.blocks)):
        with pytest.raises(ValueError, match="NaN"):
            operator.operator_norm()
        assert repr(operator).endswith("norm=nan)")


@on_small_grids
def test_band_scaling_is_the_block_scaling(grid, seed):
    """Norm, squarings and scaled stack of tL read from the bands equal
    those of the chain blocks of tL, bit for bit."""
    rng = np.random.default_rng(seed)
    generator = kernel(random_unit(rng, grid), random_unit(rng, grid))
    block, slot = fock._chain_layout(grid)
    i = np.arange(grid.domain_end + 2)
    for t in (0.0, *rng.uniform(0.0, 0.5, 4), *rng.uniform(0.5, 5.0, 8), *10.0 ** rng.uniform(1, 300, 4)):
        with np.errstate(over="ignore", invalid="ignore"):
            blocks, shift = t * generator.blocks, WeightedShift._wrap(grid, t * generator.bands)
            norm = shift.operator_norm()
            assert np.array_equal(np.array(norm).view(np.uint64), np.array(fock._inf_norm(blocks)).view(np.uint64))
            if not math.isfinite(norm):
                continue
            _, squarings, scaled_bands = fock._scaled_bands(shift)
            assert squarings == reference_scaling(blocks)[1]
            scaled_blocks = blocks * math.ldexp(1.0, -squarings)
        assert scaled_blocks[block, slot, slot].tobytes() == scaled_bands[0, :-1].tobytes()
        assert scaled_blocks[block, slot, slot + 1].tobytes() == scaled_bands[1, :-1].tobytes()
        assert scaled_blocks[:, -1, -1].tobytes() == np.repeat(scaled_bands[0, -1:], grid.step_denominator).tobytes()
        off_band = np.ones(scaled_blocks.shape, dtype=bool)
        off_band[block, slot, slot] = off_band[block, slot, slot + 1] = off_band[:, -1, -1] = False
        assert not np.any(scaled_blocks[off_band].view(np.uint64))  # +0 in both float parts, pads included
        assert not np.any(scaled_bands[1, -1:].view(np.uint64))


def test_stop_when_the_sum_norm_rounds_above_the_bound():
    """Terms at which the computed norm of the sum exceeds the computed
    1 + sum of the term norms by rounding, with rel_tol the least number
    at which the reference stops there: the stop lands on that term, the
    first at which the test of the sum holds."""
    rng = np.random.default_rng(0)
    grid = GridSpec(1, 1)
    cases = 0
    for _ in range(200):
        bands = rng.uniform(0.0, 1.0, (2, grid.dim)) * rng.uniform(0.1, 0.5)
        bands[1, -1] = 0.0
        a = WeightedShift(grid, bands)
        for term_norm, sum_norm, bound, _ in taylor_norms(a, terms=8):
            if sum_norm <= bound:
                continue
            rel_tol = term_norm / sum_norm
            while rel_tol * sum_norm < term_norm:
                rel_tol = np.nextafter(rel_tol, 1.0)
            while np.nextafter(rel_tol, 0.0) * sum_norm >= term_norm:
                rel_tol = np.nextafter(rel_tol, 0.0)
            if term_norm > rel_tol * bound:
                assert_same_exponential(a, float(rel_tol))
                cases += 1
    assert cases >= 3


def exponential_or_error(exponential, argument):
    """The bytes of exponential(argument), or the message it raises."""
    try:
        return exponential(argument).tobytes()
    except ValueError as error:
        return str(error)


@on_small_grids
def test_shift_exponential_is_the_block_exponential(grid, seed):
    """The exponential of a weighted shift, which reads its norm from the
    bands and builds only the scaled stack, has the bytes of the reference
    exponential of its chain blocks, or raises the same message: at t = 0
    on bands with negative parts (-0 entries), at subnormal scales, at
    norms one ulp around 2^j, where log2 may round down, and at times
    that overflow."""
    rng = np.random.default_rng(seed)
    generator = kernel(random_unit(rng, grid), random_unit(rng, grid))
    norm = generator.operator_norm()
    times = [0.0, 5e-324, 3.5e-323, 1e-310 / norm, rng.uniform(0.0, 0.5), rng.uniform(0.5, 6.0)]
    for j in range(-2, 9):
        t = math.ldexp(1.0, j) / norm
        times += [float(x) for x in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf))]
    times += [1e5 / norm, 1e308]
    signs = (generator.bands, -generator.bands)
    assert any(np.signbit((0.0 * bands).view(float)).any() for bands in signs)
    mixed = 3.0 * generator.bands
    mixed[rng.random(mixed.shape) < 0.4] = complex(3.5e-323, -5e-324)
    mixed[1, -1] = 0.0
    doubling = FockUnit(constant(grid, 2.0), constant(grid, 0.0))
    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        growing = [t * kernel(doubling, doubling).bands for t in (200.0, 1e3, 1e300, 1e308)]
        for bands in [t * bands for t in times for bands in signs] + [mixed, *growing]:
            shift = WeightedShift(grid, bands)
            outcomes.append(exponential_or_error(matrix_exponential, shift))
            assert outcomes[-1] == exponential_or_error(reference_exponential, shift.blocks)
    messages = outcomes[-len(growing) :]
    assert all("overflows" in x for x in messages[:3]) and "cannot exponentiate" in messages[3]


REFERENCE_TESTS = (
    "test_shift_exponential_is_the_block_exponential",
    "test_in_place_exponential_is_byte_identical_to_the_reference",
    "test_zero_stack_gives_the_identity_of_the_reference",
    "test_subnormal_entries_match_the_reference",
    "test_stop_at_the_bound_matches_the_reference",
    "test_stop_at_the_part_floor_matches_the_reference",
    "test_large_tolerances_match_the_reference",
    "test_zero_tolerance_matches_the_reference",
    "test_stop_when_the_sum_norm_rounds_above_the_bound",
)


def test_reference_tests_are_tests_of_this_module():
    """A stale name in REFERENCE_TESTS would show only in the forced-core
    child run, which runs on x86 alone."""
    for name in REFERENCE_TESTS:
        assert name.startswith("test_") and callable(globals().get(name)), name


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86 kernels only")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_reference_tests_pass_under_a_forced_blas_core(tmp_path, core):
    """The exponential's byte identity to the reference, once more in a
    child interpreter whose OpenBLAS is forced onto another kernel and one
    thread: it must not hang on the kernel that rounds the products."""
    env = {**child_env(), "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1"}
    probe = [sys.executable, "-c", "import fockindex; print(fockindex.blas_core())"]
    assert subprocess.run(probe, capture_output=True, text=True, timeout=60, env=env).stdout.strip() == core
    tests = [f"{__file__}::{name}" for name in REFERENCE_TESTS]
    child = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(child, capture_output=True, text=True, timeout=600, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout[-3000:]


@on_small_grids
def test_semigroups_at_squaring_boundaries_are_fresh_exponentials(grid, seed):
    """Times at which the row-sum norm of tL crosses a power of two, where
    a norm rounded another way than that of the chain blocks of tL would
    change the number of squarings."""
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    norm = kernel(u, v).operator_norm()
    times = set()
    for j in range(-2, 5):
        t = math.ldexp(1.0, j) / norm
        times.update(float(x) for x in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)))
    exps = fock.semigroups(u, v, times)
    for t in times:
        assert exps[t].blocks.tobytes() == fresh_exponential(u, v, t).tobytes(), t
