"""Chain-block kernel operators and weighted shifts against dense matrices
built here from the unit formulas, against each other, and against
scipy's expm."""

import math

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


def count_exponentials(monkeypatch):
    calls = []
    original = fock.matrix_exponential

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, "matrix_exponential", counting)
    return calls


def scaled_generator_count(u, v, times):
    """The number of distinct stacks (tL) 2^-s over ``times``, with s the
    squaring count of the scaling-and-squaring rule, from the dense kernel."""
    stacks = set()
    for t in times:
        a = t * dense_kernel(u, v)
        norm = np.max(np.sum(np.abs(a), axis=1))
        squarings = int(np.ceil(np.log2(norm))) + 1 if norm > 0.5 else 0
        stacks.add((a * 2.0**-squarings).tobytes())
    return len(stacks)


@pytest.mark.parametrize("times", [(0.5, 1.0), (0.3, 0.7, 1.0), (0.0, 0.25, 2.0)])
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


def fresh_exponential(u, v, t):
    """exp(tL) as one call of matrix_exponential, pads cleared."""
    blocks = matrix_exponential(t * kernel(u, v).blocks)
    blocks[1:, 0, 0] = 0.0
    return blocks


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
    identity = KernelOperator.identity(grid).blocks.tobytes()
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
        matrix_exponential(times[-1] * kernel(u, u).blocks)
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


# The exponential before its Taylor loop ran in place, verbatim, as the
# reference the in-place loop must match byte for byte.


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


def reference_exponential(matrix: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises ValueError below instead
        norm, squarings = reference_scaling(a)
        scaled = a * math.ldexp(1.0, -squarings)
        identity = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
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


def assert_same_exponential(a, rel_tol=1e-12):
    expected = reference_exponential(a, rel_tol)
    got = matrix_exponential(a, rel_tol)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def random_stack(rng, shape, scale):
    """Complex entries, about a third of them exactly zero, some -0."""
    a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a[rng.random(shape) < 0.3] = 0.0
    a[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    return a


@on_small_grids
def test_in_place_exponential_is_byte_identical_to_the_reference(grid, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unit(rng, grid), random_unit(rng, grid)
    generator = kernel(u, v)
    for t in (0.0, rng.uniform(0.0, 0.5), rng.uniform(0.5, 4.0), rng.uniform(4.0, 60.0)):
        assert_same_exponential(t * generator.blocks)
        assert_same_exponential(t * dense_kernel(u, v))  # 2-D input
    d = grid.domain_end + 2
    for scale in (1e-3, 0.3, 3.0):
        rel_tol = 10.0 ** rng.uniform(-16, -4)
        assert_same_exponential(random_stack(rng, (grid.step_denominator, d, d), scale), rel_tol)
        assert_same_exponential(np.triu(random_stack(rng, (d, d), scale)), rel_tol)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 5, 5), (2, 3, 2, 2)])
def test_zero_stack_gives_the_identity_of_the_reference(shape):
    assert_same_exponential(np.zeros(shape))
    assert_same_exponential(np.full(shape, complex(-0.0, -0.0)))
    identity = matrix_exponential(np.zeros(shape))
    assert np.array_equal(identity, np.broadcast_to(np.eye(shape[-1]), shape))
    assert identity.flags.writeable


def test_subnormal_entries_match_the_reference():
    a = np.zeros((2, 3, 3), dtype=complex)
    a[0, 0, 1] = complex(3.5e-323, -5e-324)
    assert_same_exponential(a)
    a[1, 1, 2] = 0.9
    a[1, 2, 2] = complex(0.0, -2.0)
    assert_same_exponential(a)
    assert_same_exponential(np.array([[5e-324]]))


def taylor_norms(a, terms=None):
    """Per Taylor term of the reference on ``a``: the term norm, the norm
    of the sum, and 1 + the sum of the term norms; up to the default stop,
    or for ``terms`` terms."""
    _, squarings = reference_scaling(a)
    scaled = a * math.ldexp(1.0, -squarings)
    term = result = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    rows, bound = [], 1.0
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        term_norm = reference_inf_norm(term)
        bound += term_norm
        rows.append((term_norm, reference_inf_norm(result), bound))
        if len(rows) == terms or terms is None and term_norm <= 1e-12 * rows[-1][1]:
            return rows
    raise AssertionError("no stop")


def test_stop_at_the_bound_matches_the_reference():
    """rel_tol at and next to term_norm / sum_norm of each term: the stop
    is then decided by the test of the sum itself, after the bound
    1 + sum of the term norms has let it through."""
    grid = GridSpec(3, 6)
    zeta = AlgebraElement(grid, np.linspace(0.9, 0.2, grid.size).astype(complex), 0.2)
    beta = constant(grid, complex(-0.8, 0.3))  # a contraction: the sum is much smaller than the bound
    a = 0.7 * kernel(FockUnit(zeta, beta), FockUnit(zeta, constant(grid, -0.5))).blocks
    decided_at_the_bound = 0
    for term_norm, sum_norm, bound in taylor_norms(a):
        ratio = term_norm / sum_norm
        for rel_tol in (np.nextafter(ratio, 0.0), ratio, np.nextafter(ratio, 1.0)):
            assert_same_exponential(a, float(rel_tol))
            if term_norm <= rel_tol * bound * (1.0 + 1e-10) and not term_norm <= rel_tol * sum_norm:
                decided_at_the_bound += 1
    assert decided_at_the_bound >= 3


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
            blocks, bands = t * generator.blocks, t * generator.bands
            norm = WeightedShift._wrap(grid, bands).operator_norm()
            assert np.array_equal(np.array(norm).view(np.uint64), np.array(fock._inf_norm(blocks)).view(np.uint64))
            if not math.isfinite(norm):
                continue
            squarings = fock._scaling(norm)
            assert squarings == reference_scaling(blocks)[1]
            scaled_blocks, scaled_bands = blocks * math.ldexp(1.0, -squarings), bands * math.ldexp(1.0, -squarings)
        assert scaled_blocks[block, slot, slot].tobytes() == scaled_bands[0, :-1].tobytes()
        assert scaled_blocks[block, slot, slot + 1].tobytes() == scaled_bands[1, :-1].tobytes()
        assert scaled_blocks[:, -1, -1].tobytes() == np.repeat(scaled_bands[0, -1:], grid.step_denominator).tobytes()
        off_band = np.ones(scaled_blocks.shape, dtype=bool)
        off_band[block, slot, slot] = off_band[block, slot, slot + 1] = off_band[:, -1, -1] = False
        assert not np.any(scaled_blocks[off_band].view(np.uint64))  # +0 in both float parts, pads included
        assert not np.any(scaled_bands[1, -1:].view(np.uint64))


def test_stop_when_the_sum_norm_rounds_above_the_bound():
    """The computed norm of the sum can exceed the computed 1 + sum of the
    term norms by rounding. With rel_tol the least number at which the
    reference stops there, the bound alone would not let the term
    through; the factor 1 + 1e-10 does."""
    rng = np.random.default_rng(0)
    cases = 0
    for _ in range(200):
        a = np.triu(rng.uniform(0.0, 1.0, (3, 3))) * rng.uniform(0.1, 0.5)
        for term_norm, sum_norm, bound in taylor_norms(a, terms=8):
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
