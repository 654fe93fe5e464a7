"""Weighted shifts in coordinate order against the chain-slot layout they
replaced. The reference below is a verbatim copy of that code; every band
entry, chain block, action, norm and dense matrix of kernels,
multiplication operators and their shift-closed combinations must match it
byte for byte, signed zeros included. The reference kept a pad slot in
chains 1..m-1, which could hold -0 after a negation or a column scaling
and which nothing read; pads are compared by value only."""

from dataclasses import dataclass

import numpy as np
import pytest
from test_mirror_pairs import element_bytes, on_small_grids, random_element, random_unit

from fockindex.algebra import AlgebraElement, GridMismatchError, GridSpec
from fockindex.fock import KernelOperator, WeightedShift, _chain_layout, kernel, multiplication_operator

# -- the chain-slot layout, verbatim ---------------------------------------------


def _band_shape(grid: GridSpec) -> tuple[int, int, int]:
    return (2, grid.step_denominator, grid.domain_end + 2)


def _chain_vectors(grid: GridSpec, b: AlgebraElement) -> np.ndarray:
    """The coordinates of b in chain layout, shape (m, S+2), pads zero."""
    if b.grid != grid:
        raise GridMismatchError("operand lives on a different grid")
    block, slot = _chain_layout(grid)
    x = np.zeros(_band_shape(grid)[1:], dtype=complex)
    x[block, slot] = b.samples
    x[:, -1] = b.tail
    return x


def _from_chain_vectors(grid: GridSpec, y: np.ndarray) -> AlgebraElement:
    block, slot = _chain_layout(grid)
    return AlgebraElement(grid, y[block, slot], y[0, -1])


@dataclass(frozen=True, eq=False)
class ReferenceShift:
    grid: GridSpec
    bands: np.ndarray

    def __post_init__(self) -> None:
        bands = np.array(self.bands, dtype=complex)
        shape = _band_shape(self.grid)
        if bands.shape != shape:
            raise ValueError(f"expected bands of shape {shape}, got {bands.shape}")
        if np.any(bands[:, 1:, 0]):
            raise ValueError("pad slots (slot 0 of chains 1..m-1) must be zero")
        if np.any(bands[1, :, -1]) or np.any(bands[0, :, -1] != bands[0, 0, -1]):
            raise ValueError("the tail slot must hold only the tail entry, equal in every chain")
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    @classmethod
    def _wrap(cls, grid: GridSpec, bands: np.ndarray) -> "ReferenceShift":
        bands.setflags(write=False)
        operator = object.__new__(cls)
        object.__setattr__(operator, "grid", grid)
        object.__setattr__(operator, "bands", bands)
        return operator

    @classmethod
    def zero(cls, grid: GridSpec) -> "ReferenceShift":
        return cls._wrap(grid, np.zeros(_band_shape(grid), dtype=complex))

    @property
    def blocks(self) -> np.ndarray:
        m, chain = self.bands.shape[1:]
        i = np.arange(chain)
        blocks = np.zeros((m, chain, chain), dtype=complex)
        blocks[:, i, i] = self.bands[0]
        blocks[:, i[:-1], i[1:]] = self.bands[1, :, :-1]
        blocks.setflags(write=False)
        return blocks

    def _chain_operator(self) -> KernelOperator:
        return KernelOperator._wrap(self.grid, self.blocks)

    _check = KernelOperator._check

    def __add__(self, other):
        if not isinstance(other, ReferenceShift):
            return self._chain_operator() + other
        self._check(other)
        return ReferenceShift._wrap(self.grid, self.bands + other.bands)

    def __sub__(self, other):
        if not isinstance(other, ReferenceShift):
            return self._chain_operator() - other
        self._check(other)
        return ReferenceShift._wrap(self.grid, self.bands - other.bands)

    def __neg__(self) -> "ReferenceShift":
        return ReferenceShift._wrap(self.grid, -self.bands)

    def __mul__(self, scalar) -> "ReferenceShift":
        return ReferenceShift._wrap(self.grid, self.bands * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ReferenceShift):
            return self._chain_operator() @ other
        self._check(other)
        if not np.any(self.bands[1]):
            return ReferenceShift._wrap(self.grid, self.bands[0] * other.bands)
        if not np.any(other.bands[1]):
            a = other.bands[0]
            bands = np.zeros_like(self.bands)
            bands[0] = self.bands[0] * a
            bands[1, :, :-1] = self.bands[1, :, :-1] * a[:, 1:]
            return ReferenceShift._wrap(self.grid, bands)
        return self._chain_operator() @ other._chain_operator()

    def apply(self, b: AlgebraElement) -> AlgebraElement:
        x = _chain_vectors(self.grid, b)
        y = self.bands[0] * x
        y[:, :-1] += self.bands[1, :, :-1] * x[:, 1:]
        return _from_chain_vectors(self.grid, y)

    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.bands[0]) + np.abs(self.bands[1])))

    def to_dense(self) -> np.ndarray:
        return self._chain_operator().to_dense()


def reference_multiplication_operator(a: AlgebraElement) -> ReferenceShift:
    grid = a.grid
    block, slot = _chain_layout(grid)
    bands = np.zeros(_band_shape(grid), dtype=complex)
    bands[0, block, slot] = a.samples
    bands[0, :, -1] = a.tail
    return ReferenceShift._wrap(grid, bands)


def reference_kernel(u, v) -> ReferenceShift:
    if u.grid != v.grid:
        raise GridMismatchError("units live on different grids")
    grid = u.grid
    block, slot = _chain_layout(grid)
    bands = np.zeros(_band_shape(grid), dtype=complex)
    bands[1, block, slot] += np.conj(u.zeta.samples) * v.zeta.samples
    bands[0, block, slot] += np.conj(u.beta.samples) + v.beta.samples
    bands[0, :, -1] = np.conj(u.zeta.tail) * v.zeta.tail + np.conj(u.beta.tail) + v.beta.tail
    return ReferenceShift._wrap(grid, bands)


# -- the comparison ----------------------------------------------------------------


def assert_same_shift(name, got, expected):
    grid = got.grid
    block, slot = _chain_layout(grid)
    m = grid.step_denominator
    assert got.bands.shape == (2, grid.dim), name
    assert got.bands[:, :-1].tobytes() == expected.bands[:, block, slot].tobytes(), name
    assert np.repeat(got.bands[:, -1:], m, axis=1).tobytes() == expected.bands[:, :, -1].tobytes(), name
    pads = np.zeros(expected.blocks.shape, dtype=bool)
    pads[1:, 0, :] = pads[1:, :, 0] = True
    assert got.blocks[~pads].tobytes() == expected.blocks[~pads].tobytes(), name
    assert np.all(got.blocks[pads] == 0) and np.all(expected.blocks[pads] == 0), name
    assert np.float64(got.operator_norm()).tobytes() == np.float64(expected.operator_norm()).tobytes(), name
    assert got.to_dense().tobytes() == expected.to_dense().tobytes(), name


@on_small_grids
def test_coordinate_shifts_are_byte_identical_to_the_chain_slot_reference(grid, seed):
    rng = np.random.default_rng(seed)
    u, v, w = random_unit(rng, grid), random_unit(rng, grid), random_unit(rng, grid)
    a, c = random_element(rng, grid), random_element(rng, grid)
    probes = [random_element(rng, grid) for _ in range(2)]
    scalar = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    pairs = {
        "kernel": (kernel(u, v), reference_kernel(u, v)),
        "second kernel": (kernel(v, w), reference_kernel(v, w)),
        "multiplication": (multiplication_operator(a), reference_multiplication_operator(a)),
        "second multiplication": (multiplication_operator(c), reference_multiplication_operator(c)),
        "zero": (WeightedShift.zero(grid), ReferenceShift.zero(grid)),
    }
    k, m_a, m_c = pairs["kernel"], pairs["multiplication"], pairs["second multiplication"]
    k2 = pairs["second kernel"]

    def both(op, *operands):
        return tuple(op(*(operand[side] for operand in operands)) for side in (0, 1))

    pairs.update(
        {
            "sum": both(lambda x, y: x + y, k, k2),
            "difference": both(lambda x, y: x - y, k, k2),
            "negation": both(lambda x: -x, k),
            "negated multiplication": both(lambda x: -x, m_a),
            "scalar multiple": both(lambda x: x * scalar, k),
            "scalar on the left": both(lambda x: -0.5 * x, m_a),
            "row scaling": both(lambda x, y: x @ y, m_a, k),
            "column scaling": both(lambda x, y: x @ y, k, m_a),
            "negated column scaling": both(lambda x, y: (-x) @ y, k, m_c),
            "two multiplications": both(lambda x, y: x @ y, m_a, m_c),
            "both sides": both(lambda x, y, z: x @ y @ z + z, m_c, k, m_a),
        }
    )
    for name, (got, expected) in pairs.items():
        assert_same_shift(name, got, expected)
        for b in probes:
            assert element_bytes(got.apply(b)) == element_bytes(expected.apply(b)), name
    # A product of two general shifts leaves the form and is refused. A kernel
    # whose band 1 drew only zeros is a multiplication operator, and its
    # products are the scalings compared above.
    if k[0].bands[1].any() and k2[0].bands[1].any():
        with pytest.raises(TypeError):
            k[0] @ k2[0]
