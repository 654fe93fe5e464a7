"""Continuous units of the time-ordered product system over F = B with
left action by the unit shift, their two-point kernels, and the associated
operator semigroups.

A unit is parameterized by a pair (zeta, beta) of algebra elements. The
kernel of two units acts on the algebra as

    b  |->  conj(zeta(s)) * b(s + 1) * zeta'(s) + (conj(beta(s)) + beta'(s)) * b(s),

which on coordinate vectors (samples..., tail) couples sample k only to
itself and to sample k+m (the unit shift T), or to the tail once k+m is
past the grid. The tail is a sink that feeds only itself.

Operators come in two forms:

- :class:`WeightedShift` is D_a + D_w T, a multiplication operator plus a
  weighted unit shift, stored in coordinate order as two coefficients per
  coordinate. Kernels and multiplication operators have this form, and
  so do their sums and their products with multiplication operators.
- :class:`KernelOperator` holds the exponentials and their sums and
  products. T splits the samples into m residue chains r, r+m, r+2m, ...
  that end in the shared tail, and each such operator stores one
  (S+2) x (S+2) block per chain (see its docstring for the slots). An
  exponential is one batched scaling-and-squaring over the m blocks. A
  weighted shift becomes chain blocks only when it is viewed dense, or
  exponentiated, and then only once scaled.

Each form combines only with its own kind, and two shifts multiply only
when one is a multiplication operator; anything else raises TypeError.
Arithmetic in either form is exact.

:func:`kernel_stack` builds the bands of K(u_i, v_j) for two lists of
units as one (len(lefts), len(rights), 2, dim) array, which is how the
bimodule operations take their formula path over a whole probe battery,
and :func:`kernel` is its one-pair case. Products and sums taken over
such a stack have the bits of the same operations on one operator, since
numpy's array complex arithmetic rounds alike however its operands are
stacked, broadcast or sliced. The tail entry of a kernel is the
exception: numpy's array complex product can round differently from its
scalar one (on an AVX-512 host it did for about half of random pairs),
so every tail entry is taken pair by pair in scalar arithmetic.
``tests/test_fock.py`` pins that rule with tails drawn where the two
products disagree.

:func:`semigroups` takes exp(tL) for many times t at once, and
:func:`semigroup` is its one-time case. :func:`matrix_exponential` takes
tL as a weighted shift. It scales tL by 2^-s(t), with s(t) the least
count that brings the row-sum norm to 1/2 or below, sums a Taylor series
of the scaled chain stack and squares the sum s(t) times. It reads the
norm from the bands and builds the scaled stack straight from the scaled
bands, with the bits the chain blocks would give (see
:func:`matrix_exponential`). At its peak it holds
four chain stacks: the scaled stack, the sum and two term buffers. Each
squaring holds only the sum and its square, and every row-sum norm of a
chain stack is taken one chain block at a time.

The sum and its stopping test read only the scaled stack, so when the
scaled stacks of hL and tL are equal to the bit, as scaling by a power
of two usually makes them for h = t/2^k, exp(tL) is exp(hL) squared
s(t) - s(h) more times: the very float operations a fresh exponential of
tL would run. The pad entries that exp(hL) has cleared meet only zeros
in a product, so they change no bit either.

The Taylor sum runs in place and gives the bits of the plain loop
term_k = term_{k-1} @ A / k, sum = sum + term_k. Term k is computed into
a preallocated buffer and both its float parts are multiplied by 1/k,
which on a nonzero part is the complex quotient x / (k + 0j) to the bit.
Only the sign of a zero part can differ, and a signed zero changes no
nonzero entry of a later product or sum. The sum starts from the
identity, +0 off the diagonal, so it never holds -0 and its bits are the
same. The loop stops at the first term with ||term|| <= rel_tol ||sum||,
and takes those two row-sum norms only for a term whose largest float
part is at most 2 rel_tol: no other term can pass the test (see
:func:`matrix_exponential`).

BLAS audit: the only BLAS or LAPACK calls whose results reach a report
all run in numpy's bundled OpenBLAS: np.matmul on chain blocks (zgemm) in
:meth:`KernelOperator.__matmul__`, :func:`_square` and the Taylor loop, by
a coordinate column (zgemv) in :meth:`KernelOperator.apply`, and
np.linalg.eigvalsh (LAPACK) in :func:`gram_psd_check`. On a host whose
:func:`blas_core` is SkylakeX, at (4, 40) with one thread, forcing the
Haswell or Sandybridge kernel changed the bits of each.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, DomainError, GridMismatchError, GridSpec, _is_count, _require_tolerance, constant, judge

__all__ = [
    "UnsupportedParameterError",
    "FockUnit",
    "NParticleVector",
    "KernelOperator",
    "WeightedShift",
    "vacuum_unit",
    "generator_unit",
    "left_action",
    "module_inner",
    "unit_component",
    "multiplication_operator",
    "kernel",
    "kernel_stack",
    "matrix_exponential",
    "semigroup",
    "semigroups",
    "semigroup_law_residual",
    "gram_matrices",
    "GramReport",
    "gram_psd_check",
    "TAYLOR_TOLERANCE",
    "TAYLOR_TOLERANCE_FLOOR",
    "blas_core",
]

TAYLOR_TOLERANCE = 1e-12  # the exponential's Taylor sum stops below this share of the running sum
# The least tolerance at which the Taylor sum surely stops within its 64 terms. Term k of a
# scaled stack, row-sum norm <= 1/2, has norm at most 2^-k / k!, and the sum has norm at least
# e^-1/2, so any tolerance >= 2^-63 / 63! * e^1/2 (about 9.0e-107) stops by term 63. Rounded
# up, for the rounding of log2 that can leave the scaled norm a little above 1/2.
TAYLOR_TOLERANCE_FLOOR = 1e-100


class UnsupportedParameterError(DomainError):
    """A parameter regime the component-level calculus does not cover."""


@dataclass(frozen=True, eq=False)
class FockUnit:
    """A continuous unit, parameterized by (zeta, beta) on one grid."""

    zeta: AlgebraElement
    beta: AlgebraElement

    def __post_init__(self) -> None:
        if self.zeta.grid != self.beta.grid:
            raise GridMismatchError("zeta and beta must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.zeta.grid


def vacuum_unit(grid: GridSpec) -> FockUnit:
    """The central unital unit (0, 0)."""
    return FockUnit(constant(grid, 0.0), constant(grid, 0.0))


def generator_unit(grid: GridSpec) -> FockUnit:
    """The unit (1, 0) that generates the subsystem under study."""
    return FockUnit(constant(grid, 1.0), constant(grid, 0.0))


@dataclass(frozen=True, eq=False)
class NParticleVector:
    """An n-particle component: an algebra element carrying its particle
    count. The left action twists by the n-fold shift; the right action
    and the inner product are plain multiplication."""

    n: int
    value: AlgebraElement

    def __post_init__(self) -> None:
        if not _is_count(self.n) or self.n < 0:
            raise DomainError(f"particle count must be a nonnegative integer, got {self.n!r}")


def left_action(b: AlgebraElement, x: NParticleVector) -> NParticleVector:
    """b . x = shift(b, n) * x, the twisted module action."""
    if b.grid != x.value.grid:
        raise GridMismatchError("left_action operands must share one grid")
    return NParticleVector(x.n, b.shift(x.n) * x.value)


def module_inner(x: NParticleVector, y: NParticleVector) -> AlgebraElement:
    """<x, y> = star(x.value) * y.value for equal particle counts."""
    if x.n != y.n:
        raise DomainError(f"particle-count mismatch: {x.n} vs {y.n}")
    if x.value.grid != y.value.grid:
        raise GridMismatchError("module_inner operands must share one grid")
    return x.value.star() * y.value


def unit_component(u: FockUnit, n: int) -> NParticleVector:
    """The n-particle component of a unit with beta = 0:
    value(s) = zeta(s) * zeta(s+1) * ... * zeta(s+n-1); n = 0 gives 1."""
    if (u.beta.samples != 0).any() or u.beta.tail != 0:
        raise UnsupportedParameterError("components are only available for units with beta = 0")
    if not _is_count(n) or n < 0:
        raise DomainError(f"particle count must be a nonnegative integer, got {n!r}")
    value = u.zeta if n else constant(u.grid, 1.0)
    for k in range(1, n):
        value = value * u.zeta.shift(k)
    return NParticleVector(int(n), value)


def _block_shape(grid: GridSpec) -> tuple[int, int, int]:
    chain = grid.domain_end + 2
    return (grid.step_denominator, chain, chain)


@lru_cache(maxsize=32)
def _chain_layout(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Block and slot of every sample index k: block k mod m, slot ceil(k/m)."""
    k = np.arange(grid.size)
    m = grid.step_denominator
    block, slot = k % m, -(-k // m)
    block.setflags(write=False)
    slot.setflags(write=False)
    return block, slot


def _clear_pads(blocks: np.ndarray) -> np.ndarray:
    """Zero the pad diagonal (slot 0 of the chains r >= 1) in place."""
    blocks[1:, 0, 0] = 0.0
    return blocks


class _Operator:
    """Arithmetic and the dense view shared by the two operator forms, each
    a frozen dataclass of ``grid`` and the array that ``_field`` names.
    Sums and differences take two operands of the same form; an operand of
    the other form gives NotImplemented, so Python raises TypeError.
    :meth:`to_dense` reads :attr:`blocks`."""

    _field = ""

    @classmethod
    def _wrap(cls, grid: GridSpec, array: np.ndarray):
        """An operator over an array this module has just computed: frozen,
        neither checked nor copied."""
        array.setflags(write=False)
        operator = object.__new__(cls)
        object.__setattr__(operator, "grid", grid)
        object.__setattr__(operator, cls._field, array)
        return operator

    def __repr__(self) -> str:
        try:
            norm = f"{self.operator_norm():.6g}"
        except ValueError:  # a NaN norm
            norm = "nan"
        return f"{type(self).__name__}(m={self.grid.step_denominator}, S={self.grid.domain_end}, norm={norm})"

    def _check(self, other) -> None:
        if self.grid != other.grid:
            raise GridMismatchError("operands live on different grids")

    def _pointwise(self, op, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._wrap(self.grid, op(getattr(self, self._field), getattr(other, self._field)))

    def __add__(self, other):
        return self._pointwise(np.add, other)

    def __sub__(self, other):
        return self._pointwise(np.subtract, other)

    def __neg__(self):
        return self._wrap(self.grid, -getattr(self, self._field))

    def __mul__(self, scalar):
        return self._wrap(self.grid, getattr(self, self._field) * complex(scalar))

    __rmul__ = __mul__

    def to_dense(self) -> np.ndarray:
        """The dim x dim matrix acting on coordinate vectors (samples..., tail)."""
        grid = self.grid
        n, m = grid.size, grid.step_denominator
        _, slot = _chain_layout(grid)
        dense = np.zeros((grid.dim, grid.dim), dtype=complex)
        for r in range(m):
            chain = np.arange(r, n, m)
            index, slots = np.append(chain, n), np.append(slot[chain], grid.domain_end + 1)
            dense[np.ix_(index, index)] = self.blocks[r][np.ix_(slots, slots)]
        return dense


@dataclass(frozen=True, eq=False, repr=False)
class KernelOperator(_Operator):
    """A bounded operator on the discretized algebra that maps every residue
    chain into itself and the tail, stored as m chain blocks.

    ``blocks`` has shape (m, S+2, S+2). Block r acts on the chain of sample
    indices r, r+m, r+2m, ... followed by the tail: sample k sits in block
    k mod m at slot ceil(k/m), and slot S+1 of every block is the shared
    tail, a sink whose row holds only its own diagonal entry, the same in
    every block. Chain 0 fills slots 0..S. Chains r >= 1 have S samples in
    slots 1..S, so their slot 0 is a pad whose row and column are exactly
    zero, in every stored operator. The exponentials of kernels have this
    form, and so do their sums and products, so the block-wise arithmetic
    is exact; it takes no :class:`WeightedShift` operand. Arrays passed in
    are checked, copied and frozen.
    """

    grid: GridSpec
    blocks: np.ndarray

    _field = "blocks"

    def __post_init__(self) -> None:
        blocks = np.array(self.blocks, dtype=complex)
        shape = _block_shape(self.grid)
        if blocks.shape != shape:
            raise ValueError(f"expected chain blocks of shape {shape}, got {blocks.shape}")
        if np.any(blocks[1:, 0, :]) or np.any(blocks[1:, :, 0]):
            raise ValueError("pad rows and columns (slot 0 of blocks 1..m-1) must be zero")
        tail_rows = blocks[:, -1, :]
        if np.any(tail_rows[:, :-1]) or np.any(tail_rows[:, -1] != tail_rows[0, -1]):
            raise ValueError("tail rows must hold only the tail entry, equal in every block")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __matmul__(self, other: "KernelOperator") -> "KernelOperator":
        if not isinstance(other, KernelOperator):
            return NotImplemented
        self._check(other)
        return KernelOperator._wrap(self.grid, np.matmul(self.blocks, other.blocks))

    def apply(self, b: AlgebraElement) -> AlgebraElement:
        """Block-wise matmul on the coordinates of b in chain layout, pads zero."""
        self._check(b)
        block, slot = _chain_layout(self.grid)
        x = np.zeros(self.blocks.shape[:2], dtype=complex)
        x[block, slot] = b.samples
        x[:, -1] = b.tail
        y = np.matmul(self.blocks, x[..., None])[..., 0]
        return AlgebraElement._wrap(self.grid, y[block, slot], y[0, -1])

    def operator_norm(self) -> float:
        """Induced sup-norm on coordinates: max absolute row sum."""
        return _inf_norm(self.blocks)


def _inf_norm(stack: np.ndarray, minus: np.ndarray | None = None) -> float:
    """Max absolute row sum over every matrix of a stack, or of ``stack -
    minus``, taken one matrix at a time, so that the difference and the
    |.| temporary hold one matrix."""
    d = stack.shape[-1]
    blocks = stack.reshape(-1, d, d)
    others = None if minus is None else minus.reshape(blocks.shape)
    sums = np.empty(blocks.shape[:2])
    for i, block in enumerate(blocks):
        sums[i] = np.sum(np.abs(block if others is None else block - others[i]), axis=-1)
    return _largest_row_sum(sums)


def _largest_row_sum(sums: np.ndarray) -> float:
    """The largest of the row sums ``sums``. A NaN entry, or inf - inf in a
    difference, makes it NaN, which passes no bound yet drops out of a
    later max(), so a NaN norm raises ValueError; inf is kept."""
    norm = float(np.max(sums))
    if math.isnan(norm):
        raise ValueError("row-sum norm is NaN: an entry is NaN, or a difference met inf - inf")
    return norm


@dataclass(frozen=True, eq=False, repr=False)
class WeightedShift(_Operator):
    """The operator D_a + D_w T on the discretized algebra: multiplication
    by a plus multiplication by w after the unit shift T, which moves
    sample k to k+m, or to the tail once k+m is past the grid.

    ``bands`` has shape (2, dim) over the coordinates (samples..., tail):
    band 0 holds a and band 1 holds w. Band 1 is zero at the tail, which
    feeds only itself. The form is closed under sums, scalar multiples and
    products with a multiplication operator on either side, and takes no
    other product. Arrays passed in are checked, copied and frozen.
    """

    grid: GridSpec
    bands: np.ndarray

    _field = "bands"

    def __post_init__(self) -> None:
        bands = np.array(self.bands, dtype=complex)
        shape = (2, self.grid.dim)
        if bands.shape != shape:
            raise ValueError(f"expected bands of shape {shape}, got {bands.shape}")
        if bands[1, -1] != 0:
            raise ValueError("band 1 must be zero at the tail, which feeds only itself")
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    @property
    def blocks(self) -> np.ndarray:
        """Chain blocks, a on the diagonal and w right of it, for :meth:`to_dense` and :func:`matrix_exponential`."""
        block, slot = _chain_layout(self.grid)
        blocks = np.zeros(_block_shape(self.grid), dtype=complex)
        blocks[block, slot, slot] = self.bands[0, :-1]
        blocks[block, slot, slot + 1] = self.bands[1, :-1]
        blocks[:, -1, -1] = self.bands[0, -1]
        blocks.setflags(write=False)
        return blocks

    def __matmul__(self, other):
        """D_a (D_d + D_w T) scales rows: D_{ad} + D_{aw} T. (D_d + D_w T) D_a
        scales columns (see :func:`_scale_input`). Any other product, of two
        general shifts or with a chain operator, gives NotImplemented, so
        Python raises TypeError."""
        if not isinstance(other, WeightedShift):
            return NotImplemented
        self._check(other)
        if not other.bands[1].any():
            return WeightedShift._wrap(self.grid, _scale_input(np.array(self.bands[None]), *other.bands, self.grid)[0])
        if not self.bands[1].any():
            return WeightedShift._wrap(self.grid, self.bands[0] * other.bands)
        return NotImplemented

    def apply(self, b: AlgebraElement) -> AlgebraElement:
        self._check(b)
        x = b.coordinates
        y = self.bands[0] * x
        y[:-1] += self.bands[1, :-1] * x[_next_index(self.grid)]
        return AlgebraElement._wrap(self.grid, y[:-1], y[-1])

    def operator_norm(self) -> float:
        """Induced sup-norm on coordinates: max absolute row sum |a| + |w|."""
        return _largest_row_sum(np.abs(self.bands[0]) + np.abs(self.bands[1]))


@lru_cache(maxsize=32)
def _next_index(grid: GridSpec) -> np.ndarray:
    """Where the unit shift moves each sample k: k+m, or the tail past the grid."""
    index = np.minimum(np.arange(grid.size) + grid.step_denominator, grid.size)
    index.setflags(write=False)
    return index


def _scale_input(bands: np.ndarray, a: np.ndarray, zero: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(D_d + D_w T) D_a for each weighted shift of a stack ``bands``
    (..., 2, dim), taken in place, and multiplications D_a given by their
    coordinates ``a`` and their band 1 ``zero`` (zero, up to the signs of
    its zeros), both broadcast against the stack: D_{da} + D_{w Ta} T,
    band 1 taking a at the next coordinate. Both bands are scaled by one
    product with the weights (a, a at the next coordinate), over the
    contiguous bands. A shift whose band 1 is zero is itself a
    multiplication D_d and scales the rows of D_a instead, its band 1
    becoming d times ``zero``, as ``WeightedShift.__matmul__`` has always
    taken it; the two differ in the signs of zeros and where d is
    infinite."""
    flat = ~bands[..., 1, :].view(float).any(axis=-1)
    flat_shift = bands[flat, 0] * np.broadcast_to(zero, flat.shape + zero.shape[-1:])[flat]
    weights = np.concatenate((a, a[..., _next_index(grid)], np.zeros(a.shape[:-1] + (1,))), axis=-1)
    joined = bands.reshape(bands.shape[:-2] + (-1,))
    np.multiply(joined, weights, out=joined)
    bands[..., 1, -1] = 0.0
    bands[flat, 1] = flat_shift
    return bands


def multiplication_operator(a: AlgebraElement) -> WeightedShift:
    """The operator b |-> a*b (equal to b |-> b*a; the algebra is commutative)."""
    bands = np.zeros((2, a.grid.dim), dtype=complex)
    bands[0] = a.coordinates
    return WeightedShift._wrap(a.grid, bands)


def kernel(u: FockUnit, v: FockUnit) -> WeightedShift:
    """The generator of the two-unit semigroup:
    (L b)(s) = conj(zeta_u(s)) * b(s+1) * zeta_v(s) + (conj(beta_u(s)) + beta_v(s)) * b(s),
    with the tail row acting on tails only; b(s+1) past the grid end is the tail.
    It is the one-pair case of :func:`kernel_stack`."""
    return WeightedShift._wrap(u.grid, kernel_stack((u,), (v,))[0, 0])


def kernel_stack(lefts, rights) -> np.ndarray:
    """The bands of K(u_i, v_j) for every u_i in ``lefts`` and v_j in
    ``rights``, as one array of shape (len(lefts), len(rights), 2, dim):
    conj(zeta_u) zeta_v in band 1 and conj(beta_u) + beta_v in band 0.
    Each pair's samples are written into the stack by one product and one
    sum (a broadcast over ``rights`` was no faster at the grids measured,
    and would copy their samples first), and its tail entry in scalar
    arithmetic, as numpy's array complex product can round differently
    from its scalar one. One +0 pass over the whole stack turns -0 parts
    into +0, as a sum started from zeros does, with 0 in the tail column,
    before the tails are written."""
    lefts, rights = list(lefts), list(rights)
    if not lefts:
        raise DomainError("kernel_stack needs at least one left unit")
    grid = lefts[0].grid
    if any(w.grid != grid for w in (*lefts, *rights)):
        raise GridMismatchError("units live on different grids")
    bands = np.empty((len(lefts), len(rights), 2, grid.dim), dtype=complex)
    tails = np.empty(bands.shape[:2], dtype=complex)
    for i, u in enumerate(lefts):
        conj_zeta, conj_beta = np.conj(u.zeta.samples), np.conj(u.beta.samples)
        conj_zeta_tail, conj_beta_tail = np.conj(u.zeta.tail), np.conj(u.beta.tail)
        for j, v in enumerate(rights):
            np.multiply(conj_zeta, v.zeta.samples, out=bands[i, j, 1, :-1])
            np.add(conj_beta, v.beta.samples, out=bands[i, j, 0, :-1])
            tails[i, j] = conj_zeta_tail * v.zeta.tail + conj_beta_tail + v.beta.tail
    bands[..., -1] = 0.0
    bands += 0.0
    bands[..., 0, -1] = tails
    return bands


def _scaled_bands(shift: WeightedShift) -> tuple[float, int, np.ndarray]:
    """The row-sum norm of a weighted shift, its squaring count s and its
    bands times 2^-s. s brings the norm to at most 1/2: none up to 1/2,
    else ceil(log2 norm) + 1."""
    norm = shift.operator_norm()
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix with non-finite entries or row sums (row-sum norm {norm})")
    squarings = int(math.ceil(math.log2(norm))) + 1 if norm > 0.5 else 0
    return norm, squarings, shift.bands * math.ldexp(1.0, -squarings)


def _square(result: np.ndarray, norm: float) -> np.ndarray:
    """One squaring step into a new stack; ``norm`` is the row-sum norm of
    the input, for the message when the square overflows."""
    result = np.matmul(result, result)
    if not np.isfinite(result.view(float)).all():
        raise ValueError(f"matrix exponential overflows (row-sum norm of the input {norm:.3g})")
    return result


def matrix_exponential(shift: WeightedShift, rel_tol: float = TAYLOR_TOLERANCE) -> np.ndarray:
    """Scaling-and-squaring exponential with a truncated Taylor series of a
    :class:`WeightedShift`, returned as chain blocks of shape (m, S+2, S+2).
    Any other input raises TypeError.

    The shift is scaled by a power of two until its row-sum norm is at
    most 1/2, the series is summed until the next term falls below
    ``rel_tol`` relative to the running sum, and the result is squared
    back up. A ``rel_tol`` that is NaN, infinite or negative raises
    DomainError before any work; at 0 only an exactly zero term stops the
    series, so most inputs end in RuntimeError. Norms are taken over the
    whole stack, so every chain block gets the scaling and the number of
    terms of the whole operator. Deterministic for fixed input. Raises
    ValueError on non-finite input and when the result overflows. The
    series runs in place (see the module docstring for why its bits do
    not change).

    The result has the bits of the plain loop on the chain blocks
    :attr:`WeightedShift.blocks`, which are never built unscaled. The
    row-sum norm is read from the bands: a block row has at most the two
    nonzeros a and w, so its float row sum is |a| + |w| in any order. The
    scaled stack is built from the bands times 2^-s, the very products of
    the on-band block entries times 2^-s, and every other entry is +0 in
    both. ``test_band_scaling_is_the_block_scaling`` and the reference
    tests in ``tests/test_chain_operators.py`` check both bit for bit.

    The working set is the scaled stack, the sum and two term buffers
    while the series runs; each squaring then holds the sum and its square.

    The stopping test ||term|| <= rel_tol ||sum|| takes its two row-sum
    norms only for a term whose largest |real or imaginary part| is at
    most 2 rel_tol, and this cannot move the stop. The scaled stack has
    row-sum norm at most 1/2, up to the rounding of log2, so the sum,
    within rounding of a partial sum of exp(scaled), has a computed norm
    below e^(1/2) + rounding < 2, and for rel_tol >= 0,
    rel_tol ||sum|| <= 2 rel_tol in floats (rounding is monotone and
    doubling exact). A float row sum of moduli is never below one of its
    moduli, and a modulus, computed by hypot, is never below |real part|
    or |imaginary part|. So a term with a part above 2 rel_tol has
    ||term|| > 2 rel_tol >= rel_tol ||sum|| and fails the test.
    """
    if not isinstance(shift, WeightedShift):
        raise TypeError(f"matrix_exponential takes a WeightedShift, got {type(shift).__name__}")
    _require_tolerance(rel_tol, "Taylor tolerance rel_tol")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises ValueError below instead
        norm, squarings, bands = _scaled_bands(shift)
        scaled = WeightedShift._wrap(shift.grid, bands).blocks
        d = scaled.shape[-1]
        result = np.zeros(scaled.shape, dtype=complex)
        result.reshape(-1, d * d)[:, :: d + 1] = 1.0
        term, spare = scaled.copy(), np.empty_like(scaled)  # term 1 is scaled / 1
        parts = term.view(float)
        for k in range(1, 64):
            if k > 1:
                np.matmul(term, scaled, out=spare)
                term, spare = spare, term
                parts = term.view(float)
                parts *= 1.0 / k
            result += term
            if max(parts.max(), -parts.min()) <= 2.0 * rel_tol and _inf_norm(term) <= rel_tol * _inf_norm(result):
                break
        else:
            raise RuntimeError("matrix exponential series did not converge in 64 terms")
        del scaled, term, spare, parts  # the squarings need only the sum
        for _ in range(squarings):
            result = _square(result, norm)
    return result


def blas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS picked for this host, or
    "unknown". Products of chain blocks round as that kernel does."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the library numpy already loaded, so its state
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def semigroups(u: FockUnit, v: FockUnit, times, rel_tol: float = TAYLOR_TOLERANCE) -> dict:
    """exp(t * kernel(u, v)) for every t >= 0 in ``times``, taken block by
    block and keyed by float(t). A ``rel_tol`` that is NaN, negative or
    +inf, or a time that is NaN or negative, raises DomainError before any
    work; a time of +inf raises it after every finite time, so that a law
    residual whose two huge times sum to +inf reports their overflow
    (ValueError).

    The times are taken in ascending order, so the squaring count s(t)
    never falls. A time whose scaled stack (tL) 2^-s(t) equals that of an
    earlier time h to the bit gets exp(hL) squared s(t) - s(h) more
    times, or exp(hL) itself when s(t) = s(h); any other time runs
    ``matrix_exponential`` on tL as a weighted shift, which builds only
    the scaled chain stack. Norms and scaled stacks are read from the
    bands of tL, with the bits of its chain blocks (see
    :func:`matrix_exponential`). Each returned operator is one chain
    stack; a fresh exponential adds at most four while it runs, and a
    squaring one.
    """
    _require_tolerance(rel_tol, "Taylor tolerance rel_tol")
    times = sorted({float(t) for t in times})
    for t in times:
        if not t >= 0:  # a NaN too, which would leave the times unsorted
            raise DomainError(f"time must be finite and nonnegative, got {t}")
    generator = kernel(u, v)
    exps: dict = {}
    latest: dict = {}  # scaled bands -> (squarings, latest exponential)
    with np.errstate(over="ignore", invalid="ignore"):  # matrix_exponential rejects what overflows
        for t in times:
            if t == math.inf:  # the last time, so a finite one that overflows raises first
                raise DomainError(f"time must be finite and nonnegative, got {t}")
            shift = WeightedShift._wrap(u.grid, t * generator.bands)
            norm, squarings, scaled = _scaled_bands(shift)
            key = scaled.tobytes()
            earlier, operator = latest.get(key, (squarings, None))
            if operator is None or squarings > earlier:
                blocks = matrix_exponential(shift, rel_tol=rel_tol) if operator is None else operator.blocks
                for _ in range(squarings - earlier):
                    blocks = _square(blocks, norm)
                operator = KernelOperator._wrap(u.grid, _clear_pads(blocks))
            latest[key] = (squarings, operator)
            exps[t] = operator
    return exps


def semigroup(u: FockUnit, v: FockUnit, t: float) -> KernelOperator:
    """exp(t * kernel(u, v)) for t >= 0, taken block by block at TAYLOR_TOLERANCE."""
    return semigroups(u, v, [t])[float(t)]


def semigroup_law_residual(u: FockUnit, v: FockUnit, times, rel_tol: float = TAYLOR_TOLERANCE, extra_times=()) -> tuple[float, dict]:
    """max over s, t in ``times`` of ||exp((s+t)L) - exp(sL) exp(tL)|| for
    L = kernel(u, v), and the exponentials it took, keyed by time: those
    at ``times``, at their pairwise sums and at ``extra_times``, all
    taken by one :func:`semigroups` call.

    Two kinds of pair are skipped, as their residual is 0.0 to the bit.
    A pair (s, s) whose 2sL has the scaled bands of sL and one squaring
    more: :func:`semigroups` built exp(2sL) as exactly the product
    exp(sL) exp(sL). And a pair with a zero time: exp(0L) is the identity
    to the bit, so its product with X has the entries of X, up to the
    sign of a zero, and X = exp((s+t)L) itself. Every other pair is
    formed and measured, its difference and norm one chain block at a
    time.
    """
    times = [float(t) for t in times]
    if not times:
        raise DomainError("times must hold at least one time; an empty one would check nothing")
    exps = semigroups(u, v, [*times, *(s + t for s in times for t in times), *extra_times], rel_tol=rel_tol)
    bands = kernel(u, v).bands
    worst = 0.0
    for s in times:
        _, squarings, scaled = _scaled_bands(WeightedShift._wrap(u.grid, s * bands))
        _, doubled, scaled_2s = _scaled_bands(WeightedShift._wrap(u.grid, (s + s) * bands))
        squared = doubled == squarings + 1 and scaled_2s.tobytes() == scaled.tobytes()
        for t in times:
            if s != 0.0 and t != 0.0 and not (t == s and squared):
                worst = max(worst, _inf_norm(exps[s + t].blocks, (exps[s] @ exps[t]).blocks))
    return worst, exps


def gram_matrices(units, times, bs) -> np.ndarray:
    """The Gram matrices of ``units`` at every t in ``times`` and every b in
    ``bs``, as one complex stack of shape (len(times), len(bs), dim, k, k):
    entry [a, c, p, i, j] is coordinate p of exp(times[a] * kernel(u_i,
    u_j)) applied to bs[c]. Each pair's exponentials come from one
    :func:`semigroups` call and are applied to every b. Each b must be
    positive for the positivity check downstream to be meaningful."""
    units, times, bs = list(units), [float(t) for t in times], list(bs)
    if not all(b.is_positive() for b in bs):
        raise DomainError("gram_matrices needs positive elements b")
    if not units:
        raise DomainError("gram_matrices needs at least one unit")
    k = len(units)
    grams = np.empty((len(times), len(bs), units[0].grid.dim, k, k), dtype=complex)
    for i, ui in enumerate(units):
        for j, uj in enumerate(units):
            exps = semigroups(ui, uj, times)
            for a, t in enumerate(times):
                for c, b in enumerate(bs):
                    grams[a, c, :, i, j] = exps[t].apply(b).coordinates
    return grams


@dataclass(frozen=True)
class GramReport:
    """Pointwise minimum eigenvalues of a unit Gram matrix; ``entries``
    holds one {"grid_point", "min_eigenvalue"} dict per coordinate."""

    passed: bool
    min_eigenvalue: float
    argmin_point: object
    entries: list


def gram_psd_check(grid: GridSpec, gram: np.ndarray, tol: float) -> GramReport:
    """Check that the (grid.dim, k, k) stack ``gram`` of numeric matrices
    [G_ij(s)] is PSD at every grid point and at the tail, up to ``tol``;
    it must be Hermitian up to tol at every coordinate. A ``tol`` that is
    NaN, infinite or negative raises DomainError."""
    _require_tolerance(tol, "gram tolerance")
    k = np.shape(gram)[-1] if np.ndim(gram) else 0
    if not k or np.shape(gram) != (grid.dim, k, k):
        raise ValueError(f"gram must be a ({grid.dim}, k, k) stack with k >= 1, got shape {np.shape(gram)}")
    adjoint = np.conj(np.transpose(gram, (0, 2, 1)))
    offending = np.argwhere(np.abs(gram - adjoint).max(axis=0) > tol)
    if len(offending):
        i, j = offending[0]
        raise ValueError(f"gram matrix is not Hermitian up to {tol} at entry ({i}, {j})")
    minima = np.linalg.eigvalsh(0.5 * (gram + adjoint))[:, 0]
    labels = [float(s) for s in grid.points()] + ["tail"]
    entries = [{"grid_point": label, "min_eigenvalue": float(value)} for label, value in zip(labels, minima)]
    worst = int(np.argmin(minima))
    least = float(minima[worst])
    return GramReport(judge(least, tol, floor=True)[0], least, labels[worst], entries)
