"""Continuous units of the time-ordered product system over F = B with
left action by the unit shift, their two-point kernels, and the associated
operator semigroups.

A unit is parameterized by a pair (zeta, beta) of algebra elements. The
kernel of two units acts on the algebra as

    b  |->  conj(zeta(s)) * b(s + 1) * zeta'(s) + (conj(beta(s)) + beta'(s)) * b(s),

which on coordinate vectors (samples..., tail) couples sample k only to
itself and to sample k+m (the unit shift), or to the tail once k+m is past
the grid. The coordinates therefore split into m residue chains
r, r+m, r+2m, ... that all end in the shared tail, a sink that feeds only
itself. Each chain with the tail has S+2 slots; chain 0 has S+1 samples
and the others S, so each of those carries one pad slot that stays
exactly zero.

Operators come in two forms over this chain layout:

- :class:`WeightedShift` is D_a + D_w T, a multiplication operator plus a
  weighted shift to the next slot of the chain, stored as two coefficients
  per slot. Kernels and multiplication operators have this form, and so do
  their sums and their products with multiplication operators.
- :class:`KernelOperator` stores one (S+2) x (S+2) block per chain. It
  holds everything else: exponentials (one batched scaling-and-squaring
  over the m blocks), products of two shifts, and whatever is mixed with
  them. A weighted shift turns into chain blocks when it meets one.

Arithmetic in either form is exact.

:func:`semigroups` takes exp(tL) for many times t at once, and
:func:`semigroup` is its one-time case. The exponential scales tL by
2^-s(t), with s(t) the least count that brings the row-sum norm to 1/2
or below, sums a Taylor series of the scaled stack and squares the sum
s(t) times. Scaling by a power of two is exact, so when h = t/2^k and
s(h) = s(t) - k, the scaled stacks of hL and tL are usually the same to
the bit (the code checks that they are), and so are their Taylor sums.
exp(tL) is then exp(hL) squared k more times: the very float operations
a fresh exponential of tL would run. The pad entries that exp(hL) has
cleared meet only zeros in a product, so they change no bit either.

The Taylor sum runs in place and gives the bits of the plain loop
term_k = term_{k-1} @ A / k, sum = sum + term_k. Term k is computed into
a preallocated buffer and both its float parts are multiplied by 1/k,
which on a nonzero part is the complex quotient x / (k + 0j) to the bit.
Only the sign of a zero part can differ, and a signed zero changes no
nonzero entry of a later product or sum. The sum starts from the
identity, +0 off the diagonal, so it never holds -0 and its bits are the
same. The stopping test ||term|| <= rel_tol ||sum|| needs the norm of
the sum only once ||term|| <= rel_tol (1 + sum of the term norms), a
bound on ||sum|| taken with a factor 1 + 1e-10 against rounding, so the
loop stops at the same term. An all-zero stack gives the identity at
once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, GridMismatchError, GridSpec, constant

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
    "matrix_exponential",
    "semigroup",
    "semigroups",
    "semigroup_law_residual",
    "apply",
    "operator_norm",
    "gram_matrix",
    "gram_matrices",
    "GramReport",
    "gram_psd_check",
    "kernel_to_csv",
]


class UnsupportedParameterError(ValueError):
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

    def __repr__(self) -> str:
        return f"FockUnit(zeta={self.zeta!r}, beta={self.beta!r})"


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
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"particle count must be a nonnegative integer, got {self.n!r}")


def left_action(b: AlgebraElement, x: NParticleVector) -> NParticleVector:
    """b . x = shift(b, n) * x, the twisted module action."""
    if b.grid != x.value.grid:
        raise GridMismatchError("left_action operands must share one grid")
    return NParticleVector(x.n, b.shift(x.n) * x.value)


def module_inner(x: NParticleVector, y: NParticleVector) -> AlgebraElement:
    """<x, y> = star(x.value) * y.value for equal particle counts."""
    if x.n != y.n:
        raise ValueError(f"particle-count mismatch: {x.n} vs {y.n}")
    if x.value.grid != y.value.grid:
        raise GridMismatchError("module_inner operands must share one grid")
    return x.value.star() * y.value


def unit_component(u: FockUnit, n: int) -> NParticleVector:
    """The n-particle component of a unit with beta = 0:
    value(s) = zeta(s) * zeta(s+1) * ... * zeta(s+n-1); n = 0 gives 1."""
    if np.any(u.beta.samples != 0) or u.beta.tail != 0:
        raise UnsupportedParameterError("components are only available for units with beta = 0")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"particle count must be a nonnegative integer, got {n!r}")
    value = constant(u.grid, 1.0)
    for k in range(n):
        value = value * u.zeta.shift(k)
    return NParticleVector(int(n), value)


def _block_shape(grid: GridSpec) -> tuple[int, int, int]:
    chain = grid.domain_end + 2
    return (grid.step_denominator, chain, chain)


def _band_shape(grid: GridSpec) -> tuple[int, int, int]:
    return (2, grid.step_denominator, grid.domain_end + 2)


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


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """A bounded operator on the discretized algebra that maps every residue
    chain into itself and the tail, stored as m chain blocks.

    ``blocks`` has shape (m, S+2, S+2). Block r acts on the chain of sample
    indices r, r+m, r+2m, ... followed by the tail: sample k sits in block
    k mod m at slot ceil(k/m), and slot S+1 of every block is the shared
    tail, a sink whose row holds only its own diagonal entry, the same in
    every block. Chain 0 fills slots 0..S. Chains r >= 1 have S samples in
    slots 1..S, so their slot 0 is a pad whose row and column are exactly
    zero, in every stored operator. Kernels, multiplication operators, and
    their sums, products and exponentials all have this form, so the
    block-wise arithmetic is exact. Arrays passed in are checked, copied
    and frozen.
    """

    grid: GridSpec
    blocks: np.ndarray

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

    @classmethod
    def _wrap(cls, grid: GridSpec, blocks: np.ndarray) -> "KernelOperator":
        """An operator over blocks this module has just computed: frozen,
        neither checked nor copied."""
        blocks.setflags(write=False)
        operator = object.__new__(cls)
        object.__setattr__(operator, "grid", grid)
        object.__setattr__(operator, "blocks", blocks)
        return operator

    def __repr__(self) -> str:
        return f"KernelOperator(m={self.grid.step_denominator}, S={self.grid.domain_end}, norm={self.operator_norm():.6g})"

    @classmethod
    def identity(cls, grid: GridSpec) -> "KernelOperator":
        m, chain, _ = _block_shape(grid)
        return cls._wrap(grid, _clear_pads(np.tile(np.eye(chain, dtype=complex), (m, 1, 1))))

    @classmethod
    def zero(cls, grid: GridSpec) -> "KernelOperator":
        return cls._wrap(grid, np.zeros(_block_shape(grid), dtype=complex))

    def _check(self, other: "KernelOperator") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("operators act on different grids")

    def __add__(self, other: "KernelOperator") -> "KernelOperator":
        self._check(other)
        return KernelOperator._wrap(self.grid, self.blocks + other.blocks)

    def __sub__(self, other: "KernelOperator") -> "KernelOperator":
        self._check(other)
        return KernelOperator._wrap(self.grid, self.blocks - other.blocks)

    def __neg__(self) -> "KernelOperator":
        return KernelOperator._wrap(self.grid, -self.blocks)

    def __mul__(self, scalar) -> "KernelOperator":
        return KernelOperator._wrap(self.grid, self.blocks * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "KernelOperator") -> "KernelOperator":
        self._check(other)
        return KernelOperator._wrap(self.grid, np.matmul(self.blocks, other.blocks))

    def apply(self, b: AlgebraElement) -> AlgebraElement:
        x = _chain_vectors(self.grid, b)
        return _from_chain_vectors(self.grid, np.matmul(self.blocks, x[..., None])[..., 0])

    def operator_norm(self) -> float:
        """Induced sup-norm on coordinates: max absolute row sum."""
        return _inf_norm(self.blocks)

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


def _inf_norm(matrix: np.ndarray) -> float:
    """Max absolute row sum, over every matrix of a stack."""
    return float(np.max(np.sum(np.abs(matrix), axis=-1)))


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
class WeightedShift:
    """The operator D_a + D_w T on the discretized algebra: multiplication
    by a plus multiplication by w after the shift T to the next slot of the
    same residue chain (the tail after a chain's last sample).

    ``bands`` has shape (2, m, S+2) in the chain-slot layout of
    :class:`KernelOperator`: band 0 slot i is block entry (i, i) and band 1
    slot i is block entry (i, i+1). Band 1 slot S+1 is zero, because the
    tail feeds only itself, and the tail entry of band 0 is the same in
    every chain. The pad slot 0 of chains r >= 1 is zero in both bands.
    Kernels and multiplication operators have this form, and it is closed
    under sums, scalar multiples and products with a multiplication
    operator on either side. A product of two shifts, and anything mixed
    with a :class:`KernelOperator`, is computed on chain blocks. Arrays
    passed in are checked, copied and frozen.
    """

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
    def _wrap(cls, grid: GridSpec, bands: np.ndarray) -> "WeightedShift":
        """A shift over bands this module has just computed: frozen,
        neither checked nor copied."""
        bands.setflags(write=False)
        operator = object.__new__(cls)
        object.__setattr__(operator, "grid", grid)
        object.__setattr__(operator, "bands", bands)
        return operator

    @classmethod
    def zero(cls, grid: GridSpec) -> "WeightedShift":
        return cls._wrap(grid, np.zeros(_band_shape(grid), dtype=complex))

    def __repr__(self) -> str:
        return f"WeightedShift(m={self.grid.step_denominator}, S={self.grid.domain_end}, norm={self.operator_norm():.6g})"

    @property
    def blocks(self) -> np.ndarray:
        """The chain blocks of :class:`KernelOperator`, upper bidiagonal."""
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
        if not isinstance(other, WeightedShift):
            return self._chain_operator() + other
        self._check(other)
        return WeightedShift._wrap(self.grid, self.bands + other.bands)

    def __sub__(self, other):
        if not isinstance(other, WeightedShift):
            return self._chain_operator() - other
        self._check(other)
        return WeightedShift._wrap(self.grid, self.bands - other.bands)

    def __neg__(self) -> "WeightedShift":
        return WeightedShift._wrap(self.grid, -self.bands)

    def __mul__(self, scalar) -> "WeightedShift":
        return WeightedShift._wrap(self.grid, self.bands * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        """D_a (D_d + D_w T) scales rows: D_{ad} + D_{aw} T. (D_d + D_w T) D_a
        scales columns: D_{da} + D_{w Ta} T, band 1 taking the next slot's a.
        Any other product is taken on chain blocks."""
        if not isinstance(other, WeightedShift):
            return self._chain_operator() @ other
        self._check(other)
        if not np.any(self.bands[1]):
            return WeightedShift._wrap(self.grid, self.bands[0] * other.bands)
        if not np.any(other.bands[1]):
            a = other.bands[0]
            bands = np.zeros_like(self.bands)
            bands[0] = self.bands[0] * a
            bands[1, :, :-1] = self.bands[1, :, :-1] * a[:, 1:]
            return WeightedShift._wrap(self.grid, bands)
        return self._chain_operator() @ other._chain_operator()

    def apply(self, b: AlgebraElement) -> AlgebraElement:
        x = _chain_vectors(self.grid, b)
        y = self.bands[0] * x
        y[:, :-1] += self.bands[1, :, :-1] * x[:, 1:]
        return _from_chain_vectors(self.grid, y)

    def operator_norm(self) -> float:
        """Induced sup-norm on coordinates: max absolute row sum |a| + |w|."""
        return float(np.max(np.abs(self.bands[0]) + np.abs(self.bands[1])))

    def to_dense(self) -> np.ndarray:
        """The dim x dim matrix acting on coordinate vectors (samples..., tail)."""
        grid = self.grid
        n = grid.size
        block, slot = _chain_layout(grid)
        k = np.arange(n)
        dense = np.zeros((grid.dim, grid.dim), dtype=complex)
        dense[k, k] = self.bands[0, block, slot]
        dense[k, np.minimum(k + grid.step_denominator, n)] = self.bands[1, block, slot]
        dense[n, n] = self.bands[0, 0, -1]
        return dense


def multiplication_operator(a: AlgebraElement) -> WeightedShift:
    """The operator b |-> a*b (equal to b |-> b*a; the algebra is commutative)."""
    grid = a.grid
    block, slot = _chain_layout(grid)
    bands = np.zeros(_band_shape(grid), dtype=complex)
    bands[0, block, slot] = a.samples
    bands[0, :, -1] = a.tail
    return WeightedShift._wrap(grid, bands)


def kernel(u: FockUnit, v: FockUnit) -> WeightedShift:
    """The generator of the two-unit semigroup:
    (L b)(s) = conj(zeta_u(s)) * b(s+1) * zeta_v(s) + (conj(beta_u(s)) + beta_v(s)) * b(s),
    with the tail row acting on tails only. In chain form b(s+1) is the
    next slot of the same chain, which is the tail after the last sample."""
    if u.grid != v.grid:
        raise GridMismatchError("units live on different grids")
    grid = u.grid
    block, slot = _chain_layout(grid)
    bands = np.zeros(_band_shape(grid), dtype=complex)
    # Added to zeros rather than assigned, so signed zeros come out as +0.
    bands[1, block, slot] += np.conj(u.zeta.samples) * v.zeta.samples
    bands[0, block, slot] += np.conj(u.beta.samples) + v.beta.samples
    bands[0, :, -1] = np.conj(u.zeta.tail) * v.zeta.tail + np.conj(u.beta.tail) + v.beta.tail
    return WeightedShift._wrap(grid, bands)


def _scaling(norm: float) -> int:
    """The number of squarings that bring a row-sum norm to at most 1/2:
    none up to 1/2, else ceil(log2 norm) + 1."""
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix with non-finite entries or row sums (row-sum norm {norm})")
    return int(math.ceil(math.log2(norm))) + 1 if norm > 0.5 else 0


def _square(result: np.ndarray, norm: float) -> np.ndarray:
    """One squaring step; ``norm`` is the row-sum norm of the input, for
    the message when the square overflows."""
    result = result @ result
    if not np.isfinite(result.view(float)).all():
        raise ValueError(f"matrix exponential overflows (row-sum norm of the input {norm:.3g})")
    return result


def matrix_exponential(matrix: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Scaling-and-squaring exponential with a truncated Taylor series, of
    one square matrix or of each matrix of a stack of shape (..., d, d).

    The input is scaled by a power of two until its row-sum norm is at
    most 1/2, the series is summed until the next term falls below
    ``rel_tol`` relative to the running sum, and the result is squared
    back up. Norms are taken over the whole stack, so the diagonal blocks
    of a block-diagonal matrix get the scaling and the number of terms the
    whole matrix would. Deterministic for fixed input. Raises ValueError
    on non-finite input and when the result overflows. The series runs in
    place (see the module docstring for why its bits do not change).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    d = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises ValueError below instead
        norm = _inf_norm(a)
        squarings = _scaling(norm)
        result = np.zeros(a.shape, dtype=complex)
        result.reshape(-1, d * d)[:, :: d + 1] = 1.0
        if norm == 0.0:
            return result
        scaled = a * math.ldexp(1.0, -squarings)
        term, spare = scaled.copy(), np.empty_like(scaled)  # term 1 is scaled / 1
        term_norms = 0.0
        for k in range(1, 64):
            if k > 1:
                np.matmul(term, scaled, out=spare)
                term, spare = spare, term
                parts = term.view(float)
                parts *= 1.0 / k
            result += term
            term_norm = _inf_norm(term)
            term_norms += term_norm
            if term_norm <= rel_tol * (1.0 + term_norms) * (1.0 + 1e-10) and term_norm <= rel_tol * _inf_norm(result):
                break
        else:
            raise RuntimeError("matrix exponential series did not converge in 64 terms")
        for _ in range(squarings):
            result = _square(result, norm)
    return result


def semigroups(u: FockUnit, v: FockUnit, times, rel_tol: float = 1e-12) -> dict:
    """exp(t * kernel(u, v)) for every t >= 0 in ``times``, taken block by
    block and keyed by float(t); each distinct time is exponentiated once.

    The times are taken in ascending order. When an earlier time h =
    t / 2^k gets k squarings fewer and a scaled stack (hL) 2^-s(h) equal to
    the bit to (tL) 2^-s(t), ``matrix_exponential`` would run the same
    Taylor sum for t as for h, and exp(tL) is exp(hL) squared k more
    times; otherwise ``matrix_exponential`` runs. Norms and scaled stacks
    are read from the bands of tL: a block row has at most the two
    nonzeros a and w, so its row sum is |a| + |w| in any order, and the
    other block entries are +0 for every t >= 0. The chain blocks are
    built only for a fresh exponential.
    """
    times = sorted({float(t) for t in times})
    for t in times:
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
    generator = kernel(u, v)
    exps: dict = {}
    scalings: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # matrix_exponential rejects what overflows
        for t in times:
            shift = WeightedShift._wrap(u.grid, t * generator.bands)
            norm = shift.operator_norm()
            squarings = _scaling(norm)
            scaled = (shift.bands * math.ldexp(1.0, -squarings)).view(np.uint64)
            blocks = _square_of_earlier(exps, scalings, t, squarings, scaled, norm)
            if blocks is None:
                blocks = matrix_exponential(shift.blocks, rel_tol=rel_tol)
            scalings[t] = (squarings, scaled)
            exps[t] = KernelOperator._wrap(u.grid, _clear_pads(blocks))
    return exps


def _square_of_earlier(exps: dict, scalings: dict, t: float, squarings: int, scaled: np.ndarray, norm: float) -> np.ndarray | None:
    """exp(tL) as exps[h] squared k times, for the nearest earlier time
    h = t / 2^k with s(t) - k squarings and the same scaled bands bit for
    bit (``scalings`` holds both for every earlier time; the bits are
    compared as integers, so signed zeros count); None when there is none.
    The pads of exps[h] are cleared, which changes no bit of the other
    entries of its squares."""
    for k in range(1, squarings + 1):
        h = math.ldexp(t, -k)
        if h in scalings and scalings[h][0] == squarings - k and np.array_equal(scalings[h][1], scaled):
            result = exps[h].blocks
            for _ in range(k):
                result = _square(result, norm)
            return result
    return None


def semigroup(u: FockUnit, v: FockUnit, t: float, rel_tol: float = 1e-12) -> KernelOperator:
    """exp(t * kernel(u, v)) for t >= 0, taken block by block."""
    return semigroups(u, v, [t], rel_tol=rel_tol)[float(t)]


def semigroup_law_residual(u: FockUnit, v: FockUnit, times, rel_tol: float = 1e-12, extra_times=()) -> tuple[float, dict]:
    """max over s, t in ``times`` of ||exp((s+t)L) - exp(sL) exp(tL)|| for
    L = kernel(u, v), and the exponentials it took, keyed by time: those
    at ``times``, at their pairwise sums and at ``extra_times``, each
    distinct time exponentiated once by :func:`semigroups`."""
    times = [float(t) for t in times]
    exps = semigroups(u, v, [*times, *(s + t for s in times for t in times), *extra_times], rel_tol=rel_tol)
    worst = 0.0
    for s in times:
        for t in times:
            worst = max(worst, (exps[s + t] - exps[s] @ exps[t]).operator_norm())
    return worst, exps


def apply(operator: KernelOperator | WeightedShift, b: AlgebraElement) -> AlgebraElement:
    return operator.apply(b)


def operator_norm(operator: KernelOperator | WeightedShift) -> float:
    return operator.operator_norm()


def gram_matrices(units, times, bs) -> list:
    """The Gram matrices of ``units`` at every t in ``times`` and every b in
    ``bs``: entry [k][l] has (i, j) entry exp(times[k] * kernel(u_i, u_j))
    applied to bs[l]. Each pair's exponentials come from one
    :func:`semigroups` call and are applied to every b. Each b must be
    positive for the positivity check downstream to be meaningful."""
    units, times, bs = list(units), [float(t) for t in times], list(bs)
    if not all(b.is_positive() for b in bs):
        raise ValueError("gram_matrix needs a positive element b")
    grams = [[[[None] * len(units) for _ in units] for _ in bs] for _ in times]
    for i, ui in enumerate(units):
        for j, uj in enumerate(units):
            exps = semigroups(ui, uj, times)
            for row, t in zip(grams, times):
                for gram, b in zip(row, bs):
                    gram[i][j] = exps[t].apply(b)
    return grams


def gram_matrix(units, t: float, b: AlgebraElement) -> list:
    """The matrix with (i, j) entry exp(t*kernel(u_i, u_j)) applied to b;
    b must be positive for the positivity check downstream to be meaningful."""
    return gram_matrices(units, [t], [b])[0][0]


@dataclass(frozen=True)
class GramReport:
    """Pointwise minimum eigenvalues of a unit Gram matrix."""

    passed: bool
    min_eigenvalue: float
    argmin_point: object
    entries: tuple

    def json_entries(self) -> list:
        return [{"grid_point": point, "min_eigenvalue": value} for point, value in self.entries]


def gram_psd_check(gram, tol: float) -> GramReport:
    """Check that the numeric matrix [G_ij(s)] is PSD at every grid point
    and at the tail, up to ``tol``; the input must be Hermitian up to tol."""
    k = len(gram)
    if any(len(row) != k for row in gram):
        raise ValueError("gram matrix must be square")
    if k == 0:
        return GramReport(True, 0.0, None, ())
    grid = gram[0][0].grid
    for i in range(k):
        for j in range(k):
            if (gram[i][j] - gram[j][i].star()).sup_norm() > tol:
                raise ValueError(f"gram matrix is not Hermitian up to {tol} at entry ({i}, {j})")
    stacked = np.empty((grid.dim, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            stacked[:, i, j] = gram[i][j].coordinates
    hermitized = 0.5 * (stacked + np.conj(np.transpose(stacked, (0, 2, 1))))
    eigenvalues = np.linalg.eigvalsh(hermitized)
    minima = eigenvalues[:, 0]
    labels = [float(s) for s in grid.points()] + ["tail"]
    entries = tuple((labels[p], float(minima[p])) for p in range(grid.dim))
    worst = int(np.argmin(minima))
    return GramReport(bool(minima[worst] >= -tol), float(minima[worst]), labels[worst], entries)


def kernel_to_csv(operator: KernelOperator | WeightedShift, path) -> None:
    """Dense matrix dump for debugging; one complex entry per cell."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in operator.to_dense():
            writer.writerow([str(z) for z in row])
