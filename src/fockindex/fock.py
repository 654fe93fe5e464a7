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
itself. Kernels, multiplication operators, and their sums, products and
exponentials map each chain into itself and the tail, so a
:class:`KernelOperator` stores one (S+2) x (S+2) block per chain instead
of a dense dim x dim matrix. Chain 0 has S+1 samples and the others S, so
each of those carries one pad slot whose row and column stay exactly zero.
Block-wise arithmetic is exact, and the exponential is one batched
scaling-and-squaring over the m blocks.
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
    "vacuum_unit",
    "generator_unit",
    "left_action",
    "module_inner",
    "unit_component",
    "multiplication_operator",
    "kernel",
    "matrix_exponential",
    "semigroup",
    "semigroup_law_residual",
    "apply",
    "operator_norm",
    "gram_matrix",
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
        if b.grid != self.grid:
            raise GridMismatchError("operand lives on a different grid")
        block, slot = _chain_layout(self.grid)
        x = np.zeros(self.blocks.shape[:2], dtype=complex)
        x[block, slot] = b.samples
        x[:, -1] = b.tail
        y = np.matmul(self.blocks, x[..., None])[..., 0]
        return AlgebraElement(self.grid, y[block, slot], y[0, -1])

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


def multiplication_operator(a: AlgebraElement) -> KernelOperator:
    """The operator b |-> a*b (equal to b |-> b*a; the algebra is commutative)."""
    grid = a.grid
    block, slot = _chain_layout(grid)
    blocks = np.zeros(_block_shape(grid), dtype=complex)
    blocks[block, slot, slot] = a.samples
    blocks[:, -1, -1] = a.tail
    return KernelOperator._wrap(grid, blocks)


def kernel(u: FockUnit, v: FockUnit) -> KernelOperator:
    """The generator of the two-unit semigroup:
    (L b)(s) = conj(zeta_u(s)) * b(s+1) * zeta_v(s) + (conj(beta_u(s)) + beta_v(s)) * b(s),
    with the tail row acting on tails only. In chain form b(s+1) is the
    next slot of the same chain, which is the tail after the last sample."""
    if u.grid != v.grid:
        raise GridMismatchError("units live on different grids")
    grid = u.grid
    block, slot = _chain_layout(grid)
    blocks = np.zeros(_block_shape(grid), dtype=complex)
    # Added to zeros rather than assigned, so signed zeros come out as +0.
    blocks[block, slot, slot + 1] += np.conj(u.zeta.samples) * v.zeta.samples
    blocks[block, slot, slot] += np.conj(u.beta.samples) + v.beta.samples
    blocks[:, -1, -1] = np.conj(u.zeta.tail) * v.zeta.tail + np.conj(u.beta.tail) + v.beta.tail
    return KernelOperator._wrap(grid, blocks)


def matrix_exponential(matrix: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Scaling-and-squaring exponential with a truncated Taylor series, of
    one square matrix or of each matrix of a stack of shape (..., d, d).

    The input is scaled by a power of two until its row-sum norm is at
    most 1/2, the series is summed until the next term falls below
    ``rel_tol`` relative to the running sum, and the result is squared
    back up. Norms are taken over the whole stack, so the diagonal blocks
    of a block-diagonal matrix get the scaling and the number of terms the
    whole matrix would. Deterministic for fixed input. Raises ValueError
    on non-finite input and when the result overflows.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises ValueError below instead
        norm = _inf_norm(a)
        if not math.isfinite(norm):
            raise ValueError(f"cannot exponentiate a matrix with non-finite entries or row sums (row-sum norm {norm})")
        squarings = 0
        if norm > 0.5:
            squarings = int(math.ceil(math.log2(norm))) + 1
        scaled = a * math.ldexp(1.0, -squarings)
        identity = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
        result = identity.copy()
        term = identity
        for k in range(1, 64):
            term = term @ scaled / k
            result = result + term
            if _inf_norm(term) <= rel_tol * _inf_norm(result):
                break
        else:
            raise RuntimeError("matrix exponential series did not converge in 64 terms")
        for _ in range(squarings):
            result = result @ result
            if not np.all(np.isfinite(result)):
                raise ValueError(f"matrix exponential overflows (row-sum norm of the input {norm:.3g})")
    return result


def semigroup(u: FockUnit, v: FockUnit, t: float, rel_tol: float = 1e-12) -> KernelOperator:
    """exp(t * kernel(u, v)) for t >= 0, taken block by block."""
    t = float(t)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    generator = kernel(u, v)
    with np.errstate(over="ignore", invalid="ignore"):  # matrix_exponential rejects what overflows
        scaled = t * generator.blocks
    return KernelOperator._wrap(u.grid, _clear_pads(matrix_exponential(scaled, rel_tol=rel_tol)))


def semigroup_law_residual(u: FockUnit, v: FockUnit, times, rel_tol: float = 1e-12) -> tuple[float, dict]:
    """max over s, t in ``times`` of ||exp((s+t)L) - exp(sL) exp(tL)|| for
    L = kernel(u, v), and the exponentials it took, keyed by time. Each
    distinct time is exponentiated once."""
    times = list(times)
    exps: dict = {}

    def at(t: float) -> KernelOperator:
        if t not in exps:
            exps[t] = semigroup(u, v, t, rel_tol=rel_tol)
        return exps[t]

    for t in times:
        at(t)
    worst = 0.0
    for s in times:
        for t in times:
            worst = max(worst, (at(s + t) - exps[s] @ exps[t]).operator_norm())
    return worst, exps


def apply(operator: KernelOperator, b: AlgebraElement) -> AlgebraElement:
    return operator.apply(b)


def operator_norm(operator: KernelOperator) -> float:
    return operator.operator_norm()


def gram_matrix(units, t: float, b: AlgebraElement) -> list:
    """The matrix with (i, j) entry exp(t*kernel(u_i, u_j)) applied to b;
    b must be positive for the positivity check downstream to be meaningful."""
    if not b.is_positive():
        raise ValueError("gram_matrix needs a positive element b")
    units = list(units)
    return [[semigroup(ui, uj, t).apply(b) for uj in units] for ui in units]


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


def kernel_to_csv(operator: KernelOperator, path) -> None:
    """Dense matrix dump for debugging; one complex entry per cell."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in operator.to_dense():
            writer.writerow([str(z) for z in row])
