"""Grid-sampled model of the commutative unital C*-algebra of continuous
functions on [0, inf) that converge at infinity.

An element is stored as complex samples on the uniform grid
{k/m : 0 <= k <= S*m} together with an explicit ``tail`` value, the limit
at infinity. The grid step 1/m divides 1 exactly, so shifts by integers
(and by any nonnegative multiple of the step) map grid points onto grid
points; samples pushed past the right edge are read from the tail. That
substitution is exact whenever the function already equals its tail on the
truncated part, and otherwise introduces an error of order
``|samples[-1] - tail|``, which is surfaced through the resolution flag
and :class:`UnresolvedTailWarning`.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAIL_TOLERANCE",
    "POSITIVITY_TOLERANCE",
    "RECIPROCAL_FLOOR",
    "DomainError",
    "GridMismatchError",
    "UnresolvedTailWarning",
    "GridSpec",
    "AlgebraElement",
    "constant",
    "judge",
]

TAIL_TOLERANCE = 1e-9
POSITIVITY_TOLERANCE = 1e-10
RECIPROCAL_FLOOR = 1e-14  # the least modulus AlgebraElement.reciprocal inverts

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class DomainError(ValueError):
    """An input outside the domain of the operation it was passed to: the
    caller's fault, not a numerical failure."""


class GridMismatchError(DomainError):
    """Operands live on different grids, or a shift is not grid-aligned."""


class UnresolvedTailWarning(UserWarning):
    """An element's last sample is far from its declared tail value."""


def _is_count(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy int or float; a bool, a complex
    number (numpy would order it by its real part), a string or None is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _require_tolerance(value, name: str) -> None:
    """Raise DomainError unless the tolerance ``value`` is a real number
    (:func:`_is_real`), finite and nonnegative; a NaN is neither."""
    if not _is_real(value) or not 0 <= value < math.inf:
        raise DomainError(f"{name} must be a finite and nonnegative real number, got {value!r}")


def judge(value: float, bound: float, floor: bool) -> tuple[bool, str]:
    """The verdict and detail of a check's number: a residual passes at
    value <= bound, a floor (criterion 4's least eigenvalue) at
    value >= -bound. A NaN passes neither."""
    if floor:
        return value >= -bound, f"min pointwise eigenvalue {value:.3e} (floor {-bound:.1e})"
    return value <= bound, f"max residual {value:.3e} (tol {bound:.1e})"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, S] with step 1/m, plus one slot for the tail.

    ``step_denominator`` is m (step h = 1/m) and ``domain_end`` is S; the
    samples sit at k/m for k = 0..S*m. Both must be positive integers so
    that the unit shift moves samples by exactly m slots.
    """

    step_denominator: int
    domain_end: int

    def __post_init__(self) -> None:
        if not _is_count(self.step_denominator) or self.step_denominator < 1:
            raise ValueError(f"step_denominator must be a positive integer, got {self.step_denominator!r}")
        if not _is_count(self.domain_end) or self.domain_end < 1:
            raise ValueError(f"domain_end must be a positive integer, got {self.domain_end!r}")

    @property
    def size(self) -> int:
        """Number of samples, S*m + 1."""
        return self.domain_end * self.step_denominator + 1

    @property
    def dim(self) -> int:
        """Coordinate dimension: all samples plus the tail slot."""
        return self.size + 1

    def points(self) -> np.ndarray:
        """The sample abscissae k/m as a float array."""
        return np.arange(self.size) / self.step_denominator

    def offset_of(self, t) -> int:
        """Sample offset of the grid-aligned time ``t`` >= 0."""
        if not _is_real(t):
            raise GridMismatchError(f"shift must be a real number, got {t!r}")
        try:
            k = float(t) * self.step_denominator
        except OverflowError:
            raise GridMismatchError("shift is too large for a float") from None
        if not math.isfinite(k):
            raise GridMismatchError(f"shift must be finite, got {t!r}")
        k_int = int(round(k))
        if abs(k - k_int) > 1e-12:
            raise GridMismatchError(f"shift {t!r} is not a multiple of the grid step 1/{self.step_denominator}")
        if k_int < 0:
            raise GridMismatchError(f"shift must be nonnegative, got {t!r}")
        return k_int


def _warn_unresolved(*elements: "AlgebraElement", stacklevel: int) -> None:
    """Warn once per unresolved element; ``stacklevel`` counts from this
    function to the line that called into the algebra."""
    for e in elements:
        if not e.is_resolved:
            warnings.warn(
                f"operating on an unresolved element: |samples[-1] - tail| = "
                f"{abs(e.samples[-1] - e.tail):.3e} exceeds {TAIL_TOLERANCE:.1e}; "
                "results that read past the grid edge inherit this error",
                UnresolvedTailWarning,
                stacklevel=stacklevel,
            )


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A grid-sampled function with an explicit limit at infinity.

    Immutable; all operations return new elements. Binary operations
    require operands on the same :class:`GridSpec`.
    """

    grid: GridSpec
    samples: np.ndarray
    tail: complex

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} samples, got shape {samples.shape}")
        self._freeze(samples.copy(), self.tail)

    @classmethod
    def _wrap(cls, grid: GridSpec, samples: np.ndarray, tail) -> "AlgebraElement":
        """An element over complex samples of the right shape that the
        arithmetic has just computed: checked and frozen, not copied."""
        element = object.__new__(cls)
        object.__setattr__(element, "grid", grid)
        element._freeze(samples, tail)
        return element

    def _freeze(self, samples: np.ndarray, tail) -> None:
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        if not (math.isfinite((tail := complex(tail)).real) and math.isfinite(tail.imag)):
            raise ValueError("tail must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "tail", tail)

    def __repr__(self) -> str:
        return (
            f"AlgebraElement(m={self.grid.step_denominator}, S={self.grid.domain_end}, "
            f"samples[0]={self.samples[0]:.6g}, samples[-1]={self.samples[-1]:.6g}, tail={self.tail:.6g})"
        )

    # -- resolution soundness ------------------------------------------------

    @property
    def is_resolved(self) -> bool:
        """Whether the last sample agrees with the tail within TAIL_TOLERANCE."""
        return bool(abs(self.samples[-1] - self.tail) <= TAIL_TOLERANCE)

    # -- coordinates ----------------------------------------------------------

    @property
    def coordinates(self) -> np.ndarray:
        """The coordinate vector (samples..., tail), length grid.dim."""
        return np.concatenate([self.samples, [self.tail]])

    def value_at(self, t) -> complex:
        """Sample value at the grid-aligned point ``t``."""
        k = self.grid.offset_of(t)
        if k >= self.grid.size:
            raise GridMismatchError(f"point {t!r} is beyond the grid end {self.grid.domain_end}")
        return complex(self.samples[k])

    # -- arithmetic -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, AlgebraElement):
            if other.grid != self.grid:
                raise GridMismatchError(f"grid mismatch: {self.grid} vs {other.grid}")
            return other
        if isinstance(other, _SCALARS):
            return constant(self.grid, complex(other))
        return None

    def _pointwise(self, op, other):
        """``op`` on the samples and on the tail, with ``other`` lifted to
        an element; a warning names the line that called the operator."""
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        _warn_unresolved(self, rhs, stacklevel=4)
        return AlgebraElement._wrap(self.grid, op(self.samples, rhs.samples), op(self.tail, rhs.tail))

    def __add__(self, other):
        return self._pointwise(operator.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._pointwise(operator.sub, other)

    def __rsub__(self, other):
        return self._pointwise(lambda x, y: y - x, other)

    def __mul__(self, other):
        return self._pointwise(operator.mul, other)

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement._wrap(self.grid, -self.samples, -self.tail)

    def __truediv__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._pointwise(operator.mul, rhs.reciprocal())

    def __rtruediv__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs._pointwise(operator.mul, self.reciprocal())

    def star(self) -> "AlgebraElement":
        """Pointwise complex conjugate (the involution of the algebra)."""
        return AlgebraElement._wrap(self.grid, np.conj(self.samples), np.conj(self.tail))

    def shift(self, t) -> "AlgebraElement":
        """Left shift: the result samples b at s + t; t >= 0 on the grid.

        Samples pushed past the grid end are read from the tail; the tail
        itself is unchanged.
        """
        offset = self.grid.offset_of(t)
        if offset == 0:
            return self
        _warn_unresolved(self, stacklevel=3)
        n = self.grid.size
        shifted = np.empty(n, dtype=complex)
        if offset < n:
            shifted[: n - offset] = self.samples[offset:]
            shifted[n - offset :] = self.tail
        else:
            shifted[:] = self.tail
        return AlgebraElement._wrap(self.grid, shifted, self.tail)

    def sup_norm(self) -> float:
        """The C*-norm: max of |value| over all samples and the tail."""
        return float(max(np.abs(self.samples).max(), abs(self.tail)))

    def is_positive(self) -> bool:
        """True iff every value has |imag| and -real part at most POSITIVITY_TOLERANCE."""
        coords = self.coordinates
        return bool((np.abs(coords.imag) <= POSITIVITY_TOLERANCE).all() and (coords.real >= -POSITIVITY_TOLERANCE).all())

    def reciprocal(self) -> "AlgebraElement":
        """Pointwise inverse; fails if any value is within RECIPROCAL_FLOOR of 0."""
        coords = self.coordinates
        small = np.abs(coords).min()
        if small < RECIPROCAL_FLOOR:
            raise DomainError(f"element is not invertible: min |value| = {small:.3e}")
        return AlgebraElement._wrap(self.grid, 1.0 / self.samples, 1.0 / self.tail)


def constant(grid: GridSpec, value) -> AlgebraElement:
    """The constant function ``value``; constant(grid, 1) is the unit."""
    value = complex(value)
    return AlgebraElement._wrap(grid, np.full(grid.size, value, dtype=complex), value)

