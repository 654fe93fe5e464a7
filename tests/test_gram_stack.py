"""The Gram field is one (t, b, dim, k, k) coordinate stack. These tests
hold it to the list-based code it replaced: the reference functions below
are verbatim copies of that code, and every stack entry, every report field
and every Hermitian error must match them byte for byte, signed zeros
included."""

import warnings
from dataclasses import dataclass

import numpy as np

from fockindex.algebra import AlgebraElement, DomainError, UnresolvedTailWarning
from fockindex.fock import FockUnit, gram_matrices, gram_psd_check, semigroups
from test_mirror_pairs import on_small_grids

# -- the replaced bodies, verbatim ---------------------------------------------


def reference_gram_matrices(units, times, bs) -> list:
    units, times, bs = list(units), [float(t) for t in times], list(bs)
    if not all(b.is_positive() for b in bs):
        raise DomainError("gram_matrices needs positive elements b")
    grams = [[[[None] * len(units) for _ in units] for _ in bs] for _ in times]
    for i, ui in enumerate(units):
        for j, uj in enumerate(units):
            exps = semigroups(ui, uj, times)
            for row, t in zip(grams, times):
                for gram, b in zip(row, bs):
                    gram[i][j] = exps[t].apply(b)
    return grams


@dataclass(frozen=True)
class ReferenceGramReport:
    passed: bool
    min_eigenvalue: float
    argmin_point: object
    entries: tuple

    def json_entries(self) -> list:
        return [{"grid_point": point, "min_eigenvalue": value} for point, value in self.entries]


def reference_gram_psd_check(gram, tol: float) -> ReferenceGramReport:
    k = len(gram)
    if any(len(row) != k for row in gram):
        raise ValueError("gram matrix must be square")
    if k == 0:
        return ReferenceGramReport(True, 0.0, None, ())
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
    return ReferenceGramReport(bool(minima[worst] >= -tol), float(minima[worst]), labels[worst], entries)


# -- random operands ---------------------------------------------------------------


def resolved(grid, samples):
    """The element whose tail repeats its last sample."""
    return AlgebraElement(grid, samples, complex(samples[-1]))


def random_unit(rng, grid):
    def element():
        return resolved(grid, rng.uniform(-0.7, 0.7, grid.size) + 1j * rng.uniform(-0.7, 0.7, grid.size))

    return FockUnit(element(), element())


def random_positive(rng, grid):
    """Real samples in [0, 2), some of them exactly 0."""
    samples = rng.uniform(0.0, 2.0, grid.size)
    samples[rng.random(grid.size) < 0.2] = 0.0
    return resolved(grid, samples)


def draw_family(rng, grid, k):
    """k units, one to four times in no order (0 among them at random) and
    one or two positive elements b."""
    units = [random_unit(rng, grid) for _ in range(k)]
    times = list(rng.choice([0.0, 0.5, 1.0, float(rng.uniform(0.0, 2.0))], size=rng.integers(1, 5), replace=False))
    bs = [random_positive(rng, grid) for _ in range(rng.integers(1, 3))]
    return units, times, bs


def away_from_gaps(stack, tol):
    """``tol`` > 0, moved up until no Hermitian gap |G_ij - conj(G_ji)|
    lies within a few ulps of it, so the comparison with it cannot turn on
    one rounding."""
    assert tol > 0
    gaps = np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1)))).ravel()
    while np.any(np.abs(gaps - tol) <= 4 * np.spacing(tol)):
        tol *= 1.001
    return tol


def elements(grid, stack):
    """The entries of a (dim, k, k) stack as elements, one per coordinate column."""
    k = stack.shape[-1]
    return [[AlgebraElement(grid, stack[:-1, i, j], stack[-1, i, j]) for j in range(k)] for i in range(k)]


def outcome(check):
    """The report of ``check()`` as the reprs of its fields, or the message
    of the ValueError it raised. The list-based code warns on unresolved
    elements; the warning is not part of its result."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnresolvedTailWarning)
            report = check()
    except ValueError as error:
        return str(error)
    entries = report.json_entries() if isinstance(report, ReferenceGramReport) else report.entries
    return repr((report.passed, report.min_eigenvalue, report.argmin_point, entries))


# -- the tests ----------------------------------------------------------------------


@on_small_grids
def test_stack_entries_and_reports_match_the_list_based_code(grid, seed):
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3):
        units, times, bs = draw_family(rng, grid, k)
        stack = gram_matrices(units, times, bs)
        expected = reference_gram_matrices(units, times, bs)
        assert stack.shape == (len(times), len(bs), grid.dim, k, k)
        for a in range(len(times)):
            for c in range(len(bs)):
                for i in range(k):
                    for j in range(k):
                        assert stack[a, c, :, i, j].tobytes() == expected[a][c][i][j].coordinates.tobytes()
                tol = away_from_gaps(stack[a, c], 10.0 ** rng.uniform(-16, 0))
                got = outcome(lambda: gram_psd_check(grid, stack[a, c], tol))
                assert got == outcome(lambda: reference_gram_psd_check(expected[a][c], tol))


@on_small_grids
def test_non_hermitian_stacks_raise_the_list_based_message(grid, seed):
    rng = np.random.default_rng(seed)
    raised = 0
    for k in (1, 2, 3):
        units, times, bs = draw_family(rng, grid, k)
        stack = gram_matrices(units, times, bs)[0, 0].copy()
        for _ in range(rng.integers(1, 4)):
            p, i, j = rng.integers(grid.dim), rng.integers(k), rng.integers(k)
            stack[p, i, j] += 10.0 ** rng.uniform(-10, 0) * np.exp(2j * np.pi * rng.random())
        gaps = np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1))))
        for tol in (10.0 ** rng.uniform(-12, 1), 0.5 * gaps.max()):
            tol = away_from_gaps(stack, tol)
            got = outcome(lambda: gram_psd_check(grid, stack, tol))
            assert got == outcome(lambda: reference_gram_psd_check(elements(grid, stack), tol))
            raised += got.startswith("gram matrix is not Hermitian")
    assert raised
