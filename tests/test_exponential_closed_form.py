"""The chain blocks of ``semigroups`` against closed forms at 40 digits.

On each chain, tL is upper bidiagonal: t a_k on the diagonal and t w_k
above it, coupling coordinate k to the next one of its chain, or to the
tail. By Opitz's theorem, the entry of order q of exp(tL), from slot p
to slot p + q of a chain, is t^q w_p ... w_{p+q-1} times the divided
difference of exp at t a_p, ..., t a_{p+q}: the top-right entry of the
exponential of the (q+1) x (q+1) bidiagonal with those points on its
diagonal and 1 above it, which holds for equal points too. Both are
taken with mpmath at 40 digits for criterion 3's five unit pairs at
(4, 40). Orders 0 and 1 are checked at every slot, relative to the
closed form; orders 2 and 3, which shrink like (tw)^q/q!, at every slot
whose entry reaches the tail and at a seeded sample of the others,
absolutely against the row-sum norm of exp(tL). Where the unit pair is
constant, every sample entry of order q is (tw)^q e^{ta}/q!, which is
checked at every slot in plain floats, also against the norm.

Measured at the pinned Taylor tolerance: order 0 within 5.1e-14 relative
(1.2e-15 at the samples; the tail entry is the worst), order 1 within
1.17e-13 relative, both the Taylor truncation: at rel_tol 1e-14 the tail
entry comes within 3.3e-15. Orders 2 and 3 within 3.0e-14 of the norm,
and the constant pairs within 1.5e-14 of it. Each bound below is about
twice its measurement; it documents the error and tightens nothing.
"""

import cmath
import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from fockindex import fock
from fockindex.algebra import GridSpec
from fockindex.fock import _chain_layout, generator_unit, kernel, semigroups
from fockindex.selftest import _semigroup_test_pairs

GRID = GridSpec(4, 40)
TIMES = (0.3, 1.0, 1.7)
DIAGONAL_BOUND = 1e-13  # order 0, relative
SUPERDIAGONAL_BOUND = 2e-13  # order 1, relative where the closed form is nonzero
ABSOLUTE_BOUND = 6e-14  # orders 2 and 3, and every order of a constant pair, over the norm of exp(tL)
SAMPLED_SLOTS = 8  # per order and exponential, besides the slots whose entry reaches the tail
CONSTANT_PAIRS = (0, 1, 4)  # the pairs of criterion_3_pairs whose zetas and betas are constants


def criterion_3_pairs(grid):
    xi = generator_unit(grid)
    return [(xi, xi), *_semigroup_test_pairs(grid)]


@lru_cache(maxsize=None)
def divided_difference(*points):
    """exp[x_0, ..., x_q] at the working precision, as the top-right entry
    of the exponential of the bidiagonal with the points on its diagonal."""
    q = len(points) - 1
    matrix = mpmath.diag(points)
    for i in range(q):
        matrix[i, i + 1] = 1
    return mpmath.expm(matrix)[0, q]


def chain_coordinates(grid):
    """The coordinate at each (chain, slot): a sample index, the tail index
    grid.size at the last slot, or -1 at the pad slot 0 of chains r >= 1."""
    block, slot = _chain_layout(grid)
    chains = np.full((grid.step_denominator, grid.domain_end + 2), -1)
    chains[block, slot] = np.arange(grid.size)
    chains[:, -1] = grid.size
    return chains


def slots(grid, q):
    """Every (chain, slot) whose entry of order q lies in a chain block, pads excluded."""
    return [(r, p) for r in range(grid.step_denominator) for p in range(1 if r else 0, grid.domain_end + 2 - q)]


def sampled_slots(grid, q, rng):
    """Every (chain, slot) whose entry of order q reaches the tail, and a seeded sample of the others."""
    tail_adjacent = [(r, grid.domain_end + 1 - q) for r in range(grid.step_denominator)]
    others = [entry for entry in slots(grid, q) if entry not in tail_adjacent]
    return tail_adjacent + [others[i] for i in rng.choice(len(others), SAMPLED_SLOTS, replace=False)]


def entry_errors(bands, t, blocks, q, entries):
    """(|got - exact|, |exact|) of each entry of order q, given as (chain,
    slot), of the chain blocks ``blocks`` of exp(tL), L given by its ``bands``."""
    chains = chain_coordinates(GRID)
    errors = []
    with mpmath.workdps(40):
        ta = [mpmath.mpf(t) * mpmath.mpc(a) for a in bands[0]]
        tw = [mpmath.mpf(t) * mpmath.mpc(w) for w in bands[1]]
        for r, p in entries:
            path = chains[r, p : p + q + 1]
            exact = mpmath.fprod(tw[k] for k in path[:-1]) * divided_difference(*(ta[k] for k in path))
            errors.append((abs(mpmath.mpc(blocks[r, p, p + q]) - exact), abs(exact)))
    return errors


def oracle_failures(bands, t, blocks, rng):
    """Each order of exp(tL) whose error exceeds its bound, as (order, error)."""
    failures = []
    for q, bound in ((0, DIAGONAL_BOUND), (1, SUPERDIAGONAL_BOUND)):
        error = max(gap / exact if exact else gap for gap, exact in entry_errors(bands, t, blocks, q, slots(GRID, q)))
        if not error <= bound:
            failures.append((q, float(error)))
    norm = fock._inf_norm(blocks)
    for q in (2, 3):
        error = max(gap for gap, _ in entry_errors(bands, t, blocks, q, sampled_slots(GRID, q, rng))) / norm
        if not error <= ABSOLUTE_BOUND:
            failures.append((q, float(error)))
    return failures


@pytest.mark.parametrize("pair", range(5))
def test_semigroup_blocks_match_the_closed_forms(pair):
    u, v = criterion_3_pairs(GRID)[pair]
    bands = kernel(u, v).bands
    rng = np.random.default_rng(pair)
    for t, operator in semigroups(u, v, TIMES).items():
        assert oracle_failures(bands, t, operator.blocks, rng) == [], t


@pytest.mark.parametrize("pair", CONSTANT_PAIRS)
def test_constant_pairs_match_the_plain_float_closed_form(pair):
    """Below the tail, the block of a constant pair is e^{ta} times the
    upper triangular Toeplitz matrix with (tw)^q/q! on its q-th diagonal."""
    u, v = criterion_3_pairs(GRID)[pair]
    bands = kernel(u, v).bands
    a, w = complex(bands[0, 0]), complex(bands[1, 0])
    assert np.all(bands[0, :-1] == a) and np.all(bands[1, :-1] == w)
    d = GRID.domain_end + 1  # chain 0's sample slots; chains r >= 1 use slots 1..S
    orders = np.subtract.outer(np.arange(d), np.arange(d)).T  # j - i at entry (i, j)
    for t, operator in semigroups(u, v, TIMES).items():
        diagonals = np.array([cmath.exp(t * a) * (t * w) ** q / math.factorial(q) for q in range(d)])
        expected = np.where(orders >= 0, diagonals[np.maximum(orders, 0)], 0.0)
        blocks = operator.blocks
        gap = max(np.abs(blocks[0, :d, :d] - expected).max(), np.abs(blocks[1:, 1:d, 1:d] - expected[:-1, :-1]).max())
        assert gap / operator.operator_norm() <= ABSOLUTE_BOUND, t


def test_a_scaled_superdiagonal_entry_fails():
    """One superdiagonal entry scaled by 1 + 1e-10 is caught."""
    xi = generator_unit(GRID)
    blocks = np.array(semigroups(xi, xi, [1.0])[1.0].blocks)
    bands = kernel(xi, xi).bands
    assert oracle_failures(bands, 1.0, blocks, np.random.default_rng(0)) == []
    blocks[0, 3, 4] *= 1 + 1e-10
    assert [q for q, _ in oracle_failures(bands, 1.0, blocks, np.random.default_rng(0))] == [1]


@pytest.mark.parametrize("extra", [-1, 1], ids=["one squaring fewer", "one squaring more"])
def test_a_squaring_count_off_by_one_fails(monkeypatch, extra):
    """The exponential of the generator pair at t = 1.7, squared twice, is
    caught when its squaring loop runs once less or once more."""
    square, pending = fock._square, [extra]

    def miscounted(result, norm):
        if pending:
            pending.clear()
            if extra < 0:
                return result
            result = square(result, norm)
        return square(result, norm)

    monkeypatch.setattr(fock, "_square", miscounted)
    xi = generator_unit(GRID)
    blocks = semigroups(xi, xi, [1.7])[1.7].blocks
    assert not pending
    assert oracle_failures(kernel(xi, xi).bands, 1.7, blocks, np.random.default_rng(0))
