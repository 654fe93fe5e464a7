"""The chain blocks of ``semigroups`` against closed forms at 40 digits.

On each chain, tL is upper bidiagonal: t a_k on the diagonal and t w_k
above it, coupling coordinate k to the next one j of its chain, or to the
tail. So exp(tL) has e^{t a_k} on its diagonal, and on its first
superdiagonal t w_k times the divided difference of exp at t a_k and t a_j,
the top-right entry of exp([[t a_k, 1], [0, t a_j]]), which holds for
a_k = a_j too. Both are taken with mpmath at 40 digits for criterion 3's
five unit pairs at (4, 40).

Measured at the pinned Taylor tolerance: the diagonal is within 5.1e-14
relative (1.2e-15 at the samples; the tail entry is the worst) and the
superdiagonal within 1.17e-13, both the Taylor truncation: at rel_tol
1e-14 the tail entry comes within 3.3e-15. Each bound below is about twice
its measurement; it documents the error and tightens nothing.
"""

import mpmath
import numpy as np
import pytest

from fockindex.algebra import GridSpec
from fockindex.fock import _chain_layout, _next_index, generator_unit, kernel, semigroups
from fockindex.selftest import _semigroup_test_pairs

GRID = GridSpec(4, 40)
TIMES = (0.3, 1.0, 1.7)
DIAGONAL_BOUND = 1e-13  # order 0, relative
SUPERDIAGONAL_BOUND = 2e-13  # order 1, relative where the closed form is nonzero


def criterion_3_pairs(grid):
    xi = generator_unit(grid)
    return [(xi, xi), *_semigroup_test_pairs(grid)]


def divided_difference(x, y):
    """exp[x, y] at the working precision, as the top-right entry of the
    exponential of the 2 x 2 bidiagonal with x and y on its diagonal."""
    return mpmath.expm(mpmath.matrix([[x, 1], [0, y]]))[0, 1]


def closed_form_errors(bands, t, blocks, grid):
    """The largest relative errors of the diagonal and of the first
    superdiagonal of the chain blocks ``blocks`` of exp(tL), L given by
    its ``bands``; a superdiagonal entry whose closed form is 0 counts by
    its modulus."""
    block, slot = _chain_layout(grid)
    following = _next_index(grid)
    differences = {}
    with mpmath.workdps(40):
        ta = [mpmath.mpf(t) * mpmath.mpc(a) for a in bands[0]]
        tail = mpmath.exp(ta[-1])
        diagonal = max(abs(mpmath.mpc(x) - tail) / abs(tail) for x in blocks[:, -1, -1])
        superdiagonal = mpmath.mpf(0)
        for k in range(grid.size):
            exact = mpmath.exp(ta[k])
            diagonal = max(diagonal, abs(mpmath.mpc(blocks[block[k], slot[k], slot[k]]) - exact) / abs(exact))
            key = (ta[k], ta[following[k]])
            if key not in differences:
                differences[key] = divided_difference(*key)
            exact = mpmath.mpf(t) * mpmath.mpc(bands[1, k]) * differences[key]
            got = mpmath.mpc(blocks[block[k], slot[k], slot[k] + 1])
            superdiagonal = max(superdiagonal, abs(got - exact) / abs(exact) if exact else abs(got))
    return float(diagonal), float(superdiagonal)


@pytest.mark.parametrize("pair", range(5))
def test_semigroup_blocks_match_the_closed_forms(pair):
    u, v = criterion_3_pairs(GRID)[pair]
    bands = kernel(u, v).bands
    for t, operator in semigroups(u, v, TIMES).items():
        diagonal, superdiagonal = closed_form_errors(bands, t, operator.blocks, GRID)
        assert diagonal <= DIAGONAL_BOUND, (t, diagonal)
        assert superdiagonal <= SUPERDIAGONAL_BOUND, (t, superdiagonal)


def test_a_scaled_superdiagonal_entry_fails():
    """One superdiagonal entry scaled by 1 + 1e-10 is caught."""
    xi = generator_unit(GRID)
    blocks = np.array(semigroups(xi, xi, [1.0])[1.0].blocks)
    assert closed_form_errors(kernel(xi, xi).bands, 1.0, blocks, GRID)[1] <= SUPERDIAGONAL_BOUND
    blocks[0, 3, 4] *= 1 + 1e-10
    assert closed_form_errors(kernel(xi, xi).bands, 1.0, blocks, GRID)[1] > SUPERDIAGONAL_BOUND
