"""Halving the grid step keeps every coarse sample: sample k of (m, S) sits
at k/m, as sample 2k of (2m, S) does, and the tail is the tail. At those
shared coordinates every field built pointwise from the presets agrees to
the bit. A field with an exponential agrees to the bit where both grids
take the same squaring count; where the finer grid puts the sup of
|a| + |w| at a point that the coarser grid lacks, its count is higher and
the values agree within RELATIVE_BOUND."""

import itertools

import numpy as np
import pytest

from fockindex.algebra import GridSpec, constant
from fockindex.fock import (
    FockUnit,
    WeightedShift,
    _scaled_bands,
    generator_unit,
    gram_matrices,
    kernel,
    kernel_stack,
    semigroups,
    vacuum_unit,
)
from fockindex.presets import exp_approach, exp_decay, piecewise_linear
from fockindex.subsystem import index_representative
from fockindex.unit_algebra import semi_inner, wrap

# At S = 3 the exp_approach member is still far from its tail; nesting does not depend on it.
pytestmark = pytest.mark.filterwarnings("ignore::fockindex.algebra.UnresolvedTailWarning")

GRIDS = [(m, end) for m in (1, 2, 3) for end in (3, 10)]
TIMES = (0.25, 0.5, 1.0, 2.0)
# Constant units (zeta, beta) whose negative beta makes exp(tL) a
# contraction: every coordinate row of the Taylor sum has norm below 1.
DISSIPATIVE = list(itertools.product((0.05, 0.1, 0.3), (-0.3, -0.5, -0.8, -1.2)))
SWEEP = np.linspace(0.05, 0.5, 46)  # holds 0.47
# Largest |coarse - fine| over the largest |fine| of one field where the squaring
# counts differ; the worst measured on GRIDS is 2.5e-14.
RELATIVE_BOUND = 1e-13


def units(grid: GridSpec, m: int) -> list:
    """The vacuum, the generator, a member with a complex beta, and a member
    whose zeta peaks at 2 at s = 1/(2m), a point of (2m, S) that (m, S)
    lacks, and reads 1 at its neighbours 0 and 1/m."""
    zero = constant(grid, 0.0)
    return [
        vacuum_unit(grid),
        generator_unit(grid),
        FockUnit(exp_approach(grid, 0.5 + 0.25j, 1.0), exp_decay(grid, 0.2j, 0.8)),
        FockUnit(piecewise_linear(grid, [(0.0, 1.0), (1 / (2 * m), 2.0), (1 / m, 1.0)]), zero),
    ]


def probes(grid: GridSpec) -> list:
    """Positive elements to act on."""
    return [constant(grid, 1.0), exp_decay(grid, 1.0, 0.5, 0.5)]


def nested(m: int, end: int) -> tuple:
    """(units, probes) on (m, S) and on (2m, S), and the indices of the
    coordinates of (2m, S) that (m, S) has: the even samples and the tail."""
    coarse, fine = GridSpec(m, end), GridSpec(2 * m, end)
    shared = np.r_[0 : fine.size : 2, fine.size]
    return (units(coarse, m), probes(coarse)), (units(fine, m), probes(fine)), shared


def squarings(u: FockUnit, v: FockUnit, t: float) -> int:
    """The squaring count of exp(t kernel(u, v)), as the exponential reads it."""
    return _scaled_bands(WeightedShift(u.grid, t * kernel(u, v).bands))[1]


def assert_nested(coarse: np.ndarray, fine: np.ndarray, same_count: bool) -> None:
    if same_count:
        assert coarse.tobytes() == fine.tobytes()
    else:
        assert np.max(np.abs(coarse - fine)) <= RELATIVE_BOUND * np.max(np.abs(fine))


@pytest.mark.parametrize("m, end", GRIDS)
def test_pointwise_fields_agree_to_the_bit(m, end):
    (coarse, bs_c), (fine, bs_f), shared = nested(m, end)
    assert kernel_stack(coarse, coarse).tobytes() == kernel_stack(fine, fine)[..., shared].tobytes()
    ref_c, ref_f = coarse[1], fine[1]
    for (u_c, u_f), (v_c, v_f) in itertools.product(zip(coarse, fine), repeat=2):
        for b_c, b_f in zip(bs_c, bs_f):
            inner_c = semi_inner(wrap(u_c, ref_c), wrap(v_c, ref_c), b_c).coordinates
            inner_f = semi_inner(wrap(u_f, ref_f), wrap(v_f, ref_f), b_f).coordinates
            assert inner_c.tobytes() == inner_f[shared].tobytes()
    for u_c, u_f in zip(coarse[1:], fine[1:]):  # the members
        assert index_representative(u_c).coordinates.tobytes() == index_representative(u_f).coordinates[shared].tobytes()


@pytest.mark.parametrize("m, end", GRIDS)
def test_semigroup_actions_nest(m, end):
    (coarse, bs_c), (fine, bs_f), shared = nested(m, end)
    kinds = set()
    for (u_c, u_f), (v_c, v_f) in itertools.product(zip(coarse, fine), repeat=2):
        exps_c, exps_f = semigroups(u_c, v_c, TIMES), semigroups(u_f, v_f, TIMES)
        for t in TIMES:
            same_count = squarings(u_c, v_c, t) == squarings(u_f, v_f, t)
            kinds.add(same_count)
            for b_c, b_f in zip(bs_c, bs_f):
                assert_nested(exps_c[t].apply(b_c).coordinates, exps_f[t].apply(b_f).coordinates[shared], same_count)
    assert kinds == {True, False}


@pytest.mark.parametrize("m, end", GRIDS)
def test_gram_entries_nest(m, end):
    (coarse, bs_c), (fine, bs_f), shared = nested(m, end)
    gram_c, gram_f = gram_matrices(coarse, TIMES, bs_c), gram_matrices(fine, TIMES, bs_f)[:, :, shared]
    kinds = set()
    for (i, (u_c, u_f)), (j, (v_c, v_f)) in itertools.product(enumerate(zip(coarse, fine)), repeat=2):
        for a, t in enumerate(TIMES):
            same_count = squarings(u_c, v_c, t) == squarings(u_f, v_f, t)
            kinds.add(same_count)
            assert_nested(gram_c[a, ..., i, j], gram_f[a, ..., i, j], same_count)
    assert kinds == {True, False}


@pytest.mark.parametrize("factor", (2, 3))
def test_dissipative_constant_units_nest_from_one_chain(factor):
    """exp(tL) 1 for the DISSIPATIVE units on (1, 6), one chain and no pad,
    and on (factor, 6), whose chains r >= 1 have a pad: the sup of |a| + |w|
    is the same on both grids, so are the squaring counts, and the values
    agree to the bit at the shared coordinates. A pad diagonal of 1 in the
    Taylor sum would outweigh every coordinate row in the stopping test."""
    coarse, fine = GridSpec(1, 6), GridSpec(factor, 6)
    shared = np.r_[0 : fine.size : factor, fine.size]
    for zeta, beta in DISSIPATIVE:
        u_c, u_f = (FockUnit(constant(grid, zeta), constant(grid, beta)) for grid in (coarse, fine))
        exps_c, exps_f = semigroups(u_c, u_c, SWEEP), semigroups(u_f, u_f, SWEEP)
        for t in SWEEP:
            assert squarings(u_c, u_c, t) == squarings(u_f, u_f, t)
            values_c = exps_c[t].apply(constant(coarse, 1.0)).coordinates
            assert_nested(values_c, exps_f[t].apply(constant(fine, 1.0)).coordinates[shared], same_count=True)
