"""Inputs outside an operation's domain raise DomainError, a ValueError;
numerical failures and internal invariants do not."""

import re
from pathlib import Path

import numpy as np
import pytest

from fockindex import selftest
from fockindex.algebra import DomainError, GridMismatchError, GridSpec, constant
from fockindex.cli import ConfigError, parse_config
from fockindex.fock import (
    FockUnit,
    NParticleVector,
    UnsupportedParameterError,
    WeightedShift,
    gram_matrices,
    gram_psd_check,
    kernel,
    kernel_stack,
    left_action,
    matrix_exponential,
    module_inner,
    semigroup,
    semigroup_law_residual,
    semigroups,
    unit_component,
)
from fockindex.presets import PresetError, exp_approach, from_spec, piecewise_linear
from fockindex.subsystem import (
    NotAMemberError,
    approximate,
    convergence_report,
    convexify,
    index_representative,
    membership,
    theta_check,
    witness_step1,
)
from fockindex.unit_algebra import add, boxplus_left, coefficients_sum_to_one, wrap

GRID = GridSpec(2, 10)
ZERO, ONE = constant(GRID, 0.0), constant(GRID, 1.0)
OTHER_ONE = constant(GridSpec(2, 11), 1.0)
XI = FockUnit(ONE, ZERO)
OMEGA = FockUnit(ZERO, ZERO)
DIP = piecewise_linear(GRID, [[0.0, -3000.0], [1.0, 1.0]])  # eventually one, negative below 1
ZERO_PIVOT = piecewise_linear(GRID, [[0.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
NON_FINITE = (float("inf"), float("-inf"), float("nan"))
BOOLS = (True, np.False_)
NOT_REAL = (1j, "1e-9", None, np.complex128(1e-9))  # numpy orders a complex by its real part


@pytest.mark.parametrize(
    "call",
    [
        # subsystem
        lambda: witness_step1(constant(GRID, 1 + 0.5j), 1),  # _require_real
        lambda: witness_step1(exp_approach(GRID, 1.0, 1.0), 1),  # _require_eventually_one
        lambda: witness_step1(ONE, 0),
        lambda: witness_step1(ONE, 6),  # grid end S = 10 < 2n
        lambda: witness_step1(ONE, 1.5),  # n not a count
        lambda: convexify(constant(GRID, 1 + 0.5j), 1, 0.1),
        lambda: convexify(exp_approach(GRID, 1.0, 1.0), 1, 0.1),
        lambda: convexify(ONE, -1, 0.1),
        lambda: convexify(ONE, 1, 1.5),
        lambda: convexify(DIP, 1, 0.1),  # no dyadic alpha
        lambda: approximate(ONE, 0),
        lambda: approximate(ONE, 11),
        lambda: approximate(ZERO_PIVOT, 2),
        lambda: convergence_report(constant(GRID, 2.0), 1.0, [2]),
        lambda: index_representative(FockUnit(constant(GRID, 2.0), ZERO)),
        # fock
        lambda: semigroups(XI, XI, [-1.0]),
        lambda: gram_matrices([XI], [0.5], [constant(GRID, -1.0)]),
        lambda: unit_component(FockUnit(ONE, ONE), 1),
        lambda: left_action(ONE, NParticleVector(1, OTHER_ONE)),  # grid mismatches
        lambda: module_inner(NParticleVector(1, ONE), NParticleVector(1, OTHER_ONE)),
        lambda: kernel(XI, FockUnit(OTHER_ONE, OTHER_ONE)),
        lambda: kernel_stack((), [XI]),  # no left unit
        # particle counts that are not nonnegative integers, or differ
        lambda: NParticleVector(-1, ONE),
        lambda: unit_component(XI, 1.5),
        lambda: module_inner(NParticleVector(1, ONE), NParticleVector(2, ONE)),
        # unit_algebra
        lambda: add(wrap(XI, XI), wrap(XI, OMEGA)),
        lambda: wrap(XI, FockUnit(constant(GridSpec(2, 11), 1.0), constant(GridSpec(2, 11), 0.0))),
        lambda: boxplus_left([ONE], [XI, XI], XI),
        lambda: boxplus_left([ONE, ONE], [XI, XI], XI),
        # algebra
        lambda: ZERO.reciprocal(),
        lambda: ONE + constant(GridSpec(2, 11), 1.0),
        *(lambda t=t: ONE.shift(t) for t in NON_FINITE),
        lambda: ONE.shift(10**400),  # finite, but past any float
        *(lambda t=t: ONE.value_at(t) for t in NON_FINITE),
        # presets, the CLI's config reader and the selftest
        lambda: from_spec(GRID, {"kind": "nonsense"}),
        lambda: parse_config("not an object", Path(".")),
        lambda: parse_config({"grid": [2, 10]}, Path(".")),
        lambda: parse_config({"tolerances": 1e-9}, Path(".")),
        lambda: selftest.run_selftest(GridSpec(3, 5)),
        *(lambda seed=seed: selftest.Pcg64Draws(seed) for seed in (2.9, 2.0, np.float64(2.0), True, -1)),
        lambda: selftest.run_selftest(GRID, seed=2.5),  # would draw from seeds 2 to 6
        # subsystem, continued: truncation points out of order
        lambda: convergence_report(ONE, 1.0, [4, 2]),  # ns not strictly increasing
        lambda: convergence_report(ONE, 1.0, [4, 4]),
        lambda: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, []),  # no truncation point
        lambda: theta_check(ONE, 1, []),  # no probe
        lambda: semigroup_law_residual(XI, XI, []),  # no time
        # times and tolerances that are not finite and >= 0
        lambda: semigroups(XI, XI, [float("nan")]),
        lambda: semigroups(XI, XI, [float("inf")]),
        lambda: membership(XI, float("nan")),
        # the Taylor tolerance, before any work: NaN and -1 would run 64 terms, +inf stop after one
        lambda: matrix_exponential(WeightedShift(GRID, np.zeros((2, GRID.dim))), float("nan")),
        lambda: semigroups(XI, XI, [1.0], rel_tol=-1.0),
        lambda: semigroups(XI, XI, [1.0], rel_tol=float("inf")),
        lambda: semigroup_law_residual(XI, XI, [0.5], rel_tol=float("nan")),
        # thresholds that would read as a failed check
        lambda: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, [2], target_threshold=float("nan")),
        lambda: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, [2], target_threshold=float("inf")),
        lambda: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, [2], target_threshold=-1.0),
        lambda: gram_psd_check(GRID, np.ones((GRID.dim, 1, 1), dtype=complex), float("nan")),
        lambda: gram_psd_check(GRID, np.ones((GRID.dim, 1, 1), dtype=complex), float("inf")),
        lambda: gram_psd_check(GRID, np.ones((GRID.dim, 1, 1), dtype=complex), -1.0),
        # a bool is no tolerance: True would read as 1.0 and np.False_ as 0.0
        *(lambda flag=flag: membership(XI, flag) for flag in BOOLS),
        *(lambda flag=flag: matrix_exponential(WeightedShift(GRID, np.zeros((2, GRID.dim))), flag) for flag in BOOLS),
        *(lambda flag=flag: semigroups(XI, XI, [1.0], rel_tol=flag) for flag in BOOLS),
        *(lambda flag=flag: gram_psd_check(GRID, np.ones((GRID.dim, 1, 1), dtype=complex), flag) for flag in BOOLS),
        *(lambda flag=flag: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, [2], target_threshold=flag) for flag in BOOLS),
        # nor is anything but a real number: a complex, a string or None
        *(lambda tol=tol: membership(XI, tol) for tol in NOT_REAL),
        *(lambda tol=tol: matrix_exponential(WeightedShift(GRID, np.zeros((2, GRID.dim))), tol) for tol in NOT_REAL),
        *(lambda tol=tol: semigroups(XI, XI, [1.0], rel_tol=tol) for tol in NOT_REAL),
        *(lambda tol=tol: gram_psd_check(GRID, np.ones((GRID.dim, 1, 1), dtype=complex), tol) for tol in NOT_REAL),
        *(lambda tol=tol: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, [2], target_threshold=tol) for tol in NOT_REAL),
        # truncation points are counts as given, not truncated by int()
        *(lambda ns=ns: convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, ns) for ns in ([2.7, 4], [2.2, 2.7], ["2", "4"], [True, 4])),
        # a time, a shift, a point or a delta must be a real number: True would read as 1, "0.5" as 0.5
        *(lambda t=t: semigroups(XI, XI, [t]) for t in (*BOOLS, *NOT_REAL)),
        *(lambda t=t: semigroup(XI, XI, t) for t in (*BOOLS, *NOT_REAL)),
        *(lambda t=t: semigroup_law_residual(XI, XI, [t]) for t in (*BOOLS, *NOT_REAL)),
        *(lambda t=t: semigroup_law_residual(XI, XI, [0.5], extra_times=[t]) for t in (*BOOLS, *NOT_REAL)),
        *(lambda t=t: gram_matrices([XI], [t], [ONE]) for t in (*BOOLS, *NOT_REAL)),
        *(lambda t=t: convergence_report(exp_approach(GRID, 1.0, 1.0), t, [2]) for t in (*BOOLS, *NOT_REAL)),
        *(lambda t=t: ONE.shift(t) for t in (*BOOLS, *NOT_REAL, "a")),
        *(lambda t=t: ONE.value_at(t) for t in (*BOOLS, *NOT_REAL, "a")),
        *(lambda delta=delta: convexify(ONE, 1, delta) for delta in (*BOOLS, *NOT_REAL, 0.5j, "0.5")),
        *(lambda delta=delta: theta_check(ONE, 1, delta=delta) for delta in (*BOOLS, *NOT_REAL, 0.5j, "0.5")),
    ],
)
def test_out_of_domain_inputs_raise_domain_error(call):
    with pytest.raises(DomainError) as error:
        call()
    assert isinstance(error.value, ValueError)


def test_a_huge_shift_is_named_without_its_digits():
    with pytest.raises(GridMismatchError) as error:
        ONE.shift(10**400)
    assert len(str(error.value)) < 80


@pytest.mark.parametrize("t", [*BOOLS, *NOT_REAL, "a", "0.5"])
def test_a_shift_that_is_not_a_real_number_is_a_grid_mismatch_naming_it(t):
    for call in (ONE.shift, ONE.value_at):
        with pytest.raises(GridMismatchError, match=f"got {re.escape(repr(t))}$"):
            call(t)


def test_a_unit_and_its_reference_on_two_grids_are_a_grid_mismatch():
    with pytest.raises(GridMismatchError, match="^unit and reference must share one grid$"):
        wrap(XI, FockUnit(constant(GridSpec(2, 11), 1.0), constant(GridSpec(2, 11), 0.0)))


def test_no_coefficients_do_not_sum_to_one():
    assert coefficients_sum_to_one([]) is False  # the empty sum is 0


@pytest.mark.parametrize("cls", [ConfigError, PresetError, NotAMemberError, UnsupportedParameterError, GridMismatchError])
def test_domain_exceptions_are_domain_errors(cls):
    assert issubclass(cls, DomainError) and issubclass(DomainError, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: matrix_exponential(WeightedShift(GRID, [[np.inf] * GRID.dim, [0.0] * GRID.dim])),  # non-finite input
        lambda: semigroups(FockUnit(constant(GRID, 2.0), ZERO), FockUnit(constant(GRID, 2.0), ZERO), [1e300]),  # overflow
    ],
)
def test_numerical_failures_are_not_domain_errors(call):
    with pytest.raises(ValueError) as error:
        call()
    assert not isinstance(error.value, DomainError)


def test_selftest_rejects_a_short_grid_before_any_criterion(monkeypatch):
    runs = []
    monkeypatch.setattr(selftest, "CRITERIA", tuple((label, lambda grid, seed, label=label: runs.append(label) or []) for label, _ in selftest.CRITERIA))
    with pytest.raises(DomainError):
        selftest.run_selftest(GridSpec(3, 5))
    assert runs == []
    selftest.run_selftest(GridSpec(1, selftest.MIN_GRID_END))
    assert len(runs) == len(selftest.CRITERIA)
