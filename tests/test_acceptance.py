"""Acceptance suite: runs every criterion of the property battery at its
pinned tolerance and prints one pass/fail line per check, with the check's
value and bound where it has them, so a ``-s`` run shows how close each
check came to its bound.

One test per row of ``selftest.CRITERIA``, named
``test_criterion_<label>_<criterion name>``."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fockindex import selftest
from fockindex.algebra import judge
from fockindex.selftest import CRITERIA, DEFAULT_GRID, DEFAULT_SEED, run_selftest

# Criterion 12 runs a member whose zeta approaches its limit slowly, so its
# last sample is off the tail and the centrality probes warn on it.
UNRESOLVED_MEMBER = pytest.mark.filterwarnings("ignore::fockindex.UnresolvedTailWarning")


def _criterion_test(label, criterion):
    def test():
        results = criterion(DEFAULT_GRID, DEFAULT_SEED)
        for row in results:
            numbers = "" if row.value is None else f" [value {row.value!r}, bound {row.bound!r}]"
            print(f"{'PASS' if row.passed else 'FAIL'}  criterion {label}: {row.name} -- {row.detail}{numbers}")
        failures = [row.name for row in results if not row.passed]
        assert not failures, f"criterion {label} failed: {failures}"

    return UNRESOLVED_MEMBER(test) if label == "12" else test


for _label, _criterion in CRITERIA:
    globals()[f"test_criterion_{int(_label):02d}_{_criterion.__name__.removeprefix('criterion_')}"] = _criterion_test(
        _label, _criterion
    )


@pytest.fixture(scope="module")
def battery():
    """One run of the full battery at the default grid and seed, shared by the tests below."""
    return run_selftest()


@UNRESOLVED_MEMBER
def test_full_battery_reports_thirty_checks(battery):
    assert len(battery) == 30
    assert all(row.passed for row in battery)


# The rows with no single number, which state their own verdict and detail.
NO_NUMBER = {
    "[5] semi-inner positivity on positive elements",
    "[5] semi-inner monotonicity for 0 <= b <= 1",
    "[9] truncation sup-distance against brute force",
    "[9] truncation operator distances nonincreasing",
    "[10] membership battery of 12 labeled cases",
    "[12] no central unit among members",
}


@UNRESOLVED_MEMBER
def test_numeric_rows_keep_their_numbers_and_take_the_rule(battery):
    """Every other row keeps its value and bound through the labelling,
    and its verdict and detail are what judge gives them: the floor rule
    for criterion 4's least eigenvalue, the residual rule for the rest."""
    assert NO_NUMBER <= {row.name for row in battery}
    for row in battery:
        if row.name in NO_NUMBER:
            assert (row.value, row.bound) == (None, None)
        else:
            assert isinstance(row.value, float) and isinstance(row.bound, float)
            assert (row.passed, row.detail) == judge(row.value, row.bound, floor=row.name.startswith("[4] "))


def test_the_rule_at_its_edges():
    assert judge(1e-11, 1e-11, floor=False) == (True, "max residual 1.000e-11 (tol 1.0e-11)")
    assert not judge(np.nextafter(1e-11, 1.0), 1e-11, floor=False)[0]
    assert judge(-1e-10, 1e-10, floor=True) == (True, "min pointwise eigenvalue -1.000e-10 (floor -1.0e-10)")
    assert not judge(np.nextafter(-1e-10, -1.0), 1e-10, floor=True)[0]
    assert not judge(math.nan, 1.0, floor=False)[0] and not judge(math.nan, 1.0, floor=True)[0]
    assert judge(-0.0, 1e-12, floor=False) == (True, "max residual -0.000e+00 (tol 1.0e-12)")
    assert judge(-0.0, 1e-10, floor=True) == (True, "min pointwise eigenvalue -0.000e+00 (floor -1.0e-10)")


# Failure details: each criterion below is handed a wrong verdict or an
# unbuildable witness, and must report a FAIL row that says what went wrong.


def _only_row(criterion):
    (row,) = criterion(DEFAULT_GRID, DEFAULT_SEED)
    assert not row.passed
    return row.detail


def test_membership_battery_names_the_wrong_verdicts(monkeypatch):
    monkeypatch.setattr(selftest, "membership", lambda u: SimpleNamespace(in_E=True))
    detail = _only_row(selftest.criterion_membership_battery)
    assert detail == "errors: vacuum direction; decay to zero; constant two; limit two; complex limit"


def test_membership_battery_names_beta_dependent_verdicts(monkeypatch):
    real = selftest.membership

    def flipped(u):
        verdict = real(u)
        return verdict if u.beta.tail == 0 else SimpleNamespace(in_E=not verdict.in_E)

    monkeypatch.setattr(selftest, "membership", flipped)
    detail = _only_row(selftest.criterion_membership_battery)
    assert detail.startswith("errors: constant one; constant one (beta-dependent); exponential approach;")


@UNRESOLVED_MEMBER
def test_centrality_names_the_unobstructed_members(monkeypatch):
    monkeypatch.setattr(selftest, "centrality_check", lambda u: True)
    detail = _only_row(selftest.criterion_no_central_members)
    assert detail == f"member indices {list(range(10))} passed the obstruction check"


@UNRESOLVED_MEMBER
def test_centrality_flags_an_obstructed_zero_zeta_unit(monkeypatch):
    monkeypatch.setattr(selftest, "centrality_check", lambda u: False)
    assert _only_row(selftest.criterion_no_central_members) == "zero-zeta unit unexpectedly obstructed"


@UNRESOLVED_MEMBER
def test_an_unbuildable_witness_fails_its_row_and_the_battery_runs_on(monkeypatch):
    monkeypatch.setitem(selftest._WITNESS_KNOTS, 1, [(0.0, -0.5), (1.0, 1.0)])
    rows = selftest.criterion_conjugation_witness(DEFAULT_GRID, DEFAULT_SEED)
    assert (rows[0].passed, rows[0].detail) == (False, "zeta is not strictly positive below n")
    assert all(row.passed for row in rows[1:])
    results = run_selftest()
    assert len(results) == 30
    assert [row.name for row in results if not row.passed] == ["[7] conjugation witness identity, n=1"]
