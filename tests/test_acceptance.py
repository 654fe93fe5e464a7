"""Acceptance suite: runs every criterion of the property battery at its
pinned tolerance and prints one pass/fail line per check.

One test per row of ``selftest.CRITERIA``, named
``test_criterion_<label>_<criterion name>``."""

from types import SimpleNamespace

import pytest

from fockindex import selftest
from fockindex.selftest import CRITERIA, DEFAULT_GRID, DEFAULT_SEED, run_selftest

# Criterion 12 runs a member whose zeta approaches its limit slowly, so its
# last sample is off the tail and the centrality probes warn on it.
UNRESOLVED_MEMBER = pytest.mark.filterwarnings("ignore::fockindex.UnresolvedTailWarning")


def _criterion_test(label, criterion):
    def test():
        results = criterion(DEFAULT_GRID, DEFAULT_SEED)
        for row in results:
            print(f"{'PASS' if row.passed else 'FAIL'}  criterion {label}: {row.name} -- {row.detail}")
        failures = [row.name for row in results if not row.passed]
        assert not failures, f"criterion {label} failed: {failures}"

    return UNRESOLVED_MEMBER(test) if label == "12" else test


for _label, _criterion in CRITERIA:
    globals()[f"test_criterion_{int(_label):02d}_{_criterion.__name__.removeprefix('criterion_')}"] = _criterion_test(
        _label, _criterion
    )


@UNRESOLVED_MEMBER
def test_full_battery_reports_thirty_checks():
    results = run_selftest()
    assert len(results) == 30
    assert all(row.passed for row in results)


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
