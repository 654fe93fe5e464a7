"""Acceptance suite: runs every criterion of the property battery at its
pinned tolerance and prints one pass/fail line per check.

One test per row of ``selftest.CRITERIA``, named
``test_criterion_<label>_<criterion name>``."""

import pytest

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
