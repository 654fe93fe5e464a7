"""Acceptance suite: runs every criterion of the property battery at its
pinned tolerance and prints one pass/fail line per check.

One test per row of ``selftest.CRITERIA``, named
``test_criterion_<label>_<criterion name>``."""

from fockindex.selftest import CRITERIA, DEFAULT_GRID, DEFAULT_SEED, run_selftest


def _criterion_test(label, criterion):
    def test():
        results = criterion(DEFAULT_GRID, DEFAULT_SEED)
        for row in results:
            print(f"{'PASS' if row.passed else 'FAIL'}  criterion {label}: {row.name} -- {row.detail}")
        failures = [row.name for row in results if not row.passed]
        assert not failures, f"criterion {label} failed: {failures}"

    return test


for _label, _criterion in CRITERIA:
    globals()[f"test_criterion_{int(_label):02d}_{_criterion.__name__.removeprefix('criterion_')}"] = _criterion_test(
        _label, _criterion
    )


def test_full_battery_reports_thirty_checks():
    results = run_selftest()
    assert len(results) == 30
    assert all(row.passed for row in results)
