"""Shared pytest hooks: print one PASS/FAIL line per acceptance criterion;
and fresh_kernels, which empties the exact and residue kernels' caches and
the running pass before and after a test."""
import pytest

from supercong import congruences

_acceptance: list[tuple[str, str]] = []


@pytest.fixture
def fresh_kernels():
    """Empty _series_exact's and _series_residue's caches and _running, and
    again after the test; the test may call the fixture's value to empty
    them in between, as before a second run of the same points."""
    def clear():
        congruences._series_exact.cache_clear()
        congruences._series_residue.cache_clear()
        congruences._running.clear()
    clear()
    yield clear
    clear()


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _acceptance.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, outcome in sorted(_acceptance):
        mark = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{mark:>6}  {name}")
