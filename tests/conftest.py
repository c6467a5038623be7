"""Shared pytest hooks: print one PASS/FAIL line per acceptance criterion;
and fresh_kernels, which empties the exact and residue kernels' caches, the
specs' derived steps, the running pass and the kept factorial table before
and after a test."""
import pytest

from supercong import congruences

_acceptance: list[tuple[str, str]] = []


@pytest.fixture
def fresh_kernels():
    """Empty _series_exact's, _series_residue's and _spec_step's caches and
    _running, and drop the kept factorial table (_table), which families
    and binomial scalars share, and again after the test; the test may call
    the fixture's value to empty them in between, as before a second run of
    the same points, or in a fresh worker."""
    def clear():
        congruences._series_exact.cache_clear()
        congruences._series_residue.cache_clear()
        congruences._spec_step.cache_clear()
        congruences._running.clear()
        congruences._table = None
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
