import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and leave no example
# database behind
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

_ACCEPTANCE_REPORTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_REPORTS.append(report)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_REPORTS:
        return
    terminalreporter.section("acceptance criteria")
    for report in _ACCEPTANCE_REPORTS:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        terminalreporter.write_line(f"{outcome}  {name}  [{report.duration:.1f}s]")
