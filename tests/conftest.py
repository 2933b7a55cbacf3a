"""Shared pytest plumbing.

Tests marked @pytest.mark.acceptance(num, description) contribute one
[PASS]/[FAIL] line to a summary block printed at the end of the run, so
the acceptance status is visible in plain `pytest -v` output.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, description): acceptance-criterion test; adds a "
        "pass/fail line to the terminal summary",
    )
    config._acceptance_lines = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, description = marker.args
    status = "PASS" if report.passed else "FAIL"
    detail = getattr(item, "acceptance_detail", "")
    suffix = f" ({detail})" if detail else ""
    item.config._acceptance_lines.append(
        (num, f"[{status}] criterion {num}: {description}{suffix}")
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(lines):
        terminalreporter.write_line(line)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process.

    It starts no process, so a test can ask for any worker count.
    """

    def __init__(self, created, max_workers=None):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool():
    """(pool class, list of the max_workers each pool was created with)."""
    created = []

    def pool(max_workers=None):
        return RecordingPool(created, max_workers)

    return pool, created
