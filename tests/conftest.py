"""Shared fixtures and the acceptance-criteria report.

The long attractor trajectory is expensive (tens of seconds), so it is
built once per session and only when a test actually requests it. The
terminal-summary hook prints one PASS/FAIL line per acceptance test so the
criteria can be audited at a glance from the pytest output.
"""

import numpy as np
import pytest

from analogdist.catalog import Catalog, save_catalog
from analogdist.lorenz import generate_trajectory

_ACCEPTANCE_REPORTS = []


@pytest.fixture(scope="session")
def l63_source():
    """2e6 attractor samples at stride 20, shared by the statistical tests.

    The stride keeps consecutive rows far enough apart that random
    subsamples behave like independent draws from the invariant measure.
    """
    states = generate_trajectory(n_steps=2_000_000, dt=0.01, burn_in=10_000, stride=20, seed=11)
    return Catalog(
        states,
        np.arange(len(states), dtype=np.int64),
        name="l63-long",
        units="model units",
    )


@pytest.fixture(scope="session")
def l63_source_path(l63_source, tmp_path_factory):
    path = tmp_path_factory.mktemp("l63") / "source.anacat"
    save_catalog(l63_source, path)
    return path


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        _ACCEPTANCE_REPORTS.append((item.name, report.outcome, report.duration))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_REPORTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome, duration in _ACCEPTANCE_REPORTS:
        flag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"[{flag}] {name}  ({duration:.1f}s)")
