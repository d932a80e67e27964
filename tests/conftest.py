import glob
import multiprocessing

import numpy as np
import pytest

from rmtdetect import DataSource, les, workers

ACCEPTANCE_LINES = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def child_pids(pid="self"):
    """Pids of the child processes of pid, running or defunct (Linux only)."""
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as fh:
            pids += [int(p) for p in fh.read().split()]
    return pids


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a test left a child process behind, running or defunct.

    Worker processes must all be joined before the call that started them
    returns; a leftover one would outlive the run.
    """
    left = set(child_pids())
    # read after /proc: active_children() also reaps finished workers
    left.update(proc.pid for proc in multiprocessing.active_children())
    if left:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line(f"child processes left by the tests: {sorted(left)}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def at_workers(monkeypatch):
    """at_workers(n, fn, *args): fn(*args) with n workers and a cold
    calibration cache; afterwards no worker process may be left."""

    def run(n, fn, *args):
        monkeypatch.setattr(workers, "count", lambda: n)
        monkeypatch.setattr(les, "_ring_cache", {})
        try:
            return fn(*args)
        finally:
            assert multiprocessing.active_children() == []
            assert child_pids() == []

    return run


@pytest.fixture
def gaussian_source():
    """Small deterministic Gaussian source for structural tests."""
    rng = np.random.default_rng(424242)
    vals = rng.standard_normal((12, 80))
    ids = tuple(f"n{i:02d}" for i in range(12))
    return DataSource(vals, ids, tuple(range(80)))
