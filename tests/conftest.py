import os

import pytest

from tausurvey import survey as survey_mod
from tausurvey.delta import delta_coefficients


@pytest.fixture(autouse=True)
def no_tausurvey_env(monkeypatch):
    """Every test starts with no TAUSURVEY_ variable set, whatever the shell has."""
    for name in [k for k in os.environ if k.startswith("TAUSURVEY_")]:
        monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def table10k():
    return delta_coefficients(10_000)


@pytest.fixture(scope="session")
def table500():
    return delta_coefficients(500)


@pytest.fixture
def pool_on(monkeypatch):
    """Make survey pool every batch, as on a 4-CPU host; yields the pool sizes asked for.

    A size above the 4 usable CPUs fails before anything is forked.
    """
    started = []
    real = survey_mod._start_pool

    def start(processes):
        started.append(processes)
        assert processes <= 4, f"pool of {processes} asked for on 4 usable CPUs"
        return real(processes)

    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 4)
    monkeypatch.setattr(survey_mod, "_start_pool", start)
    return started


class _FakePool:
    """Runs the tasks in-process, or fails them, and records what survey asked of it."""

    def __init__(self, processes, calls, fail):
        self.calls, self.fail = calls, fail
        calls.append(("start", processes))

    def map(self, fn, chunks):
        if self.fail:
            raise MemoryError("task failed")
        return map(fn, chunks)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.calls.append(("shutdown", wait, cancel_futures))


@pytest.fixture
def fake_pool(monkeypatch):
    """install(fail=False) swaps survey's pool factory for a fake that spawns
    nothing, and returns the list of calls made on it."""
    calls = []

    def install(fail=False):
        monkeypatch.setattr(survey_mod, "_start_pool", lambda n: _FakePool(n, calls, fail))
        return calls

    return install
