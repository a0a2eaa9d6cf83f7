import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ranktail import blocks, simulate

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and report.skipped):
            _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    labels = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for nodeid, outcome in sorted(_acceptance_outcomes.items()):
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{labels.get(outcome, outcome.upper()):4s}  {name}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def drawn_indegrees(monkeypatch):
    """The in-degrees of the latest pool generation, as the list's one
    element: the generation's ``InDegreeLaw.sample_strata`` calls, which run
    on worker threads, joined in order of their stream's spawn key
    (generation, 0, first owner).  The draws themselves are unchanged."""
    drawn, pieces, lock = [], {}, threading.Lock()
    draw = simulate.InDegreeLaw.sample_strata

    def spy(law, rng, strata, count):
        n = draw(law, rng, strata, count)
        key = rng.bit_generator.seed_seq.spawn_key
        if key:  # a piece of a pool generation
            with lock:
                pieces[key] = n
                latest = max(pieces)[0]
                drawn[:] = [np.concatenate([pieces[k] for k in sorted(pieces)
                                            if k[0] == latest])]
        return n

    monkeypatch.setattr(simulate.InDegreeLaw, "sample_strata", spy)
    return drawn


class SpyPool(ThreadPoolExecutor):
    """A thread pool that records its instances, its submits and its shutdown."""

    made: list["SpyPool"] = []

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self.max_workers = max_workers
        self.submits = 0
        self.shut_down = False
        SpyPool.made.append(self)

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return super().submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, **kwargs):
        self.shut_down = wait
        super().shutdown(wait, **kwargs)


@pytest.fixture
def spy_pool(monkeypatch):
    """SpyPool in place of the thread pool of `blocks._map_ordered`, the one
    place ranktail makes threads; ``spy_pool.made`` lists the pools made."""
    monkeypatch.setattr(SpyPool, "made", [])
    monkeypatch.setattr(blocks, "ThreadPoolExecutor", SpyPool)
    return SpyPool
