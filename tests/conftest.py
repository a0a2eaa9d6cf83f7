import numpy as np
import pytest

from ranktail import simulate

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
    """The in-degree array of the latest ``simulate.sample_indegree`` call,
    as the list's one element; the draws themselves are unchanged."""
    drawn = []
    draw = simulate.sample_indegree

    def spy(spec, rng, size):
        drawn[:] = [draw(spec, rng, size)]
        return drawn[0]

    monkeypatch.setattr(simulate, "sample_indegree", spy)
    return drawn
