"""Shared fixtures and the acceptance-suite result printer."""

from __future__ import annotations

from pathlib import Path

import pytest

from fairshare.report import run_scenario
from fairshare.scenario import parse_scenario

pytest.register_assert_rewrite("builders")  # the shared law checks report values, as tests do

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_acceptance_results: list[tuple[str, str]] = []


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def load_scenario():
    def _load(name: str):
        path = SCENARIO_DIR / f"{name}.fsp"
        return parse_scenario(path.read_text(), label=name)

    return _load


@pytest.fixture(scope="session")
def reports(load_scenario):
    """The capacity reports of the shipped scenarios report1-5, by number."""
    return {n: run_scenario(load_scenario(f"report{n}")) for n in range(1, 6)}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_results:
        mark = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{mark:>6}  {name}")
