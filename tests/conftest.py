"""Shared fixtures: a recorder that prints one line per acceptance check,
and the equivalence tool loaded as a module."""
import importlib.util
import pathlib

import pytest

_acceptance_lines = []


@pytest.fixture
def acceptance():
    """Record a one-line measured result, echoed after the run."""

    def record(line: str):
        _acceptance_lines.append(line)

    return record


@pytest.fixture(scope="session")
def equivalence():
    """tools/equivalence.py, which lives outside the package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
    spec = importlib.util.spec_from_file_location("equivalence", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance summary")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
