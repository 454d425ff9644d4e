"""Shared fixtures and the acceptance-summary reporting hook."""

import os
from pathlib import Path

import pytest

from schubert.cartan import LieType
from schubert.weyl import enumerate_cosets


@pytest.fixture(scope="session")
def a3_full():
    return enumerate_cosets(LieType.parse("A3"), {1, 2, 3})


@pytest.fixture(scope="session")
def b3_full():
    return enumerate_cosets(LieType.parse("B3"), {1, 2, 3})


@pytest.fixture(scope="session")
def f4_full():
    return enumerate_cosets(LieType.parse("F4"), {1, 2, 3, 4})


@pytest.fixture(scope="session")
def f4_p1():
    return enumerate_cosets(LieType.parse("F4"), {1})


@pytest.fixture(scope="session")
def e6_p2():
    return enumerate_cosets(LieType.parse("E6"), {2})


@pytest.fixture(scope="session")
def e7_p2():
    return enumerate_cosets(LieType.parse("E7"), {2})


@pytest.fixture
def subprocess_env():
    """Environment in which a child interpreter imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


# -- acceptance reporting -------------------------------------------------
#
# Acceptance tests record one line each; the summary block prints them all
# so a run ends with an explicit pass/fail line per criterion.

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_record(request):
    def record(message):
        _ACCEPTANCE_LINES.append((request.node.name, message))

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, message in _ACCEPTANCE_LINES:
        terminalreporter.write_line(f"{name}: {message}")
