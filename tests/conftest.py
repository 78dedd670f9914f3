from contextlib import contextmanager

import pytest

from k3stab.scenario import build_scenario

ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


@contextmanager
def acceptance_criterion(name: str):
    """Record one acceptance line; printed in the terminal summary."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((name, False))
        raise
    ACCEPTANCE_RESULTS.append((name, True))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, ok in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(
                f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
            )


@pytest.fixture(scope="session")
def sc28():
    return build_scenario(form=[2, 0, 8])


@pytest.fixture(scope="session")
def sc22():
    return build_scenario(form=[2, 0, 2])


@pytest.fixture(scope="session")
def sc24():
    return build_scenario(form=[2, 0, 4])


@pytest.fixture(scope="session")
def searched28(sc28):
    return sc28.result
