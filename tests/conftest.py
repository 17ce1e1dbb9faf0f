from contextlib import contextmanager

import pytest

import nlds.matspec

ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


@pytest.fixture
def criterion():
    """Record a pass/fail line for one acceptance criterion; the lines
    are printed in the terminal summary."""

    @contextmanager
    def _criterion(num: int, description: str):
        try:
            yield
        except BaseException:
            ACCEPTANCE_RESULTS.append((num, description, False))
            raise
        ACCEPTANCE_RESULTS.append((num, description, True))

    return _criterion


@pytest.fixture
def metzler_bound_orders(monkeypatch) -> list:
    """The order of each matrix that nlds.matspec.metzler_bound is
    called on during the test."""
    orders = []
    real = nlds.matspec.metzler_bound

    def counting(A, *args, **kwargs):
        orders.append(len(A))
        return real(A, *args, **kwargs)
    monkeypatch.setattr(nlds.matspec, "metzler_bound", counting)
    return orders


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, description, ok in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{num:02d}] {status}  {description}")
