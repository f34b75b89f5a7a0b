import os
import sys
import threading

import pytest


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising(exc: BaseException):
    """A function that raises ``exc``, to stand in for a failing part."""

    def fail():
        raise exc

    return fail


class TwoArgs(Exception):
    """Passes one of its two arguments to ``Exception``, so unpickling it
    calls ``TwoArgs(message)`` and fails: a worker's exception that cannot
    come back."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class HoldsLock(Exception):
    """Cannot be pickled at all, since a lock is one of its attributes: a
    worker's exception that cannot even be sent."""

    def __init__(self, message: str):
        super().__init__(message)
        self.lock = threading.Lock()


def pytest_terminal_summary(terminalreporter):
    """Echo one verdict line per acceptance criterion after capture ends."""
    verdicts = []
    # Use the instance pytest actually ran; a fresh import would not carry
    # the collected verdicts.
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None:
            verdicts = getattr(module, "VERDICTS", [])
            break
    if verdicts:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria verdicts:")
        for line in verdicts:
            terminalreporter.write_line(line)
