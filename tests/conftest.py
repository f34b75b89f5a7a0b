import os
import sys

import pytest


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
