"""`qopinion._fork.in_two_processes`, called directly.

The worker's value and its failure come back in one pickle: a result of any
picklable type, an exception with its type and message, and a failure to
cross the pipe as one ``QOpinionError``, which names the outcome that could
not cross when the worker had one.  A worker ended by a signal, or
killed because the caller's part failed, is reaped before the call returns.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from qopinion import cli
from qopinion._fork import in_two_processes
from qopinion.errors import QOpinionError, ValidationError

from conftest import HoldsLock, TwoArgs, assert_no_child_left, raising


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


@pytest.mark.parametrize("value", [np.arange(16, dtype=np.int64) * 3, None])
def test_the_workers_value_comes_back(value):
    mine, theirs = in_two_processes(lambda: value, lambda: "own", "demo")
    assert mine == "own"
    if value is None:
        assert theirs is None
    else:
        assert theirs.dtype == np.int64 and np.array_equal(theirs, value)


@pytest.mark.parametrize(
    "exc",
    [
        ValidationError("bad input"),
        MemoryError("worker span"),
        OSError(28, "No space left on device", "/full/disk"),
    ],
)
def test_a_worker_exception_keeps_its_type_and_message(exc):
    with pytest.raises(type(exc)) as info:
        in_two_processes(raising(exc), lambda: None, "demo")
    assert type(info.value) is type(exc)
    assert str(info.value) == str(exc)


@pytest.mark.parametrize(
    "work, names",
    [
        # The worker tries the round trip, and sends the outcome's repr and the
        # error in its place where it fails.
        (raising(TwoArgs("y", 2)), "TwoArgs('y'): TypeError("),
        (raising(HoldsLock("y")), "HoldsLock('y'): TypeError(\"cannot pickle '_thread.lock"),
        (lambda: threading.Lock(), "<unlocked _thread.lock object at "),
        (lambda: os._exit(5), "EOFError('Ran out of input')"),  # leaves before it writes
    ],
    ids=["extra-init-argument", "unpicklable-exception", "unpicklable-result", "no-outcome"],
)
def test_an_outcome_that_cannot_cross_is_one_qopinion_error(capfd, work, names):
    with pytest.raises(QOpinionError) as info:
        in_two_processes(work, lambda: None, "demo")
    assert type(info.value) is QOpinionError
    assert str(info.value).startswith(f"demo worker failed; unreadable outcome ({names}")
    assert "\n" not in str(info.value)
    # The command prints it as its one line and exits 3.
    assert cli._report(info.value) == 3
    assert capfd.readouterr() == ("", f"{info.value}\n")


def test_a_signalled_worker_is_reported_by_its_signal():
    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(QOpinionError, match=f"^demo worker ended by signal {int(signal.SIGKILL)}$"):
        in_two_processes(killed, lambda: None, "demo")


def test_a_caller_error_kills_and_reaps_the_worker():
    def slow():
        time.sleep(60)  # a worker left to finish would hold the caller here

    start = time.monotonic()
    with pytest.raises(MemoryError, match="caller span"):
        in_two_processes(slow, raising(MemoryError("caller span")), "demo")
    assert time.monotonic() - start < 30


def test_the_caller_error_wins_over_the_workers():
    with pytest.raises(ValidationError, match="caller"):
        in_two_processes(raising(MemoryError("worker")), raising(ValidationError("caller")), "demo")
