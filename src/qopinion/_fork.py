"""Two pieces of one job, one in a forked worker process and one in this one.

:func:`in_two_processes` is the one way the package shares work with a
second process, and this protocol the one format in which results cross:

- The worker ignores SIGINT: Ctrl-C is this process's to report.  It pickles
  ``(True, result)`` of its work, or ``(False, exc)`` for the exception that
  ended it, to a pipe, prints nothing and leaves by ``os._exit(0)``.  So it
  never returns to the caller's code and flushes no buffer it inherited, and
  its exit status only says whether a signal killed it.  A result or
  exception that does not survive the pickle round trip is sent as
  ``(False, QOpinionError("<name> worker failed; unreadable outcome (<its
  repr>: <the pickling error>)"))``, so its message still reaches this
  process.
- This process runs its own part meanwhile.  If that raises, it kills the
  worker and raises its own error: the command reports one failure.
- Either way it reaps the worker before it returns.  A worker ended by a
  signal raises ``QOpinionError("<name> worker ended by signal N")``; a
  worker's exception is raised here with its type and message, and reported
  by the command like one of its own.  No outcome at all (a worker that
  left early), or one that still cannot be unpickled here, raises
  ``QOpinionError("<name> worker failed; unreadable outcome (<the error>)")``.

The fork copies only the calling thread, so the work runs Python,
element-wise numpy and the generator only, never a BLAS routine, whose
threads would be missing.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import NoReturn

from .errors import QOpinionError


def in_two_processes(work, own, name: str):
    """``(own(), work())``, with ``own()`` run in this process and ``work()``
    in one forked worker, by the protocol above."""
    read, write = os.pipe()
    with open(read, "rb") as result:
        with open(write, "wb") as pipe:  # closed here: read() ends as the worker exits
            pid = os.fork()
            if not pid:
                _worker(pipe, work, name)
        try:
            mine = own()
            data = result.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)  # this process's error is the one reported
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise QOpinionError(f"{name} worker ended by signal {-code}")
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:
        raise QOpinionError(f"{name} worker failed; unreadable outcome ({exc!r})") from None
    if not ok:
        raise value
    return mine, value


def _worker(pipe, work, name: str) -> NoReturn:
    """The forked worker's whole life: ``work()``, its pickled outcome
    written to ``pipe``, then ``os._exit(0)``."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            outcome = True, work()
        except BaseException as exc:  # raised again by the caller
            outcome = False, exc
        try:
            pickle.loads(data := pickle.dumps(outcome))  # the round trip, tried here
        except Exception as exc:  # sent instead: one error that names the outcome
            what = " ".join(f"{outcome[1]!r}: {exc!r}".split())  # on one line
            failure = QOpinionError(f"{name} worker failed; unreadable outcome ({what})")
            data = pickle.dumps((False, failure))
        pipe.write(data)
        pipe.flush()
    finally:
        os._exit(0)
