"""Two pieces of one job, one in a forked worker process and one in this one.

:func:`in_two_processes` is the one way the package shares work with a
second process.  The protocol:

- The worker ignores SIGINT: Ctrl-C is this process's to report.  It writes
  the bytes that its work returns, or the pickled exception that ended it, to
  a pipe, prints nothing and leaves by ``os._exit`` (0 after the bytes, else
  1).  So it never returns to the caller's code and flushes no buffer it
  inherited.
- This process runs its own part meanwhile.  If that raises, it kills the
  worker and raises its own error: the command reports one failure.
- Either way it reaps the worker before it returns.  A worker ended by a
  signal raises ``QOpinionError("<name> worker ended by signal N")``; a
  worker's exception is raised here with its type and message, and reported
  by the command like one of its own.

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
    """``own()`` in this process and ``work()`` in one forked worker, by the
    protocol above: the result of ``own()`` and the bytes of ``work()``."""
    read, write = os.pipe()
    with open(read, "rb") as result:
        with open(write, "wb") as pipe:  # closed here: read() ends as the worker exits
            pid = os.fork()
            if not pid:
                _worker(pipe, work)
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
    if code:
        raise pickle.loads(data)
    return mine, data


def _worker(pipe, work) -> NoReturn:
    """The forked worker's whole life: ``work()``, its bytes or the pickled
    exception that ended it written to ``pipe``, then ``os._exit``."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            data = work()
            code = 0
        except BaseException as exc:  # raised again by the caller
            data = pickle.dumps(exc)
        pipe.write(data)
        pipe.flush()
    finally:
        os._exit(code)
