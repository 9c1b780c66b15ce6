"""The package's one fork path: two jobs side by side, one in this process
and one in a forked child, with the results of running both in one process.

:func:`beside` returns ``(here(), there())`` on every path. A large CSV file
parses in two byte ranges; a large checkpoint and a large ``scores.csv``
render their rows in two halves. Where no child is forked, this process
runs ``here`` and then ``there``. No job calls :func:`beside`, so at most two
processes run at once."""

from __future__ import annotations

import os
import signal
import threading
import warnings


def beside(here, there, big: bool) -> tuple:
    """``(here(), there())``, where ``there`` returns bytes-like, with the
    results, errors and error order of one process running ``here`` and then
    ``there``.

    Where ``big`` is true, a forked child writes the bytes of ``there()``
    into an anonymous in-memory file while this process runs ``here()``.
    No child is forked where ``big`` is false, this process may run on one
    CPU only, another Python thread runs, or the in-memory file or the fork
    fails; this process then runs ``here`` and then ``there``. A child that
    does not exit with status 0 has ``there()`` run here after ``here()``.
    The child is always waited for; where ``here`` raises, it is killed
    first, and the exception reaches the caller.

    A pipe would hold the child's bytes until this process finished its own
    job and then pass them over 64 kB at a time: 3 MB took about 12 ms that
    way against 3 ms from the file, the wait for the child's exit included.

    Neither job may call BLAS, so the model's forward pass stays out of the
    child. A prototype of ``wood score`` that ran the forward pass, scoring
    and rendering of the second half of the rows in the child wrote the same
    bytes, but on the 25k-row ``score`` benchmark files on two vCPUs it took
    222-238 ms at 2 BLAS threads against 140-168 ms with all of it here. At 1
    thread it took 117-123 ms against 164-177 ms, so the loss is the two
    processes' BLAS threads contending for the two CPUs. ``score`` and
    ``evaluate`` now run at one thread (:func:`wood._blas.one_thread`); a
    later prototype that, at one thread, forked the forward pass of half the
    blocks read no gain on those files over 5 pairs (score 188k rows/s
    against 191k without the child, evaluate 262k against 261k), so the
    forward pass stays here."""
    if not (
        big
        and hasattr(os, "fork")
        and hasattr(os, "memfd_create")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        # Another Python thread could hold a lock that the child then waits
        # on forever.
        and threading.active_count() == 1
    ):
        return here(), there()
    try:
        fd = os.memfd_create("there")
    except OSError:  # no file descriptor or memory left: one process
        return here(), there()
    pid = None
    with open(fd, "r+b") as file:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork with threads alive may
                # deadlock the child. Only one Python thread runs, so the
                # threads left are BLAS workers, which OpenBLAS stops
                # before a fork; and the child's jobs parse and render,
                # which calls no BLAS, and it leaves by os._exit.
                # The warning has no reader here, and it must not reach a
                # caller that turns warnings into errors.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:  # no memory or process slot left: one process
            pass
        if pid == 0:
            # The child only runs ``there``, and reports by its exit
            # status. os._exit keeps it from returning into the caller's
            # code, and from running atexit handlers or flushing output
            # buffers that it shares with this process.
            code = 1
            try:
                file.write(there())
                file.flush()
                code = 0
            finally:
                os._exit(code)
        if pid is not None:
            try:
                mine = here()
            except BaseException:
                # No one reads the child's bytes, so the error is
                # reported without waiting for its job.
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) == 0:
                file.seek(0)
                return mine, file.read()
    # No child, or a child that failed: this process runs what is left.
    return (here() if pid is None else mine), there()
