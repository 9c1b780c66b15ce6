"""The package's one fork path: a job split between this process and a
forked child, with the bytes of the job done in one process."""

from __future__ import annotations

import os
import threading
import warnings


def in_two(render, n: int, big: bool) -> list:
    """The parts of ``render(0, n)``, whose bytes-like result for items
    ``[0, n)`` must be its results for ``[0, cut)`` and ``[cut, n)`` joined.

    Where ``big`` is true, ``n >= 2``, this process may run on two or more
    CPUs and no other Python thread runs, a forked child renders
    ``[cut, n)`` into an anonymous in-memory file while this process renders
    ``[0, cut)``; the result is ``[head, tail]``. Otherwise, and where the
    fork fails, it is ``[render(0, n)]``. A child that does not exit with
    status 0 has its half rendered here. The child is always waited for,
    and an exception of ``render`` here reaches the caller.

    A pipe would hold the child's bytes until this process finished its own
    half and then pass them over 64 kB at a time: 3 MB took about 12 ms that
    way against 3 ms from the file, the wait for the child's exit included."""
    if not (
        big
        and n >= 2
        and hasattr(os, "fork")
        and hasattr(os, "memfd_create")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        # Another Python thread could hold a lock that the child then waits
        # on forever.
        and threading.active_count() == 1
    ):
        return [render(0, n)]
    cut = n // 2
    try:
        fd = os.memfd_create("half")
    except OSError:  # no file descriptor or memory left: render in one
        return [render(0, n)]
    with open(fd, "r+b") as half:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork with threads alive may
                # deadlock the child. Only one Python thread runs, so the
                # threads left are BLAS workers, which OpenBLAS stops before
                # a fork; and the child only renders, which calls no BLAS,
                # and leaves by os._exit.
                # The warning has no reader here, and it must not reach a
                # caller that turns warnings into errors.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:  # no memory or process slot left: render in one
            return [render(0, n)]
        if pid == 0:
            # The child only renders, and reports by its exit status.
            # os._exit keeps it from returning into the caller's code, and
            # from running atexit handlers or flushing output buffers that it
            # shares with this process.
            code = 1
            try:
                half.write(render(cut, n))
                half.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            head = render(0, cut)
        finally:
            _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) == 0:
            half.seek(0)
            return [head, half.read()]
    return [head, render(cut, n)]
