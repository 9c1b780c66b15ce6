"""The one fork path: every outcome gives the one-process results, and no
child outlives the call."""

import os
import time
import warnings

import pytest

from wood._split import beside


def _numbers(start, stop):
    """The bytes of items ``[start, stop)``: each index and a semicolon."""
    return b"".join(b"%d;" % i for i in range(start, stop))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch):
    """The list that grows by one on each ``os.fork`` call, in this process
    or in a child forked after the call."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
    return forks


class TestBeside:
    N = 100_000

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_child_runs_there_beside_here(self, monkeypatch):
        forks = _counted_forks(monkeypatch)
        parent = os.getpid()
        ran_here = []

        def there():
            assert os.getpid() != parent
            return _numbers(0, self.N)

        def here():
            ran_here.append(os.getpid())
            return "here"

        assert beside(here, there, True) == ("here", _numbers(0, self.N))
        assert ran_here == [parent]
        assert len(forks) == 1
        _no_child_left()

    def test_a_failed_child_has_there_run_here_after_here(self):
        parent = os.getpid()
        calls = []

        def there():
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            calls.append("there")
            return _numbers(0, self.N)

        def here():
            calls.append("here")
            return "here"

        assert beside(here, there, True) == ("here", _numbers(0, self.N))
        assert calls == ["here", "there"]
        _no_child_left()

    def test_an_error_here_kills_and_reaps_the_child(self):
        def here():
            raise ValueError("declined")

        def there():
            time.sleep(30)
            return b""

        started = time.monotonic()
        with pytest.raises(ValueError, match="declined"):
            beside(here, there, True)
        assert time.monotonic() - started < 10
        _no_child_left()

    @pytest.mark.parametrize(
        "cpus, big, broken, error",
        [
            ({0}, True, "fork", AssertionError),
            ({0, 1}, False, "fork", AssertionError),
            ({0, 1}, True, "fork", OSError),
            ({0, 1}, True, "memfd_create", OSError),
        ],
    )
    def test_one_process_runs_both(self, monkeypatch, cpus, big, broken, error):
        # One CPU or a small job: no fork. A fork or an in-memory file that
        # fails (no memory, process slot or descriptor): one process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def failing(*args):
            raise error(broken)

        monkeypatch.setattr(os, broken, failing)
        parent = os.getpid()
        calls = []

        def here():
            calls.append(("here", os.getpid()))
            return "here"

        def there():
            calls.append(("there", os.getpid()))
            return _numbers(0, self.N)

        assert beside(here, there, big) == ("here", _numbers(0, self.N))
        assert calls == [("here", parent), ("there", parent)]

        def declined():
            raise ValueError("declined")

        calls.clear()
        with pytest.raises(ValueError, match="declined"):
            beside(declined, there, big)
        assert calls == []
        _no_child_left()

    def test_fork_warning_does_not_escape(self, monkeypatch):
        # Python 3.12+ warns in the parent when it forks with threads alive.
        real_fork = os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                warnings.warn("use of fork() may lead to deadlocks", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            both = beside(lambda: b"here", lambda: _numbers(0, self.N), True)
        assert caught == []
        assert both == (b"here", _numbers(0, self.N))
        _no_child_left()
