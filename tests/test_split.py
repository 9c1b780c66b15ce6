"""The one fork path: every outcome joins to the one-process bytes, and no
child outlives the call."""

import os
import warnings

import pytest

from wood._split import in_two


def _numbers(start, stop):
    """The bytes of items ``[start, stop)``: each index and a semicolon."""
    return b"".join(b"%d;" % i for i in range(start, stop))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestInTwo:
    N = 100_000  # about 300 kB from the child

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_child_renders_the_second_half(self, monkeypatch):
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        parts = in_two(_numbers, self.N, True)
        assert len(forks) == 1
        assert parts == [_numbers(0, self.N // 2), _numbers(self.N // 2, self.N)]
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
    def test_renders_in_one_process_without_a_fork(self, monkeypatch, cpus, big, broken, error):
        # One CPU or a small job: no fork. A fork or an in-memory file that
        # fails (no memory, process slot or descriptor): one process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def failing(*args):
            raise error(broken)

        monkeypatch.setattr(os, broken, failing)
        assert in_two(_numbers, self.N, big) == [_numbers(0, self.N)]
        _no_child_left()

    def test_a_failed_child_has_its_half_rendered_here(self):
        parent = os.getpid()
        calls = []

        def render(start, stop):
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            calls.append((start, stop))
            return _numbers(start, stop)

        assert b"".join(in_two(render, self.N, True)) == _numbers(0, self.N)
        assert calls == [(0, self.N // 2), (self.N // 2, self.N)]
        _no_child_left()

    def test_an_error_here_waits_for_the_child(self):
        parent = os.getpid()

        def render(start, stop):
            if os.getpid() == parent:
                raise ValueError("declined")
            return _numbers(start, stop)

        with pytest.raises(ValueError, match="declined"):
            in_two(render, self.N, True)
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
            parts = in_two(_numbers, self.N, True)
        assert caught == []
        assert b"".join(parts) == _numbers(0, self.N)
        _no_child_left()
