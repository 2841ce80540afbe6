import errno
import os

import pytest

from keyrace import sampler

from children import assert_no_children
from worked_example import write_worked_example_csv


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test fails if it leaves a forked child behind."""
    yield
    assert_no_children()


@pytest.fixture
def worked_example_csv(tmp_path):
    return write_worked_example_csv(tmp_path / "worked.csv")


@pytest.fixture
def forks(monkeypatch):
    """The number of children forked so far in this test, as a one-item list.

    Three CPUs are usable, so a read of three pieces, or a race of three
    workers, forks two children on any host.
    """
    count, fork = [0], os.fork
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)

    def counting_fork():
        pid = fork()
        count[0] += pid != 0
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


@pytest.fixture(params=["every-fork", "second-fork"])
def failing_fork(request, monkeypatch):
    """``os.fork`` raising EAGAIN on every call, or on the second only, as when the host
    runs out of processes; three CPUs are usable, so a read or race asks for two forks."""
    calls, fork = [0], os.fork
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)

    def fork_or_fail():
        calls[0] += 1
        if request.param == "every-fork" or calls[0] == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_or_fail)
