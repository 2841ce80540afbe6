import os

import pytest

from keyrace import sampler

from worked_example import write_worked_example_csv


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
