"""The one check that a test left no forked child behind."""

import os

import pytest


def assert_no_children():
    """Fails if this process has a child, live or exited but not reaped."""
    with pytest.raises(ChildProcessError):  # every forked child has been reaped
        os.waitpid(-1, os.WNOHANG)
