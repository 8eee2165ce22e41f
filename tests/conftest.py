"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest


@pytest.fixture
def src_env():
    """Environment of a fresh interpreter that imports blocksketch from this
    checkout's src/, as pytest's own `pythonpath` setting does in-process."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail("a child process outlived the test "
                + ("and is still running" if pid == 0 else f"unreaped (pid {pid})"))
