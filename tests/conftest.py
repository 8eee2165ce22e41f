"""Fixtures shared by the test modules."""
import contextlib
import os
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="session")
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



@pytest.fixture(scope="session")
def watch_retractions():
    """A context manager: while it is open, each `sdp._project` call, rejected
    trial points included, appends max_i | ||Y_i|| - 1 | of its result to the
    list it yields (nan if a row is nan; read it with np.max, which keeps nan).
    Session-scoped, so hypothesis bodies may open it once per example."""
    from blocksketch import sdp

    @contextlib.contextmanager
    def watch():
        project, deviations = sdp._project, []

        def watched(y, balanced):
            out = project(y, balanced)
            deviations.append(float(np.abs(np.sqrt(np.einsum("ij,ij->i", out, out)) - 1.0).max()))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "_project", watched)
            yield deviations

    return watch
