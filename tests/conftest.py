"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest


@pytest.fixture
def src_env():
    """Environment of a fresh interpreter that imports blocksketch from this
    checkout's src/, as pytest's own `pythonpath` setting does in-process."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
