# anchors pytest's rootdir so tests/oracles.py is importable from any cwd

import pytest

from arrowlab import experiments


@pytest.fixture
def no_helpers(monkeypatch):
    """No thread-count variable set: BLAS takes every core, so no helper
    thread runs and the calling thread runs every chunk, as on a machine
    whose BLAS is not pinned."""
    for var in experiments.THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
