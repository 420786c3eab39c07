import threading

import numpy as np
import pytest

from ubssvc import MixingMatrix, default_mixing_matrix


@pytest.fixture
def matrix() -> MixingMatrix:
    return default_mixing_matrix()


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


@pytest.fixture
def no_threads(monkeypatch):
    """Fail the test when the code under it starts a thread."""

    def refuse(thread):
        raise AssertionError(f"started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
