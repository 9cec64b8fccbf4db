import multiprocessing

import numpy as np
import pytest

from pairsim import reference_preset


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def preset():
    return reference_preset()


@pytest.fixture(autouse=True)
def no_process_left():
    """Every test ends with no child process of this one still running."""
    yield
    assert multiprocessing.active_children() == []
