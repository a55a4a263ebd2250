import numpy as np
import pytest

from partialsearch import DenseState


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_state(rng, n, with_ancilla=False):
    """Random real unit vector as a dense state (dynamics here are real)."""
    size = 2 * n if with_ancilla else n
    amp = rng.standard_normal(size)
    amp /= np.linalg.norm(amp)
    return DenseState(amp, n, has_ancilla=with_ancilla)
