import numpy as np
import pytest

from bergmanlab.measures import Measure, QuadConfig

# Unit tests run on a reduced rule wherever the integrands are polynomial-like;
# the acceptance suite exercises the full default sizes.
SMALL_QUAD = QuadConfig(n_radial=64, n_angular=128)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture
def small_quad():
    return SMALL_QUAD


def sample_disk(rng, n, rmax=0.99):
    """Area-uniform sample of the disk of radius rmax."""
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


class BrokenPsi(Measure):
    """A measure whose transform is 1 at the first centre and ``value`` at the
    others, with boundary exponent ``exponent``."""

    def __init__(self, value, exponent):
        self.value, self.exponent = value, exponent

    def _psi(self, centers, y, t):
        out = np.full(len(centers), self.value)
        out[0] = 1.0
        return out

    def boundary_exponent(self, t):
        return self.exponent

    def spec(self):
        return {"type": "broken"}
