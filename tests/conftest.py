"""Shared test helpers: seeded random states, projectors, and budget inputs."""

import numpy as np
import pytest
from hypothesis import settings

from shotdp import make_density, make_projector

# Property tests draw the same examples on every run, and replay no saved failures.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def random_density(rng, dim):
    """Ginibre construction: G G^dag normalized is always a valid state."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return make_density(m / np.trace(m))


def random_projector(rng, dim, rank):
    """Orthonormal columns from a QR factorization of a random matrix."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    return make_projector(q[:, :rank])


@pytest.fixture
def rng():
    """One fixed-seed generator per test, so every test is reproducible."""
    return np.random.default_rng(20260817)
