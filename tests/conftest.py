"""Shared test helpers: seeded random states, projectors, an exact binomial
law, and budget inputs."""

import math
from fractions import Fraction

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


def exact_binomial_pmf(mu, n):
    """Bin(n, mu) at the counts 0..n, each the correctly rounded double of
    the exact rational C(n, k) mu^k (1 - mu)^(n - k) for the double mu."""
    a = Fraction(mu)
    b = 1 - a
    return np.array([float(math.comb(n, k) * a**k * b ** (n - k)) for k in range(n + 1)])


@pytest.fixture
def rng():
    """One fixed-seed generator per test, so every test is reproducible."""
    return np.random.default_rng(20260817)
