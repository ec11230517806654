"""The benchmark's oracles against mpmath at small n.

Run with:  python3 -m pytest -q perfbench
"""

import math
import os
import sys

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

mpmath.mp.dps = 40
MF = mpmath.mpf

PAIRS = [(0.16, 0.15), (0.15, 0.16), (0.5, 0.45), (0.3, 0.05), (0.02, 0.2), (0.9, 0.85)]


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def mp_binom(mu, n, k):
    return mpmath.binomial(n, k) * MF(mu) ** k * (1 - MF(mu)) ** (n - k)


@pytest.mark.parametrize("d,r,n,mu", [(0.1, 1, 10, 0.15), (0.01, 2, 1000, 0.4), (1e-4, 1, 10**5, 0.7), (0.3, 3, 7, 0.05)])
def test_pure_budgets(d, r, n, mu):
    dr, m = MF(d) * r, MF(mu)
    want = dr / ((1 - m) * m) * (MF(9) / 2 * (1 - 2 * m) + MF(3) / 2 * mpmath.sqrt(n) + dr * (m + dr) * n / (1 - m))
    assert close(oracles.eps_noiseless(d, r, n, mu), float(want), 1e-12)
    p, dim = 0.4, 2
    a = (1 - MF(p)) / MF(p) * MF(d) * r * dim
    want = a / (1 - m) * (MF(9) / 2 * (1 - 2 * m) + MF(3) / 2 * mpmath.sqrt(n) + a * m * m * (1 + a) * n / (1 - m))
    assert close(oracles.eps_depolarizing(d, r, n, mu, p, dim), float(want), 1e-12)


@pytest.mark.parametrize("d,n,mu,c", [(0.01, 10, 0.15, 0.1), (0.001, 50, 0.3, 0.02), (0.1, 20, 0.15, 0.3)])
def test_tail_budgets(d, n, mu, c):
    m, cc = MF(mu), MF(c)

    def bracket(u):
        return (1 - 2 * m - u) * cc * cc / (2 * m * (1 - m - u)) + cc + u / 2

    u = n * MF(d)
    want = u / (m * (1 - m)) * bracket(u)
    assert close(oracles.eps_delta_noiseless(d, 1, n, mu, c), float(want), 1e-11)
    p, dim = 0.5, 2
    a = (1 - MF(p)) / MF(p) * MF(d) * dim
    want = a / (1 - m) * bracket(n * a)
    assert close(oracles.eps_delta_depolarizing(d, 1, n, mu, p, dim, c), float(want), 1e-11)


@pytest.mark.parametrize("convention", ["paper", "normalized"])
@pytest.mark.parametrize("mu,n", [(0.15, 10), (0.4, 1000), (0.05, 3)])
def test_tail_mass_and_its_inverse(convention, mu, n):
    s = mpmath.sqrt(MF(mu) * (1 - MF(mu)) / n)
    scale = mpmath.sqrt(2 * mpmath.pi) * s if convention == "paper" else 1
    for c in (0.001, 0.05, 0.2, 0.6):
        want = scale * mpmath.erfc(MF(c) / (mpmath.sqrt(2) * s))
        assert close(oracles.delta_from_c(c, mu, n, convention), float(want), 1e-13)
    sup = float(scale)
    for frac in (1e-30, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999):
        delta = frac * sup
        c_mp = oracles.c_from_delta_mp(delta, mu, n, convention)
        assert close(float(scale * mpmath.erfc(MF(c_mp) / (mpmath.sqrt(2) * s))), delta, 1e-13)
        assert close(oracles.c_from_delta(delta, mu, n, convention), c_mp, 1e-12)
        assert close(oracles.delta_from_c(c_mp, mu, n, convention), delta, 1e-12)


@pytest.mark.parametrize("mu0,mu1", PAIRS)
@pytest.mark.parametrize("n", [1, 7, 40])
def test_exact_epsilon_and_hockey_stick(mu0, mu1, n):
    ratios = [mpmath.log(mp_binom(mu0, n, k) / mp_binom(mu1, n, k)) for k in range(n + 1)]
    assert close(oracles.exact_epsilon(mu0, mu1, n), float(max(abs(x) for x in ratios)), 1e-12)
    exact = oracles.exact_epsilon(mu0, mu1, n)
    previous = None
    for eps in sorted((0.0, 0.01, 0.3, 0.5 * exact, exact, exact + 1.0, 800.0)):
        want = mpmath.fsum(
            max(mp_binom(mu0, n, k) - mpmath.exp(eps) * mp_binom(mu1, n, k), 0) for k in range(n + 1)
        )
        got = oracles.hockey_stick_delta(mu0, mu1, n, eps)
        assert abs(got - float(want)) <= 1e-14 + 1e-10 * float(want)
        if previous is not None:
            assert got <= previous + 1e-15
        previous = got
    tv = mpmath.fsum(abs(mp_binom(mu0, n, k) - mp_binom(mu1, n, k)) for k in range(n + 1)) / 2
    assert abs(oracles.hockey_stick_delta(mu0, mu1, n, 0.0) - float(tv)) <= 1e-14


def test_hockey_stick_is_zero_for_equal_means():
    assert oracles.hockey_stick_delta(0.3, 0.3, 50, 0.0) == 0.0


@pytest.mark.parametrize("mu,n", [(0.15, 30), (0.5, 1), (0.93, 60)])
def test_binomial_pmf(mu, n):
    got = oracles.binomial_pmf(mu, n)
    for k in range(n + 1):
        assert close(got[k], float(mp_binom(mu, n, k)), 1e-12)


@pytest.mark.parametrize("x", [0.0, 0.1, 0.155, 0.5, 1.0])
def test_surrogate_llr(x):
    mu0, mu1, n = 0.17, 0.15, 100
    v0, v1 = MF(mu0) * (1 - MF(mu0)), MF(mu1) * (1 - MF(mu1))
    want = n * ((MF(x) - mu1) ** 2 / (2 * v1) - (MF(x) - mu0) ** 2 / (2 * v0))
    assert abs(oracles.surrogate_llr(x, mu0, mu1, n) - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def test_exact_epsilon_is_linear_in_n():
    assert math.isclose(oracles.exact_epsilon(0.16, 0.15, 10**6), 10**6 * oracles.exact_epsilon(0.16, 0.15, 1), rel_tol=1e-15)
