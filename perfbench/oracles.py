"""Reference values for checking shotdp's outputs, computed without shotdp.

Each function restates a quantity from the paper in its own code path:

    eps_*                  the four closed-form budgets, in plain floats
                           (they also accept numpy arrays, for whole sweeps)
    delta_from_c           the Gaussian tail mass outside mu +/- c
    c_from_delta_mp        c from an inverse erfc in mpmath
    c_from_delta           the same inverse by Newton steps on log erfc, in
                           floats; the tests hold it to c_from_delta_mp
    exact_epsilon          n max(|log(mu0/mu1)|, |log((1-mu0)/(1-mu1))|)
    hockey_stick_delta     two binomial tails at the first count whose log
                           ratio exceeds eps (scipy.special.bdtr/bdtrc)
    binomial_pmf           the n-shot count law from lgamma, in floats
    surrogate_llr          log ratio of the two Gaussian-surrogate kernels

The log-likelihood ratio of two binomial laws is affine in the count k, so
the outcomes where it exceeds eps form one tail; that is what makes the
exact oracles O(1) here while shotdp sums over all n + 1 outcomes.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def eps_noiseless(d, r, n, mu):
    dr = d * r
    bracket = 4.5 * (1.0 - 2.0 * mu) + 1.5 * np.sqrt(n) + dr * (mu + dr) * n / (1.0 - mu)
    return dr / ((1.0 - mu) * mu) * bracket


def depolarizing_scale(p, d, r, dim):
    return (1.0 - p) / p * d * r * dim


def eps_depolarizing(d, r, n, mu, p, dim):
    a = depolarizing_scale(p, d, r, dim)
    bracket = 4.5 * (1.0 - 2.0 * mu) + 1.5 * np.sqrt(n) + a * mu * mu * (1.0 + a) * n / (1.0 - mu)
    return a / (1.0 - mu) * bracket


def _tail_bracket(u, mu, c):
    return (1.0 - 2.0 * mu - u) * c * c / (2.0 * mu * (1.0 - mu - u)) + c + u / 2.0


def eps_delta_noiseless(d, r, n, mu, c):
    u = n * d * r
    return u / (mu * (1.0 - mu)) * _tail_bracket(u, mu, c)


def eps_delta_depolarizing(d, r, n, mu, p, dim, c):
    a = depolarizing_scale(p, d, r, dim)
    return a / (1.0 - mu) * _tail_bracket(n * a, mu, c)


def tail_pole(u, mu):
    """1 - mu - u: the tail budgets are flagged RegimeInvalid where this is <= 0."""
    return 1.0 - mu - u


def sigma(mu, n):
    return math.sqrt(mu * (1.0 - mu) / n)


def _scale(mu, n, convention):
    return SQRT_2PI * sigma(mu, n) if convention == "paper" else 1.0


def delta_from_c(c, mu, n, convention="paper"):
    s = sigma(mu, n)
    return _scale(mu, n, convention) * math.erfc(c / (math.sqrt(2.0) * s))


def c_from_delta_mp(delta, mu, n, convention="paper"):
    """c such that delta_from_c(c) = delta, through mpmath's erfinv at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(delta) / mpmath.mpf(_scale(mu, n, convention))
        if not 0 < x < 1:
            raise ValueError(f"delta={delta} outside the invertible range")
        y = mpmath.erfinv(1 - x)
        return float(mpmath.sqrt(2) * mpmath.mpf(sigma(mu, n)) * y)


def _erfc_inverse(x: float) -> float:
    """y with erfc(y) = x for 0 < x < 1, by Newton steps on log erfc(y)."""
    target = math.log(x)
    # Start from the leading asymptotic term for small x, or a linear guess.
    y = math.sqrt(max(-target - 0.5 * math.log(math.pi * max(-target, 1.0)), 0.0)) if x < 0.5 else (1.0 - x) * 0.886
    for _ in range(60):
        value = math.erfc(y)
        if value <= 0.0:
            y *= 0.9
            continue
        slope = -2.0 / math.sqrt(math.pi) * math.exp(-y * y) / value
        step = (math.log(value) - target) / slope
        y -= step
        if abs(step) <= 1e-15 * max(abs(y), 1e-300):
            break
    return y


def c_from_delta(delta, mu, n, convention="paper"):
    """Float inverse of delta_from_c; held to c_from_delta_mp by the tests."""
    x = delta / _scale(mu, n, convention)
    if not 0.0 < x < 1.0:
        raise ValueError(f"delta={delta} outside the invertible range")
    return math.sqrt(2.0) * sigma(mu, n) * _erfc_inverse(x)


def _log_ratio_terms(mu0, mu1):
    """Per-count log ratio L(k) = n b + k (a - b); returns (a - b, b)."""
    a = math.log(mu0) - math.log(mu1)
    b = math.log1p(-mu0) - math.log1p(-mu1)
    return a - b, b


def exact_epsilon(mu0, mu1, n):
    a = abs(math.log(mu0 / mu1))
    b = abs(math.log((1.0 - mu0) / (1.0 - mu1)))
    return n * max(a, b)


def hockey_stick_delta(mu0, mu1, n, eps):
    """sum_k max(P0(k) - e^eps P1(k), 0) for two n-shot binomial laws.

    The sum runs over the counts whose log ratio exceeds eps. That set is
    one tail: k >= k* when mu0 > mu1, k <= k* when mu0 < mu1. The result is
    P0(tail) - e^eps P1(tail), with e^eps P1 formed in log space so eps of
    700 and more does not overflow.
    """
    from scipy.special import bdtr, bdtrc

    if mu0 == mu1:
        return 0.0
    slope, b = _log_ratio_terms(mu0, mu1)

    def exceeds(k):
        return n * b + k * slope > eps

    edge = (eps - n * b) / slope
    if mu0 > mu1:
        k = min(max(math.floor(edge) + 1, 0), n + 1)
        while k > 0 and exceeds(k - 1):
            k -= 1
        while k <= n and not exceeds(k):
            k += 1
        if k > n:
            return 0.0
        p0 = 1.0 if k == 0 else float(bdtrc(k - 1, n, mu0))
        p1 = 1.0 if k == 0 else float(bdtrc(k - 1, n, mu1))
    else:
        k = min(max(math.ceil(edge) - 1, -1), n)
        while k < n and exceeds(k + 1):
            k += 1
        while k >= 0 and not exceeds(k):
            k -= 1
        if k < 0:
            return 0.0
        p0 = float(bdtr(k, n, mu0))
        p1 = float(bdtr(k, n, mu1))
    grown = math.exp(eps + math.log(p1)) if p1 > 0.0 else 0.0
    return max(p0 - grown, 0.0)


def binomial_pmf(mu, n):
    """P(count = k) for k = 0..n, from lgamma in plain floats."""
    lm, l1m = math.log(mu), math.log1p(-mu)
    top = math.lgamma(n + 1)
    return np.array([
        math.exp(top - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lm + (n - k) * l1m)
        for k in range(n + 1)
    ])


def surrogate_llr(x, mu0, mu1, n):
    """log N(x; mu0, s0^2) - log N(x; mu1, s1^2) without the 1/s factors."""
    v0 = mu0 * (1.0 - mu0)
    v1 = mu1 * (1.0 - mu1)
    return n * ((x - mu1) ** 2 / (2.0 * v1) - (x - mu0) ** 2 / (2.0 * v0))
