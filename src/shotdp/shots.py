"""Statistics of repeated projective measurement: exact and Gaussian models.

Averaging n single-shot outcomes gives a sample mean on the grid
{0, 1/n, ..., 1}. `binomial_distribution` is the exact law of that mean;
`normal_model` is its central-limit surrogate. `log_likelihood_ratio`
compares the Gaussian surrogates of two candidate means, and `sample_means`
draws reproducible Monte Carlo batches from the exact law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import check_count, check_mean


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact law of the success count over n shots: probs[k] = P(count = k)."""

    n: int
    mu: float
    probs: np.ndarray


@dataclass(frozen=True)
class NormalModel:
    """Gaussian surrogate for the sample mean of n shots."""

    mean: float
    variance: float


def single_shot_variance(mu: float) -> float:
    """Variance mu(1-mu) of one projective outcome with success probability mu."""
    mu = check_mean(mu, allow_endpoints=True)
    return mu * (1.0 - mu)


def log_binomial_pmf(mu: float, n: int) -> np.ndarray:
    """Log of the n-shot count law at every k, stable out to n = 10^4.

    Requires mu strictly inside (0, 1); endpoint means have -inf entries
    and are served by `binomial_distribution` as point masses instead.
    """
    mu = check_mean(mu)
    n = check_count(n, "shots n")
    k = np.arange(n + 1)
    return (
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        + k * np.log(mu) + (n - k) * np.log1p(-mu)
    )


def binomial_distribution(mu: float, n: int) -> OutcomeDistribution:
    """Exact outcome-count law for n shots.

    Probabilities are accumulated in log space (log-gamma form of the
    binomial coefficient) so large n neither overflows nor loses the tails.
    Endpoint means are allowed and give point masses.
    """
    mu = check_mean(mu, allow_endpoints=True)
    n = check_count(n, "shots n")
    if mu == 0.0 or mu == 1.0:
        probs = np.zeros(n + 1)
        probs[n if mu == 1.0 else 0] = 1.0
    else:
        probs = np.exp(log_binomial_pmf(mu, n))
    probs.setflags(write=False)
    return OutcomeDistribution(n=n, mu=mu, probs=probs)


def normal_model(mu: float, n: int) -> NormalModel:
    """Gaussian surrogate N(mu, mu(1-mu)/n) for the sample mean.

    Raises DegenerateMuError at mu in {0, 1}: the surrogate needs positive
    variance.
    """
    mu = check_mean(mu)
    n = check_count(n, "shots n")
    return NormalModel(mean=mu, variance=mu * (1.0 - mu) / n)


def log_likelihood_ratio(x: float, mu0: float, mu1: float, n: int) -> float:
    """Log ratio of the two unnormalized Gaussian-surrogate kernels at x.

    Positive where an observed mean x favors mu0 over mu1. Expanded
    polynomial form

        n (mu0 - mu1) [ (1 - mu0 - mu1) x^2 / (2 mu0 mu1 (1-mu0)(1-mu1))
                        + x / ((1-mu0)(1-mu1))
                        - 1 / (2 (1-mu0)(1-mu1)) ]

    The bracket is symmetric in (mu0, mu1) and is evaluated from the sorted
    pair as ((1-lo-hi)/2 (x/lo)(x/hi) + x - 1/2) / ((1-lo)(1-hi)), which
    forms no product of the means, so tiny means cannot divide by an
    underflowed zero. Swapping the hypotheses flips exactly one sign:
    antisymmetry is bit-exact; equal means give exactly 0. The shot count
    multiplies last, so scaling in n is exact too. The kernels are
    unnormalized: no log-sigma term appears.
    """
    x = check_mean(x, "sample mean x", allow_endpoints=True)
    mu0 = check_mean(mu0, "mean mu0")
    mu1 = check_mean(mu1, "mean mu1")
    n = check_count(n, "shots n")
    if mu0 == mu1:
        return 0.0
    lo, hi = (mu0, mu1) if mu0 <= mu1 else (mu1, mu0)
    bracket = ((0.5 * (1.0 - lo - hi)) * (x / lo) * (x / hi) + x - 0.5) / ((1.0 - lo) * (1.0 - hi))
    return n * ((mu0 - mu1) * bracket)


def sample_means(mu: float, n: int, trials: int, seed: int) -> np.ndarray:
    """Draw `trials` sample means of n shots each, reproducibly.

    The generator is counter-based (Philox keyed by `seed`): trial t reads
    slot t of the keyed stream, so results do not depend on execution order
    or batching. Each trial turns one uniform into a count by inverting the
    exact cumulative law, then divides by n.
    """
    trials = check_count(trials, "trials")
    seed = check_count(seed, "seed", minimum=0)
    dist = binomial_distribution(mu, n)
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0  # close the float gap so every uniform lands in a bin
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(trials)
    counts = np.searchsorted(cdf, u, side="right")
    return counts / float(n)
