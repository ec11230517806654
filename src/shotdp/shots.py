"""Statistics of repeated projective measurement: the exact binomial law.

Averaging n single-shot outcomes gives a sample mean on the grid
{0, 1/n, ..., 1}. `binomial_distribution` is the exact law of the success
count behind that mean, and `log_binomial_pmf` its logarithm, both as
arrays. `sample_means` draws reproducible Monte Carlo batches from the
exact law.
"""

from __future__ import annotations

import math

import numpy as np

from .binomial import _TWO_PI, STIRLERR_TABLE, _Law, _near_deviance, _series_terms, _stirling_series
from .errors import OutOfRangeError, check_count, check_mean

_STIRLERR = np.array(STIRLERR_TABLE)


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """`binomial.stirlerr` on an array of counts k >= 0, bit for bit: the
    table below 16, and above it the one `binomial._stirling_series`."""
    inv = np.maximum(k, 16.0)
    np.divide(1.0, inv, out=inv)
    err = _stirling_series(inv)
    small = k < 16
    err[small] = _STIRLERR[k[small].astype(np.intp)]
    return err


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """Deviance x log(x/m) + m - x of counts x >= 1 from a positive mean m.

    Near m, for m 9/11 < x < m 11/9 (that is, |x - m| < (x + m)/10), the
    direct form cancels, so there the deviance is `binomial._near_deviance`,
    the series in v = (x - m)/(x + m), taken to the length that the largest
    |v| < 1/10 among those counts needs.
    """
    # Below a mean of about 1e-280 the quotient could overflow; the logs' difference cannot.
    if m > 1e-280:
        out = np.log(x / m)
    else:
        out = np.log(x)
        out -= math.log(m)
    out *= x
    out -= x
    out += m
    near = (x > m * (9 / 11)) & (x < m * (11 / 9))
    xn = x[near]
    if xn.size:
        gap = xn - m
        v = gap / (xn + m)
        v2 = v * v
        out[near] = _near_deviance(xn, gap, v, v2, _series_terms(float(v2.max())))
    return out


def log_binomial_pmf(mu: float, n: int, counts=None) -> np.ndarray:
    """Log of the n-shot count law at `counts` (an integer array in 0..n),
    by default at every k = 0..n.

    Uses Loader's saddle-point form (C. Loader 2000, the algorithm of R's
    dbinom), which takes no difference of large log-factorials:

        log P(k) = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
                   - bd0(k, n mu) - bd0(n-k, n(1-mu)) - log(2 pi k (1-k/n)) / 2

    with log P(0) = n log1p(-mu) and log P(n) = n log(mu). The series are
    the scalar pmf's own, from `binomial`, and `binomial._Law(mu, n)` gives
    the rounded means, the correction for their rounding and the two end
    counts' closed forms. Every probability above 1e-300 is within 1e-11
    relative of a 40-digit reference, for n up to 1e7 and mu in
    [1e-300, 1 - 1e-16]. Requires mu strictly inside (0, 1); endpoint means
    are served by `binomial_distribution` as point masses instead. An empty
    `counts` gives an empty array.
    """
    mu = check_mean(mu)
    n = check_count(n, "shots n")
    if counts is None:
        k = np.arange(n + 1.0)
    else:
        k = np.asarray(counts)
        # An empty selection is float64 by default in numpy, and holds no count to check.
        if k.size and (k.dtype.kind not in "iu" or k.min() < 0 or k.max() > n):
            raise OutOfRangeError(f"OutOfRange: counts must be integers in 0..{n}")
        k = k.astype(float)
    rest = n - k
    # The means n mu and n (1-mu) are rounded; the law's offset - k slope restores them.
    law = _Law(mu, n)
    # -log P is accumulated smallest terms first: a constant added to the
    # large terms would round the same way at every count and bias the sum.
    # The form needs 0 < k < n; the two ends are set from their own closed forms below.
    # 1 - k/n is taken as (n-k)/n, which keeps its digits as k nears n.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _stirlerr(k)
        out += _stirlerr(rest)
        out += law.offset
        out -= k * law.slope
        out += _bd0(k, law.mean)
        out += _bd0(rest, law.rest_mean)
        out += 0.5 * np.log(_TWO_PI * k * (rest / n))
    np.negative(out, out=out)
    out[k == 0] = law.log_pmf(0)
    out[k == n] = law.log_pmf(n)
    return out


def binomial_distribution(mu: float, n: int) -> np.ndarray:
    """Exact outcome-count law for n shots: the read-only array of
    P(count = k) for k = 0..n.

    Probabilities are exponentiated from `log_binomial_pmf`'s saddle-point
    form, so large n neither overflows nor loses the tails. Endpoint means
    are allowed and give point masses.
    """
    mu = check_mean(mu, allow_endpoints=True)
    n = check_count(n, "shots n")
    if mu == 0.0 or mu == 1.0:
        probs = np.zeros(n + 1)
        probs[n if mu == 1.0 else 0] = 1.0
    else:
        probs = np.exp(log_binomial_pmf(mu, n))
    probs.setflags(write=False)
    return probs


def sample_means(mu: float, n: int, trials: int, seed: int) -> np.ndarray:
    """Draw `trials` sample means of n shots each, reproducibly.

    The generator is counter-based (Philox keyed by `seed`): trial t reads
    slot t of the keyed stream, so results do not depend on execution order
    or batching. Each trial turns one uniform into a count by inverting the
    exact cumulative law, then divides by n.
    """
    trials = check_count(trials, "trials")
    seed = check_count(seed, "seed", minimum=0)
    return _sample_counts(binomial_distribution(mu, n), trials, seed) / float(n)


def _cdf_and_uniforms(probs: np.ndarray, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative law of `probs`, and slots 0..trials-1 of the Philox
    stream keyed by `seed` as uniforms in [0, 1)."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # close the float gap so every uniform lands in a bin
    return cdf, np.random.Generator(np.random.Philox(key=seed)).random(trials)


def _sample_counts(probs: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """`trials` counts drawn from the law `probs`, in slot order: uniform t
    becomes the count k with cdf[k-1] <= u < cdf[k], the first k with u < cdf[k]."""
    cdf, u = _cdf_and_uniforms(probs, trials, seed)
    return np.searchsorted(cdf, u, side="right")


def _sample_histogram(probs: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """The histogram of `_sample_counts(probs, trials, seed)` over 0..n,
    without drawing the counts one by one.

    A uniform u becomes the first count k with u < cdf[k], and u < cdf[k]
    is monotone in k: the running sum never decreases, and the last entry,
    set to 1, is above every u even where the sum passed 1 a count early.
    So the uniforms whose count is at most k are exactly those below
    cdf[k]: with the uniforms sorted, one binary search per count gives
    that number, and the histogram is its first difference. This is
    exactly `np.bincount(_sample_counts(...), minlength=n + 1)`, at the
    cost of one sort of the uniforms instead of a random-order search per
    trial, and with no per-trial index array.
    """
    cdf, u = _cdf_and_uniforms(probs, trials, seed)
    u.sort()
    return np.diff(np.searchsorted(u, cdf, side="left"), prepend=0)
