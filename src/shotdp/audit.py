"""Audits on measured states and sampled counts, the checks that need numpy.

The budgets in `budget` are derived on a Gaussian surrogate; the mechanism
they describe is an n-shot binomial. The scalar checks of that mechanism
import only the standard library and live in `binomial`: what it actually
leaks (`exact_epsilon`, `hockey_stick_delta`) and the comparison of the
closed forms against their own endpoint approximation (`dominance_audit`,
which returns an `AuditReport`). They are public here too. This module
holds the checks built on states and arrays: the defining privacy
inequality on measured states by its hockey-stick sum (`qdp_check`), the
budget formulas' mu from a measured pair (`min_expectation`), and seeded
sampling that confirms the exact oracles empirically
(`monte_carlo_audit`), which shares the slope pair `_slopes` and the
kernel `_log_ratio` with them. Reports carry slack as data; nothing here
assumes the budgets are tight.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

# The exact oracles and the dominance audit live in `binomial` and are this module's public names too.
from .binomial import (
    _EQ_SLACK,
    AuditReport,
    _exact_level,
    _log_ratio,
    _slopes,
    dominance_audit,
    exact_epsilon,
    hockey_stick_delta,
)
from .errors import DimMismatchError, IncompletePVMError, check_count, check_mean, check_nonnegative
from .shots import _sample_histogram, binomial_distribution
from .states import Channel, DensityMatrix, Projector, apply_channel, expectation

# The fewest trials a Monte Carlo audit draws per mechanism.
MIN_TRIALS = 1000


class MinExpectation(NamedTuple):
    """Smaller post-channel outcome mean, with both means and the argmin echoed."""

    value: float
    which: str
    mu0: float
    mu1: float


def min_expectation(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, m: Projector) -> MinExpectation:
    """Post-channel outcome means of both states; the smaller one is the
    budget formulas' mu."""
    if rho.dim != sigma.dim or rho.dim != ch.dim or rho.dim != m.dim:
        raise DimMismatchError(f"DimMismatch: {rho.dim}, {sigma.dim}, channel {ch.dim}, projector {m.dim}")
    mu0 = expectation(apply_channel(ch, rho), m)
    mu1 = expectation(apply_channel(ch, sigma), m)
    if mu0 < mu1:
        return MinExpectation(value=mu0, which="rho", mu0=mu0, mu1=mu1)
    return MinExpectation(value=mu1, which="sigma", mu0=mu0, mu1=mu1)


def qdp_check(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    ch: Channel,
    projectors: Iterable[Projector],
    eps: float,
    delta: float,
) -> bool:
    """Test the defining privacy inequality on a complete PVM.

    The inequality must hold for every subset S of outcomes and both
    orderings of the states:

        sum_{k in S} Tr[M_k E(rho)]  <=  e^eps sum_{k in S} Tr[M_k E(sigma)] + delta

    The worst S holds the outcomes with a positive excess p_k - e^eps q_k, so
    the check is one hockey-stick sum over the m outcomes, for any m:

        max over both orderings of  sum_k max(p_k - e^eps q_k, 0)  <=  delta

    Any eps >= 0 is accepted, inf included. Past eps ~ 709.78, where e^eps
    overflows a double, e^eps q_k exceeds p_k for every q_k of normal size,
    so only the outcomes with q_k = 0 keep an excess, of p_k.
    """
    eps, delta = check_nonnegative(eps, "eps"), check_nonnegative(delta, "delta")
    projectors = list(projectors)  # read once: an iterator would be spent by the first pass
    if not projectors:
        raise IncompletePVMError("IncompletePVM: empty projector family")
    dim = rho.dim
    for m in projectors:
        if m.dim != dim or sigma.dim != dim or ch.dim != dim:
            raise DimMismatchError("DimMismatch: states, channel, and projectors must share one dimension")
    total = sum(m.entries for m in projectors)
    completeness = np.max(np.abs(total - np.eye(dim)))
    if completeness > 1e-9:
        raise IncompletePVMError(f"IncompletePVM: max |sum M_k - I| = {completeness:.3e}")
    out_rho = apply_channel(ch, rho)
    out_sigma = apply_channel(ch, sigma)
    p = [expectation(out_rho, m) for m in projectors]
    q = [expectation(out_sigma, m) for m in projectors]
    try:
        grow = math.exp(eps)
    except OverflowError:
        grow = math.inf

    def excess(a: float, b: float) -> float:
        # max(a - e^eps b, 0); b = 0 leaves all of a, also where e^eps is inf and 0 * inf is nan.
        return a if b == 0.0 else max(a - grow * b, 0.0)

    forward = sum(map(excess, p, q))
    backward = sum(map(excess, q, p))
    return max(forward, backward) <= delta + _EQ_SLACK


def monte_carlo_audit(mu0: float, mu1: float, n: int, trials: int, seed: int) -> AuditReport:
    """Confirm the exact oracles against seeded sampling of both mechanisms.

    Draws `trials` sample means under each mean, histograms the counts, and
    estimates the per-outcome log-ratio from the two histograms. Outcomes
    with a zero count in either histogram carry no estimate; they are
    listed in `excluded_outcomes`. The audited level is the exact epsilon,
    where the exact delta is 0.0 by definition, and no verdict is drawn:
    whether a budget (eps, delta) covers the exact mechanism is
    `hockey_stick_delta(mu0, mu1, n, eps) <= delta`.

    Deterministic given `seed`: the two sampling streams are derived from
    it, so reruns reproduce every empirical number bit-for-bit. Each stream
    draws what `sample_means` draws under its child key. Only the histogram
    of those draws is needed, and it is counted from the sorted uniforms
    (`shots._sample_histogram`): one binary search per count, not per
    trial, with the same result as counting the per-trial draws.
    """
    trials = check_count(trials, "trials", minimum=MIN_TRIALS)
    seed = check_count(seed, "seed", minimum=0)
    mu0, mu1, n = check_mean(mu0, "mean mu0"), check_mean(mu1, "mean mu1"), check_count(n, "shots n")
    lead, trail = _slopes(mu0, mu1)
    law0, law1 = binomial_distribution(mu0, n), binomial_distribution(mu1, n)
    seed0, seed1 = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64).tolist()
    counts0, counts1 = _sample_histogram(law0, trials, seed0), _sample_histogram(law1, trials, seed1)
    emp0, emp1 = counts0 / trials, counts1 / trials
    observable = (counts0 > 0) & (counts1 > 0)
    excluded = tuple(np.flatnonzero(~observable).tolist())
    seen = np.flatnonzero(observable)
    # math.log, not np.log, whose last bit may differ and move a printed digit.
    estimates = list(map(math.log, (emp0[seen] / emp1[seen]).tolist()))
    errors = np.abs(np.array(estimates) - _log_ratio(lead, trail, n, seen)).tolist()
    keys = seen.tolist()
    return AuditReport(
        exact_epsilon=_exact_level(n, lead, trail),
        exact_delta_at_eps=0.0,
        theorem_epsilon=None,
        dominated={},
        flags=(),
        excluded_outcomes=excluded,
        trials=trials,
        seed=seed,
        details={
            "empirical_p0": emp0.tolist(),
            "empirical_p1": emp1.tolist(),
            "exact_p0": law0.tolist(),
            "exact_p1": law1.tolist(),
            "epsilon_hat": dict(zip(keys, estimates)),
            "epsilon_hat_abs_error": dict(zip(keys, errors)),
        },
    )
