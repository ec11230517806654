"""Independent oracles that test the closed-form budgets against the truth.

The budgets in `budget` are derived on a Gaussian surrogate; the mechanism
they describe is an n-shot binomial. What that mechanism actually leaks,
`exact_epsilon` and `hockey_stick_delta`, comes from `binomial` and is
public here too. This module checks the defining privacy inequality on
measured states by its hockey-stick sum (`qdp_check`), compares the closed
forms against their own endpoint approximation (`dominance_audit`), and
confirms the exact oracles empirically (`monte_carlo_audit`). Reports carry
slack as data; nothing here assumes the budgets are tight.

For two binomial laws over the same n the per-count log ratio is affine in
the count (the binomial coefficients cancel), so its extremes sit at the
ends of any run of counts: `exact_epsilon` and the dominance audit's window
maxima are closed forms, and the exact delta at the budget is two binomial
tails past a short direct sum, in O(1) memory for any n. Every oracle
checks its inputs once and shares one slope pair, from `_slopes`, with the
kernels `_log_ratio` and `_hockey_stick`. Brute-force maxima over all
n + 1 outcomes are kept in the tests as references.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .budget import (
    BudgetInputs,
    _sigma,
    epsilon_depolarizing,
    epsilon_noiseless,
    expectation_ratio_bound,
)
# The exact oracles live in `binomial` and are this module's public names too.
from .binomial import _exact_level, _hockey_stick, _last_holding, _log_ratio, _slopes, exact_epsilon, hockey_stick_delta
from .errors import (
    BadConfigError,
    DimMismatchError,
    IncompletePVMError,
    PreconditionViolatedError,
    check_count,
    check_distance,
    check_mean,
    check_nonnegative,
)
from .shots import _sample_histogram, binomial_distribution, log_likelihood_ratio
from .states import Channel, DensityMatrix, Projector, apply_channel, expectation

# Float slack for comparisons that are exact in real arithmetic.
_EQ_SLACK = 1e-12
# The fewest trials a Monte Carlo audit draws per mechanism.
MIN_TRIALS = 1000


class AuditReport(NamedTuple):
    """Outcome of one audit: oracle values, verdicts, and the numbers behind them.

    `dominated` maps check names to booleans; `excluded_outcomes` lists the
    outcome indices the audit left out of its comparisons (boundary counts
    for the endpoint audit, zero-count bins for the Monte Carlo audit);
    `details` carries the per-check numbers so slack can be inspected. The
    Monte Carlo audit compares no closed form and draws no verdict: its
    `theorem_epsilon` is None, `dominated` is empty, and its level is the
    exact epsilon, where `exact_delta_at_eps` is 0.0.
    """

    exact_epsilon: float
    exact_delta_at_eps: float
    theorem_epsilon: float | None
    dominated: dict[str, bool]
    flags: tuple[str, ...]
    excluded_outcomes: tuple[int, ...]
    details: dict
    trials: int = 0
    seed: int | None = None


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


def dominance_audit(
    d: float,
    r: int,
    n: int,
    mu0: float,
    mu1: float,
    regime: str = "noiseless",
    p: float | None = None,
    dim: int | None = None,
) -> AuditReport:
    """Check the closed-form budget against its own 3-sigma endpoints.

    The budget formulas were derived by bounding the Gaussian-surrogate
    log-likelihood ratio at x = mu0 +/- 3 sigma0. This audit recomputes the
    ratio at those endpoints (clipped into [0, 1]) and records whether the
    formula actually dominates them, then separately compares the formula
    against the exact binomial leakage restricted to outcomes inside the
    same window. Boundary counts k in {0, n} are tagged in
    `excluded_outcomes` and left out of the windowed comparison.

    Requires mu1 <= mu0 and the gap admissible for the regime
    (mu0 - mu1 <= d r noiseless; mu0 within the depolarizing ratio bound).
    When mu0 + mu1 > 1 the ratio's quadratic coefficient flips sign and the
    endpoint-maximum argument breaks; the report flags NonConvexRegime
    instead of asserting anything.

    Any n that `check_count` admits is taken: the window's edge counts are
    found by bisection in O(log n) steps, and its maxima and the exact
    delta at the budget take O(1) memory.
    """
    d, r, n = check_distance(d), check_count(r, "rank r"), check_count(n, "shots n")
    mu0, mu1 = check_mean(mu0, "mean mu0"), check_mean(mu1, "mean mu1")
    if mu1 > mu0:
        raise PreconditionViolatedError(f"PreconditionViolated: mu1={mu1} must be the smaller mean")
    if regime == "noiseless":
        if mu0 - mu1 > d * r + _EQ_SLACK:
            raise PreconditionViolatedError(f"PreconditionViolated: gap {mu0 - mu1} exceeds d*r = {d * r}")
        report = epsilon_noiseless(BudgetInputs(d=d, r=r, n=n, mu=mu1))
    elif regime == "depolarizing":
        bound = expectation_ratio_bound(mu1, d, p, dim)
        if mu0 > bound + _EQ_SLACK:
            raise PreconditionViolatedError(f"PreconditionViolated: mu0={mu0} exceeds ratio bound {bound:.12g}")
        report = epsilon_depolarizing(BudgetInputs(d=d, r=r, n=n, mu=mu1, p=p, D=dim))
    else:
        raise BadConfigError(f"BadConfig: unknown regime {regime!r}")
    eps = report.epsilon
    flags = list(report.warnings)
    if mu0 + mu1 > 1.0:
        flags.append("NonConvexRegime")

    sigma0 = _sigma(mu0, n)
    raw_lower, raw_upper = mu0 - 3.0 * sigma0, mu0 + 3.0 * sigma0
    x_lower, x_upper = max(raw_lower, 0.0), min(raw_upper, 1.0)
    llr_lower = log_likelihood_ratio(x_lower, mu0, mu1, n)
    llr_upper = log_likelihood_ratio(x_upper, mu0, mu1, n)

    # Counts k with raw_lower <= k/n <= raw_upper, k/n compared as a float,
    # as one run k_lo..k_hi; k/n never decreases in k, so each edge is a
    # bisection, with sentinels one past either end (an empty run has k_lo > k_hi).
    k_lo = _last_holding(lambda k: k / n >= raw_lower, n + 1, -1)
    k_hi = _last_holding(lambda k: k / n <= raw_upper, -1, n + 1)
    lead, trail = _slopes(mu0, mu1)

    def run_max(lo: int, hi: int) -> float:
        # The log ratio is affine in k, so on a run of counts it peaks at an end.
        if lo > hi:
            return 0.0
        return max(abs(_log_ratio(lead, trail, n, lo)), abs(_log_ratio(lead, trail, n, hi)))

    excluded = tuple(k for k in (0, n) if k_lo <= k <= k_hi)
    window_exact = run_max(max(k_lo, 1), min(k_hi, n - 1))
    window_exact_full = run_max(k_lo, k_hi)

    dominated = {
        "endpoint_lower": llr_lower <= eps + _EQ_SLACK,
        "endpoint_upper": llr_upper <= eps + _EQ_SLACK,
        "window_exact": window_exact <= eps + _EQ_SLACK,
    }
    return AuditReport(
        exact_epsilon=_exact_level(n, lead, trail),
        # A nan budget is rejected as a nan eps given to hockey_stick_delta is.
        exact_delta_at_eps=_hockey_stick(mu0, mu1, n, lead, trail, check_nonnegative(max(eps, 0.0), "eps")),
        theorem_epsilon=eps,
        dominated=dominated,
        flags=tuple(flags),
        excluded_outcomes=excluded,
        details={
            "x_lower": x_lower,
            "x_upper": x_upper,
            "endpoints_clipped": bool(x_lower != raw_lower or x_upper != raw_upper),
            "llr_lower": llr_lower,
            "llr_upper": llr_upper,
            "slack_lower": eps - llr_lower,
            "slack_upper": eps - llr_upper,
            "window_exact_epsilon": window_exact,
            "window_exact_epsilon_with_boundary": window_exact_full,
            "window_outcome_count": k_hi - k_lo + 1,
        },
    )


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
