"""Independent oracles that test the closed-form budgets against the truth.

The budgets in `budget` are derived on a Gaussian surrogate; the mechanism
they describe is an n-shot binomial. This module computes what the binomial
mechanism actually leaks (`exact_epsilon`, `hockey_stick_delta`), checks the
defining privacy inequality subset-by-subset (`qdp_check`), compares the
closed forms against their own endpoint approximation (`dominance_audit`),
and confirms the exact oracles empirically (`monte_carlo_audit`). Reports
carry slack as data; nothing here assumes the budgets are tight.

For two binomial laws over the same n the per-count log ratio is affine in
the count (the binomial coefficients cancel), so its extremes sit at the
ends of any run of counts: `exact_epsilon` and the dominance audit's window
maxima are closed forms, and `hockey_stick_delta` needs only P0's pmf.
Brute-force maxima over all n + 1 outcomes are kept in the tests as
references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .budget import (
    BudgetInputs,
    epsilon_depolarizing,
    epsilon_noiseless,
    expectation_ratio_bound,
)
from .errors import (
    BadConfigError,
    DimMismatchError,
    IncompletePVMError,
    OutOfRangeError,
    PreconditionViolatedError,
    TooManyOutcomesError,
    check_count,
    check_mean,
)
from .shots import binomial_distribution, log_binomial_pmf, log_likelihood_ratio, sample_means
from .states import Channel, DensityMatrix, Projector, apply_channel, expectation

# Float slack for comparisons that are exact in real arithmetic.
_EQ_SLACK = 1e-12

MAX_PVM_OUTCOMES = 16


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: oracle values, verdicts, and the numbers behind them.

    `dominated` maps check names to booleans; `excluded_outcomes` lists the
    outcome indices the audit left out of its comparisons (boundary counts
    for the endpoint audit, zero-count bins for the Monte Carlo audit);
    `details` carries the per-check numbers so slack can be inspected.
    `theorem_epsilon` is None for audits that compare no closed form.
    """

    exact_epsilon: float
    exact_delta_at_eps: float
    theorem_epsilon: float | None
    dominated: dict[str, bool]
    flags: tuple[str, ...]
    excluded_outcomes: tuple[int, ...]
    trials: int = 0
    seed: int | None = None
    details: dict = field(default_factory=dict)


class MinExpectation(NamedTuple):
    """Smaller post-channel outcome mean, with both means and the argmin echoed."""

    value: float
    which: str
    mu0: float
    mu1: float


def _log_quotient(num: float, den: float, gap: float) -> float:
    """log(num / den) for positive num and den, given gap = num - den.

    Near 1, log1p of the relative gap keeps the digits that log of the
    rounded quotient would cancel; away from 1 the quotient is the accurate
    one, since a relative gap near -1 has already lost them.
    """
    if 0.5 * den <= num <= 2.0 * den:
        return math.log1p(gap / den)
    return math.log(num / den)


def _log_ratio(mu0: float, mu1: float, n: int, k):
    """Per-count log ratio log P0(k) - log P1(k) of the two n-shot count laws.

    The binomial coefficients cancel, leaving the affine form

        k log(mu0 / mu1) + (n - k) log((1 - mu0) / (1 - mu1))

    whose two logs are each within a few units in the last place for means
    at or above the smallest normal double. `k` may be a scalar or an array
    of counts.
    """
    mu0 = check_mean(mu0, "mean mu0")
    mu1 = check_mean(mu1, "mean mu1")
    n = check_count(n, "shots n")
    lead = _log_quotient(mu0, mu1, mu0 - mu1)
    trail = _log_quotient(1.0 - mu0, 1.0 - mu1, mu1 - mu0)
    return k * lead + (n - k) * trail


def exact_epsilon(mu0: float, mu1: float, n: int) -> float:
    """Smallest eps for which the exact n-shot mechanism is pure-DP.

    The largest absolute log-probability ratio over all n+1 outcomes. The
    ratio is affine in the count, so the largest magnitude is at k = 0 or
    k = n: n |log((1-mu0)/(1-mu1))| or n |log(mu0/mu1)|. Both means must
    lie strictly inside (0, 1).
    """
    return max(abs(_log_ratio(mu0, mu1, n, 0)), abs(_log_ratio(mu0, mu1, n, n)))


def hockey_stick_delta(mu0: float, mu1: float, n: int, eps: float) -> float:
    """Smallest valid delta for the exact mechanism at privacy level eps.

    Sums the positive parts of P0(k) - e^eps P1(k) over all outcomes, each
    written as P0(k) (1 - e^(eps - llr(k))) with llr = log P0 - log P1 in its
    affine closed form: a term is positive exactly where llr(k) > eps, and no
    term needs e^eps or a probability that has underflowed to 0.0. Decreasing
    in eps; at eps = 0 it is the total-variation distance. Both means must
    lie strictly inside (0, 1).
    """
    if not eps >= 0.0:
        raise OutOfRangeError(f"OutOfRange: eps={eps} must be nonnegative")
    n = check_count(n, "shots n")
    llr = _log_ratio(mu0, mu1, n, np.arange(n + 1))
    over = llr > eps
    return float(np.sum(np.exp(log_binomial_pmf(mu0, n)[over]) * -np.expm1(eps - llr[over])))


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
    projectors: list[Projector],
    eps: float,
    delta: float,
) -> bool:
    """Exhaustively test the defining privacy inequality on a complete PVM.

    For every subset S of outcomes and both orderings of the states:

        sum_{k in S} Tr[M_k E(rho)]  <=  e^eps sum_{k in S} Tr[M_k E(sigma)] + delta

    All 2^m subsets are enumerated, so at most 16 outcomes are accepted.
    """
    if not eps >= 0.0 or not delta >= 0.0:
        raise OutOfRangeError(f"OutOfRange: eps={eps}, delta={delta} must be nonnegative")
    if len(projectors) > MAX_PVM_OUTCOMES:
        raise TooManyOutcomesError(f"TooManyOutcomes: {len(projectors)} > {MAX_PVM_OUTCOMES}")
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
    p = np.array([expectation(out_rho, m) for m in projectors])
    q = np.array([expectation(out_sigma, m) for m in projectors])
    count = len(projectors)
    masks = np.arange(1 << count)[:, None]
    bits = ((masks >> np.arange(count)) & 1).astype(float)
    sp = bits @ p
    sq = bits @ q
    grow = math.exp(eps)
    forward = sp <= grow * sq + delta + _EQ_SLACK
    backward = sq <= grow * sp + delta + _EQ_SLACK
    return bool(np.all(forward & backward))


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
    """
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

    n = report.inputs.n
    sigma0 = math.sqrt(mu0 * (1.0 - mu0) / n)
    raw_lower, raw_upper = mu0 - 3.0 * sigma0, mu0 + 3.0 * sigma0
    x_lower, x_upper = max(raw_lower, 0.0), min(raw_upper, 1.0)
    llr_lower = log_likelihood_ratio(x_lower, mu0, mu1, n)
    llr_upper = log_likelihood_ratio(x_upper, mu0, mu1, n)

    # Counts k with raw_lower <= k/n <= raw_upper, as one run k_lo..k_hi. The
    # rounded n * raw lands within one count of each edge; k/n, compared as
    # a float, settles an edge count whose k/n equals raw in exact arithmetic.
    k_lo = max(math.ceil(n * raw_lower), 0)
    if k_lo > 0 and (k_lo - 1) / n >= raw_lower:
        k_lo -= 1
    elif k_lo / n < raw_lower:
        k_lo += 1
    k_hi = min(math.floor(n * raw_upper), n)
    if k_hi < n and (k_hi + 1) / n <= raw_upper:
        k_hi += 1
    elif k_hi / n > raw_upper:
        k_hi -= 1

    def run_max(lo: int, hi: int) -> float:
        # The log ratio is affine in k, so on a run of counts it peaks at an end.
        if lo > hi:
            return 0.0
        return max(abs(_log_ratio(mu0, mu1, n, lo)), abs(_log_ratio(mu0, mu1, n, hi)))

    excluded = tuple(k for k in (0, n) if k_lo <= k <= k_hi)
    window_exact = run_max(max(k_lo, 1), min(k_hi, n - 1))
    window_exact_full = run_max(k_lo, k_hi)

    dominated = {
        "endpoint_lower": llr_lower <= eps + _EQ_SLACK,
        "endpoint_upper": llr_upper <= eps + _EQ_SLACK,
        "window_exact": window_exact <= eps + _EQ_SLACK,
    }
    return AuditReport(
        exact_epsilon=exact_epsilon(mu0, mu1, n),
        exact_delta_at_eps=hockey_stick_delta(mu0, mu1, n, max(eps, 0.0)),
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
            "window_outcome_count": max(k_hi - k_lo + 1, 0),
        },
    )


def _child_seeds(seed: int, count: int) -> list[int]:
    """Distinct deterministic stream keys for the sub-experiments of one audit."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def monte_carlo_audit(
    mu0: float,
    mu1: float,
    n: int,
    trials: int,
    seed: int,
    eps: float | None = None,
    delta: float | None = None,
) -> AuditReport:
    """Confirm the exact oracles against seeded sampling of both mechanisms.

    Draws `trials` sample means under each mean, histograms the counts, and
    estimates the per-outcome log-ratio from the two histograms. Outcomes
    with a zero count in either histogram carry no estimate; they are
    listed in `excluded_outcomes`. When a budget (eps, delta) is supplied,
    the report also records whether it covers the exact mechanism
    (hockey-stick delta at eps within the supplied delta).

    Deterministic given `seed`: the two sampling streams are derived from
    it, so reruns reproduce every empirical number bit-for-bit.
    """
    trials = check_count(trials, "trials", minimum=1000)
    exact_eps = exact_epsilon(mu0, mu1, n)
    level = exact_eps if eps is None else float(eps)
    exact_delta = hockey_stick_delta(mu0, mu1, n, max(level, 0.0))
    seed0, seed1 = _child_seeds(seed, 2)
    counts0 = np.bincount(np.rint(sample_means(mu0, n, trials, seed0) * n).astype(int), minlength=n + 1)
    counts1 = np.bincount(np.rint(sample_means(mu1, n, trials, seed1) * n).astype(int), minlength=n + 1)
    emp0 = counts0 / trials
    emp1 = counts1 / trials
    observable = (counts0 > 0) & (counts1 > 0)
    excluded = tuple(int(k) for k in np.arange(n + 1)[~observable])
    log_ratio = _log_ratio(mu0, mu1, n, np.arange(n + 1))
    eps_hat = {}
    eps_hat_error = {}
    for k in np.arange(n + 1)[observable]:
        estimate = math.log(emp0[k] / emp1[k])
        eps_hat[int(k)] = estimate
        eps_hat_error[int(k)] = abs(estimate - float(log_ratio[k]))
    dominated = {}
    if eps is not None and delta is not None:
        dominated["budget_covers_exact"] = exact_delta <= delta + _EQ_SLACK
    return AuditReport(
        exact_epsilon=exact_eps,
        exact_delta_at_eps=exact_delta,
        theorem_epsilon=None,
        dominated=dominated,
        flags=(),
        excluded_outcomes=excluded,
        trials=trials,
        seed=int(seed),
        details={
            "empirical_p0": emp0.tolist(),
            "empirical_p1": emp1.tolist(),
            "exact_p0": binomial_distribution(mu0, n).probs.tolist(),
            "exact_p1": binomial_distribution(mu1, n).probs.tolist(),
            "epsilon_hat": eps_hat,
            "epsilon_hat_abs_error": eps_hat_error,
        },
    )
