"""Independent oracles that test the closed-form budgets against the truth.

The budgets in `budget` are derived on a Gaussian surrogate; the mechanism
they describe is an n-shot binomial. This module computes what the binomial
mechanism actually leaks (`exact_epsilon`, `hockey_stick_delta`), checks the
defining privacy inequality subset-by-subset (`qdp_check`), compares the
closed forms against their own endpoint approximation (`dominance_audit`),
and confirms the exact oracles empirically (`monte_carlo_audit`). Reports
carry slack as data; nothing here assumes the budgets are tight.
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


def exact_epsilon(mu0: float, mu1: float, n: int) -> float:
    """Smallest eps for which the exact n-shot mechanism is pure-DP.

    Brute force over the two binomial laws: the max over all n+1 outcomes
    of the absolute log-probability ratio, computed in log space so deep
    tails cost no precision.
    """
    ratio = log_binomial_pmf(mu0, n) - log_binomial_pmf(mu1, n)
    return float(np.max(np.abs(ratio)))


def hockey_stick_delta(mu0: float, mu1: float, n: int, eps: float) -> float:
    """Smallest valid delta for the exact mechanism at privacy level eps.

    Sums the positive parts of P0(k) - e^eps P1(k) over all outcomes, each
    written as P0(k) (1 - e^(eps - llr(k))) with llr = log P0 - log P1 taken
    from the log pmfs: a term is positive exactly where llr(k) > eps, and no
    term needs e^eps or a probability that has underflowed to 0.0. Decreasing
    in eps; at eps = 0 it is the total-variation distance. Both means must
    lie strictly inside (0, 1).
    """
    if not eps >= 0.0:
        raise OutOfRangeError(f"OutOfRange: eps={eps} must be nonnegative")
    log_p0 = log_binomial_pmf(mu0, n)
    llr = log_p0 - log_binomial_pmf(mu1, n)
    over = llr > eps
    return float(np.sum(np.exp(log_p0[over]) * -np.expm1(eps - llr[over])))


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

    sigma0 = math.sqrt(mu0 * (1.0 - mu0) / n)
    raw_lower, raw_upper = mu0 - 3.0 * sigma0, mu0 + 3.0 * sigma0
    x_lower, x_upper = max(raw_lower, 0.0), min(raw_upper, 1.0)
    llr_lower = log_likelihood_ratio(x_lower, mu0, mu1, n)
    llr_upper = log_likelihood_ratio(x_upper, mu0, mu1, n)

    ks = np.arange(n + 1)
    in_window = (ks / n >= raw_lower) & (ks / n <= raw_upper)
    boundary = (ks == 0) | (ks == n)
    excluded = tuple(int(k) for k in ks[in_window & boundary])
    log_ratio = log_binomial_pmf(mu0, n) - log_binomial_pmf(mu1, n)
    interior = in_window & ~boundary
    window_exact = float(np.max(np.abs(log_ratio[interior]))) if interior.any() else 0.0
    window_exact_full = float(np.max(np.abs(log_ratio[in_window]))) if in_window.any() else 0.0

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
            "window_outcome_count": int(np.count_nonzero(in_window)),
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
    log_ratio = log_binomial_pmf(mu0, n) - log_binomial_pmf(mu1, n)
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
