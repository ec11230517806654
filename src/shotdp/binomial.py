"""Exact oracles of the n-shot binomial mechanism, one count at a time.

For two binomial laws P0 = Bin(n, mu0) and P1 = Bin(n, mu1) the per-count
log ratio log P0(k) - log P1(k) is affine in the count k (the binomial
coefficients cancel). So the exact epsilon is its magnitude at k = 0 or
k = n, and the counts where it exceeds a level eps form one run that ends
at 0 or at n: the hockey-stick delta is a short direct sum where the excess
P0(k) - e^eps P1(k) is small next to P0(k), plus the difference of two
binomial tails past it. Each tail is the pmf at one count times the
continued fraction of the regularized incomplete beta function.

The pmf is Loader's saddle-point form (C. Loader 2000, the algorithm of R's
dbinom), here on one count. Each piece of the form is written once, here,
on a float or an ndarray alike: the Stirling series `_stirling_series`,
the near-mean deviance series `_near_deviance` and its length
`_series_terms`, and the law's constants in `_Law` (the rounded means
n mu and n (1 - mu), the affine correction for their rounding, and
-stirlerr(n)). `shots.log_binomial_pmf` evaluates the same form on an
array of counts from these pieces.

Beside the oracles sit the scalar checks built on them: the Gaussian
surrogate's log ratio at an observed mean (`log_likelihood_ratio`), and
`dominance_audit`, which compares a closed-form budget against that ratio
at its 3-sigma endpoints and against the exact leakage inside the same
window, and returns an `AuditReport`. Every oracle checks its inputs once
and shares one slope pair, from `_slopes`, with the kernels `_log_ratio`
and `_hockey_stick`. This module imports only the standard library and
`budget`, which loads with the package and imports only the standard
library too, so the exact oracles and the dominance audit run without
numpy, in O(1) memory for any n.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .budget import BudgetInputs, _evaluate, _pure, _sigma, expectation_ratio_bound
from .errors import IterationCapError, PreconditionViolatedError, check_count, check_distance, check_mean, check_nonnegative

_TWO_PI = 2.0 * math.pi
# Stirling's error log k! - log(sqrt(2 pi k) (k/e)^k) at k = 0..15 (0 at k = 0 by convention).
STIRLERR_TABLE = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Float slack for comparisons that are exact in real arithmetic.
_EQ_SLACK = 1e-12
# The most continued-fraction steps, or directly summed counts, one delta may take.
MAX_TERMS = 2**17
# Counts summed between two direct evaluations of the pmf.
_ANCHOR = 32
# A share of the summed delta below which the rest of the run is dropped.
_NEGLIGIBLE = 2.0**-60
_SMALLEST_NORMAL = sys.float_info.min
# A continued fraction stops once a step changes it by at most this share of its value.
_CONVERGED = 2.0**-52


def _stirling_series(inv):
    """Stirling's series 1/12k - 1/360k^3 + 1/1260k^5 - 1/1680k^7 + 1/1188k^9
    at inv = 1/k, a float or an ndarray: Horner's form in 1/k^2 with the
    signed coefficients, the same IEEE operations in the same order on both.
    An array argument is left as it is; the steps after the first product
    run in place on a new one."""
    inv2 = inv * inv
    err = inv2 * (1 / 1188)
    for coef in (-1 / 1680, 1 / 1260, -1 / 360):
        err += coef
        err *= inv2
    err += 1 / 12
    err *= inv
    return err


def stirlerr(k: float) -> float:
    """Stirling's error at a count k >= 0 (a float): the table below 16, and
    above it `_stirling_series`, whose first omitted term is below 1e-16 there."""
    if k < 16.0:
        return STIRLERR_TABLE[int(k)]
    return _stirling_series(1.0 / k)


def _gap(count: int, mean: float) -> float:
    """count - mean, rounded once, also where the count is above 2^53 and a
    double would round it first."""
    whole = math.floor(mean)
    return (count - whole) - (mean - whole)


def _series_terms(v2: float) -> int:
    """How many powers of v^2 `_near_deviance` sums: up to the first one
    below 2^-53, for the largest v^2 it is given."""
    return max(math.ceil(-53 * math.log(2.0) / math.log(v2)), 1) if v2 > 0.0 else 1


def _near_deviance(x, gap, v, v2, terms: int):
    """The deviance x log(x/m) + m - x near m, where the direct form cancels:

        (x - m) v + 2x (v^3/3 + v^5/5 + ...),   v = (x - m)/(x + m),

    given gap = x - m, v and v2 = v^2, summed in Horner form to `terms`
    powers of v^2. x, gap, v and v2 are floats or ndarrays alike, with the
    same IEEE operations in the same order for both."""
    tail = 1.0 / (2 * terms + 1)
    for odd in range(2 * terms - 1, 1, -2):
        tail *= v2
        tail += 1.0 / odd
    tail *= v2
    tail *= 2.0 * x
    tail += gap
    tail *= v
    return tail


def _bd0(x: float, m: float, gap: float) -> float:
    """Deviance x log(x/m) + m - x of a count x >= 1 from a positive mean m,
    given gap = x - m from `_gap`: the scalar form of `shots._bd0`, with the
    near-m series taken to the length its own v^2 needs (the gap is the
    same double there for x below 2^53)."""
    if m * (9 / 11) < x < m * (11 / 9):
        v = gap / (x + m)
        v2 = v * v
        return _near_deviance(x, gap, v, v2, _series_terms(v2))
    # Below a mean of about 1e-280 the quotient could overflow; the logs' difference cannot.
    out = x * math.log(x / m) if m > 1e-280 else x * (math.log(x) - math.log(m))
    return out - x + m


def _rounded_product(n: int, mu: float, complement: bool) -> tuple[float, float]:
    """n mu, or n (1 - mu), correctly rounded to a double, and its rounding
    error, from the exact rationals."""
    num, den = mu.as_integer_ratio()
    if complement:
        num = den - num
    value = n * num / den
    vnum, vden = value.as_integer_ratio()
    return value, (n * num * vden - vnum * den) / (den * vden)


class _Law:
    """Bin(n, mu) for a checked mean, with the constants of Loader's form:
    the rounded means n mu and n (1 - mu) (`mean`, `rest_mean`), their
    rounding errors (`slip`, `rest_slip`), and the slope and offset that,
    with -stirlerr(n) in the offset, the form adds at count k as
    offset - k slope. To first order, bd0(x, m + e) = bd0(x, m) + e (1 - x/m),
    so that affine step recovers the exact means."""

    __slots__ = ("mu", "n", "mean", "slip", "rest_mean", "rest_slip", "slope", "offset")

    def __init__(self, mu: float, n: int):
        self.mu, self.n = mu, n
        (mean, slip), (rest_mean, rest_slip) = _rounded_product(n, mu, False), _rounded_product(n, mu, True)
        self.mean, self.slip, self.rest_mean, self.rest_slip = mean, slip, rest_mean, rest_slip
        self.slope = slip / mean - rest_slip / rest_mean
        self.offset = slip + rest_slip - n * rest_slip / rest_mean - stirlerr(float(n))

    def log_pmf(self, k: int) -> float:
        """log P(k) for a count 0 <= k <= n, within a few units in the last
        place of `shots.log_binomial_pmf` at the same count, and equal to it
        at k = 0 and k = n, whose closed forms it supplies there."""
        n, mu = self.n, self.mu
        if k == 0:
            return n * math.log1p(-mu)
        if k == n:
            return n * math.log(mu)
        x, rest = float(k), float(n - k)
        out = stirlerr(x) + stirlerr(rest)
        out += self.offset
        out -= x * self.slope
        out += _bd0(x, self.mean, _gap(k, self.mean))
        out += _bd0(rest, self.rest_mean, _gap(n - k, self.rest_mean))
        out += 0.5 * math.log(_TWO_PI * x * (rest / n))
        return -out

    def tail(self, k: int, upper: bool) -> tuple[float, float]:
        """P(X >= k) if `upper`, else P(X <= k), for a count 0 <= k <= n, as
        (s, f) with the tail equal to e^s f: s is a log pmf where the tail is
        small, so that e^eps times it is formed without overflow.

        The upper tail is I_mu(a, n - a + 1) with a = k, the regularized
        incomplete beta function, and the lower tail its mirror image
        I_(1-mu)(a, n - a + 1) with a = n - k. Where
        lambda = a - (n + 1) x >= 0, with x = mu or 1 - mu, the continued
        fraction `_fraction` converges fast and the tail is the pmf at k times
        it; on the other side the tail is one minus the complementary tail,
        whose fraction converges there, and is then above 1/3, so the
        subtraction keeps its digits (the branch rule of DiDonato & Morris
        1992). lambda is formed from the exact means n mu and n (1 - mu), as
        the fraction's first denominators cancel to it.
        """
        n = self.n
        if upper:
            a, x, y, mean, slip = k, self.mu, 1.0 - self.mu, self.mean, self.slip
        else:
            a, x, y, mean, slip = n - k, 1.0 - self.mu, self.mu, self.rest_mean, self.rest_slip
        if a == 0:
            return 0.0, 1.0
        lam = _gap(a, mean) - slip - x
        if lam >= 0.0:
            return self.log_pmf(k), a * y * _fraction(a, n - a + 1, x, y, lam)
        edge = k - 1 if upper else k + 1
        return 0.0, 1.0 - math.exp(self.log_pmf(edge)) * (n - a + 1) * x * _fraction(n - a + 1, a, y, x, -lam)


def _fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """The continued fraction r with I_x(a, b) = x^a y^b / B(a, b) r, for
    y = 1 - x and lam = a - (a + b) x >= 0, where it converges fast: `bfrac`
    of DiDonato & Morris 1992 (TOMS 708), its three-term recurrence rescaled
    at every step so that the last denominator is 1. Raises
    IterationCapError past `MAX_TERMS` steps."""
    a, b = float(a), float(b)
    c, c0, c1, yp1 = lam + 1.0, b / a, 1.0 / a + 1.0, y + 1.0
    p, s = 1.0, a + 1.0
    an = 0.0
    bn = r = c1 / c
    for m in range(1, MAX_TERMS + 1):
        t = m / a
        w = m * (b - m) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = m + w / s + e * (c + m * yp1)
        p = t + 1.0
        s += 2.0
        scale = 1.0 / (alpha * bn + beta)
        an, bn, r0, r = r * scale, scale, r, (alpha * an + beta * r) * scale
        if abs(r - r0) <= _CONVERGED * r:
            return r
    raise IterationCapError(f"IterationCap: incomplete beta fraction at a={a:.17g}, b={b:.17g}, x={x!r} "
                            f"did not converge in {MAX_TERMS} steps")


def _log_quotient(num: float, den: float, gap: float) -> float:
    """log(num / den) for positive num and den, given gap = num - den.

    Near 1, log1p of the relative gap keeps the digits that log of the
    rounded quotient would cancel; away from 1 the quotient is the accurate
    one, since a relative gap near -1 has already lost them. A quotient that
    overflows or falls below the smallest normal double has lost its digits
    too, and there the difference of the two logs is taken instead.
    """
    if 0.5 * den <= num <= 2.0 * den:
        return math.log1p(gap / den)
    quotient = num / den
    if _SMALLEST_NORMAL <= quotient < math.inf:
        return math.log(quotient)
    return math.log(num) - math.log(den)


def _slopes(mu0: float, mu1: float) -> tuple[float, float]:
    """The slopes log(mu0 / mu1) and log((1 - mu0) / (1 - mu1)) of the
    per-count log ratio, for checked means; each within a few units in the
    last place for means at or above the smallest normal double."""
    return _log_quotient(mu0, mu1, mu0 - mu1), _log_quotient(1.0 - mu0, 1.0 - mu1, mu1 - mu0)


def _log_ratio(lead: float, trail: float, n: int, k):
    """Per-count log ratio log P0(k) - log P1(k) of the two n-shot count laws.

    The binomial coefficients cancel, leaving the affine form

        k lead + (n - k) trail,  with (lead, trail) = `_slopes(mu0, mu1)`.

    `k` may be a scalar or an array of counts.
    """
    return k * lead + (n - k) * trail


def _last_holding(holds, inside: int, outside: int) -> int:
    """The last count, going from `inside` toward `outside`, at which
    `holds` is true, by bisection in O(log |outside - inside|) calls.

    `holds` must be true at `inside`, false at `outside`, and change once
    between them. Either end may be a sentinel one past the counts, where
    `holds` is never called; `inside` itself is returned when no count
    strictly between the ends holds.
    """
    while abs(inside - outside) > 1:
        mid = (inside + outside) // 2
        inside, outside = (mid, outside) if holds(mid) else (inside, mid)
    return inside


def _exact_level(n: int, lead: float, trail: float) -> float:
    """`exact_epsilon` from the slopes of `_slopes`. Rounding is monotone and
    sign-symmetric, so this is bit for bit the larger of |_log_ratio| at
    k = 0 and k = n, from one pair of logs."""
    return n * max(abs(lead), abs(trail))


def exact_epsilon(mu0: float, mu1: float, n: int) -> float:
    """Smallest eps for which the exact n-shot mechanism is pure-DP.

    The largest absolute log-probability ratio over all n+1 outcomes. The
    ratio is affine in the count, so the largest magnitude is at k = 0 or
    k = n: n |log((1-mu0)/(1-mu1))| or n |log(mu0/mu1)|. Both means must
    lie strictly inside (0, 1).
    """
    mu0, mu1, n = check_mean(mu0, "mean mu0"), check_mean(mu1, "mean mu1"), check_count(n, "shots n")
    return _exact_level(n, *_slopes(mu0, mu1))


def _hockey_stick(mu0: float, mu1: float, n: int, lead: float, trail: float, eps: float) -> float:
    """`hockey_stick_delta` on checked inputs, with the slopes of `_slopes`."""
    if eps >= _exact_level(n, lead, trail):
        return 0.0  # at or above the exact epsilon no count's log ratio exceeds eps
    # The float log ratio is monotone in k, as rounding is, rising when mu0 > mu1
    # and falling otherwise; the run {k: llr(k) > eps} ends at n, or at 0, and
    # starts at the last count from that end where llr(k) > eps, with sentinels
    # one past either end.
    upper = lead > trail
    step, beyond = (1, n + 1) if upper else (-1, -1)
    inside = _last_holding(lambda k: _log_ratio(lead, trail, n, k) > eps, beyond, n - beyond)
    if inside == beyond:
        return 0.0
    # While the excess P0 (1 - e^(eps - llr)) is under half of P0, sum it count by
    # count; from there on e^eps P1 <= P0 / 2 on every count of the run, so the
    # two tails' difference loses at most one bit.
    law0 = _Law(mu0, n)
    # Between anchors P0 steps by its ratio P0(k+1) / P0(k) = (n-k) / (k+1) odds,
    # odds = mu0 / (1 - mu0) correctly rounded, which adds a few units in the
    # last place per step; every `_ANCHOR` counts it is taken afresh.
    num, den = mu0.as_integer_ratio()
    odds = num / (den - num)
    head, k = 0.0, inside
    for i in range(MAX_TERMS):
        share = -math.expm1(eps - (k * lead + (n - k) * trail))  # `_log_ratio`, inlined
        if share >= 0.5:
            break
        if i % _ANCHOR == 0 or not _SMALLEST_NORMAL <= pmf <= 1.0:
            pmf = math.exp(law0.log_pmf(k))
        head += pmf * share
        ratio = (n - k) * odds / (k + 1) if upper else k / ((n - k + 1) * odds)
        # A P0 below the normal range has lost the digits the ratio would scale
        # up, and one above 1 has overflowed: either is taken afresh next.
        pmf = pmf * ratio if pmf >= _SMALLEST_NORMAL else 0.0
        k += step
        # Past P0's mode the ratio falls, so what is left of the run weighs at
        # most pmf / (1 - ratio): once that is negligible, so is the rest of delta.
        if k == beyond or ratio < 1.0 and pmf <= (1.0 - ratio) * head * _NEGLIGIBLE:
            return head
    else:
        raise IterationCapError(f"IterationCap: more than {MAX_TERMS} counts with an excess under half of P0")
    (scale0, rest0), (scale1, rest1) = law0.tail(k, upper), _Law(mu1, n).tail(k, upper)
    # e^eps S1 in log space, so that e^eps cannot overflow.
    return head + (math.exp(scale0) * rest0 - math.exp(eps + scale1) * rest1)


def hockey_stick_delta(mu0: float, mu1: float, n: int, eps: float) -> float:
    """Smallest valid delta for the exact mechanism at privacy level eps.

    The sum over the outcomes of the positive parts of P0(k) - e^eps P1(k).
    Decreasing in eps; at eps = 0 it is the total-variation distance. Both
    means must lie strictly inside (0, 1).

    At eps >= `exact_epsilon(mu0, mu1, n)` it is 0.0 by definition, for any
    n. That exact epsilon is rounded, so the true delta at it may be
    nonzero, but below about eps 2^-50: 4.09e-22 at mu0 = 0.25, mu1 = 0.15,
    n = 10, by mpmath.

    Below it, the positive parts sit on one run of counts that ends at 0
    or at n, since the log ratio llr = log P0 - log P1 is affine in the
    count; its first count is found by bisection on the float llr. Where the
    excess P0(k) (1 - e^(eps - llr(k))) is under half of P0(k), counts are
    summed directly; past them the rest is S0 - e^eps S1 for the two laws'
    tails S0, S1 from that count, each a pmf at one count times a continued
    fraction, with e^eps S1 formed in log space, so e^eps never overflows
    and the difference loses at most one bit. The result is within 1e-12
    relative of a 40-digit reference, apart from what rounding llr(k) to a
    double moves it by: e^eps P1(k) times a few units in the last place of
    |k log(mu0/mu1)| + |(n-k) log((1-mu0)/(1-mu1))| per count.

    Memory is O(1) in n. The work grows with sqrt(n mu (1 - mu)) near the
    laws' means (a fraction at the mean of a million shots at mu = 0.15
    takes about 400 steps) and is capped at `MAX_TERMS` (131,072) fraction
    steps or summed counts, which serves every pair and eps with
    n mu0 (1 - mu0) and n mu1 (1 - mu1) up to 1e8. Past the cap, which only
    a level near the laws' overlap reaches, it raises IterationCapError.
    """
    eps, mu0 = check_nonnegative(eps, "eps"), check_mean(mu0, "mean mu0")
    n, mu1 = check_count(n, "shots n"), check_mean(mu1, "mean mu1")
    return _hockey_stick(mu0, mu1, n, *_slopes(mu0, mu1), eps)


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


def log_likelihood_ratio(x: float, mu0: float, mu1: float, n: int) -> float:
    """Log ratio of the two unnormalized Gaussian-surrogate kernels at x.

    Positive where an observed mean x favors mu0 over mu1. Expanded
    polynomial form

        n (mu0 - mu1) [ (1 - mu0 - mu1) x^2 / (2 mu0 mu1 (1-mu0)(1-mu1))
                        + x / ((1-mu0)(1-mu1))
                        - 1 / (2 (1-mu0)(1-mu1)) ]

    The bracket is symmetric in (mu0, mu1). With the pair sorted and the
    gap g = mu0 - mu1 brought inside, the sum is evaluated as

        ((1-lo-hi)/2 (x/lo) ((g/hi) x) + g (x - 1/2)) / ((1-lo)(1-hi))

    which forms no product of the means, so tiny means cannot divide by an
    underflowed zero, and |g/hi| < 1, so the quadratic term is finite
    wherever x/lo is (lo above about 1e-308). Swapping the hypotheses flips the sign of g alone:
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
    gap = mu0 - mu1
    total = (0.5 * (1.0 - lo - hi)) * (x / lo) * ((gap / hi) * x) + gap * (x - 0.5)
    return n * (total / ((1.0 - lo) * (1.0 - hi)))


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

    The budget is the regime's pure budget, checked as the budget API
    checks it: p and dim are validated when given, and the depolarizing
    regime needs both. Requires mu1 <= mu0 and the gap admissible for the
    regime (mu0 - mu1 <= d r noiseless; mu0 within the depolarizing ratio
    bound). When mu0 + mu1 > 1 the ratio's quadratic coefficient flips
    sign and the endpoint-maximum argument breaks; the report flags
    NonConvexRegime instead of asserting anything.

    Any n that `check_count` admits is taken: the window's edge counts are
    found by bisection in O(log n) steps, and its maxima and the exact
    delta at the budget take O(1) memory.
    """
    d, r, n = check_distance(d), check_count(r, "rank r"), check_count(n, "shots n")
    mu0, mu1 = check_mean(mu0, "mean mu0"), check_mean(mu1, "mean mu1")
    if mu1 > mu0:
        raise PreconditionViolatedError(f"PreconditionViolated: mu1={mu1} must be the smaller mean")
    report = _evaluate(_pure, regime, BudgetInputs(d, r, n, mu1, p, dim))
    if regime == "noiseless":
        if mu0 - mu1 > d * r + _EQ_SLACK:
            raise PreconditionViolatedError(f"PreconditionViolated: gap {mu0 - mu1} exceeds d*r = {d * r}")
    else:
        bound = expectation_ratio_bound(mu1, d, p, dim)
        if mu0 > bound + _EQ_SLACK:
            raise PreconditionViolatedError(f"PreconditionViolated: mu0={mu0} exceeds ratio bound {bound:.12g}")
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
