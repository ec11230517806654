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
array of counts from these pieces. This module imports only the standard
library, so the exact oracles run in O(1) memory for any n.
"""

from __future__ import annotations

import math
import sys

from .errors import IterationCapError, check_count, check_mean, check_nonnegative

_TWO_PI = 2.0 * math.pi
# Stirling's error log k! - log(sqrt(2 pi k) (k/e)^k) at k = 0..15 (0 at k = 0 by convention).
STIRLERR_TABLE = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
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
