"""Property tests: the closed-form oracles against brute force, search and mpmath.

The package computes the exact n-shot epsilon, the dominance audit's window
and the shot count for a budget in closed form. The brute-force and search
versions they replaced live here as references: the largest absolute
difference of the two log pmfs over all n + 1 counts, the window as masks
over all counts, and doubling then bisection on the budget itself. The
binomial law is checked against mpmath's log-gamma, and the hockey-stick
delta of two binomial tails against a 40-digit mpmath sum and, at any n,
under the standard-library Renyi upper bound `renyi_delta_bound`, and it
must not fall as the means move apart or as n grows. The pure budgets are
checked against a 50-digit mpmath evaluation of their formula, and the tail
budgets against an exact one.
"""

import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from shotdp import (
    BudgetInputs,
    UnattainableError,
    dominance_audit,
    epsilon_delta_depolarizing,
    epsilon_delta_noiseless,
    epsilon_depolarizing,
    epsilon_noiseless,
    exact_epsilon,
    hockey_stick_delta,
    log_binomial_pmf,
    shots_for_budget,
)
from shotdp.binomial import _Law, _log_ratio, _slopes

# Means at or above the smallest normal double, where the closed form
# promises a few units in the last place.
means = st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True)
small_counts = st.integers(min_value=1, max_value=2000)


def brute_log_ratio(mu0, mu1, n):
    return log_binomial_pmf(mu0, n) - log_binomial_pmf(mu1, n)


def brute_tolerance(mu0, mu1, n):
    """Absolute error bound of `brute_log_ratio`: a few hundred units in the
    last place of the largest term summed into either log pmf."""
    logs = (math.log(mu0), math.log(mu1), math.log1p(-mu0), math.log1p(-mu1))
    return 1e-13 * (math.lgamma(n + 1) + n * max(map(abs, logs)))


def mask_window(mu0, n, raw_lower, raw_upper, log_ratio):
    """The dominance audit's window fields from masks over every count."""
    ks = np.arange(n + 1)
    in_window = (ks / n >= raw_lower) & (ks / n <= raw_upper)
    boundary = (ks == 0) | (ks == n)
    interior = in_window & ~boundary
    return {
        "excluded": tuple(int(k) for k in ks[in_window & boundary]),
        "count": int(np.count_nonzero(in_window)),
        "interior": float(np.max(np.abs(log_ratio[interior]))) if interior.any() else 0.0,
        "full": float(np.max(np.abs(log_ratio[in_window]))) if in_window.any() else 0.0,
    }


@st.composite
def pmf_points(draw):
    """A mean, a shot count and counts across the support: both ends, one
    count within 40 standard deviations of the mean, and uniform ones."""
    mu = draw(st.floats(min_value=1e-300, max_value=1.0 - 1e-16))
    n = draw(st.integers(min_value=1, max_value=10**7))
    spread = math.sqrt(n * mu * (1.0 - mu))
    near = min(max(round(n * mu + draw(st.floats(min_value=-40.0, max_value=40.0)) * spread), 0), n)
    return mu, n, [0, n, near, *draw(st.lists(st.integers(min_value=0, max_value=n), max_size=3))]


def bisection_shots(target, inp, regime):
    """Largest n with budget(n) <= target by doubling then bisection; None if n = 1 already exceeds it."""
    budget = epsilon_noiseless if regime == "noiseless" else epsilon_depolarizing
    evaluate = lambda n: budget(BudgetInputs(**{**inp._asdict(), "n": n})).epsilon
    if evaluate(1) > target:
        return None
    lo, hi = 1, 2
    while evaluate(hi) <= target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


@given(mu0=means, mu1=means, n=small_counts)
def test_exact_epsilon_matches_brute_force(mu0, mu1, n):
    brute = float(np.max(np.abs(brute_log_ratio(mu0, mu1, n))))
    assert abs(exact_epsilon(mu0, mu1, n) - brute) <= brute_tolerance(mu0, mu1, n)


@given(mu0=means, mu1=means, n=st.integers(min_value=1, max_value=10**9))
def test_exact_epsilon_matches_mpmath(mu0, mu1, n):
    with mpmath.workdps(40):
        a, b = mpmath.mpf(mu0), mpmath.mpf(mu1)
        reference = max(abs(n * mpmath.log(a / b)), abs(n * mpmath.log((1 - a) / (1 - b))))
        assert abs(exact_epsilon(mu0, mu1, n) - reference) <= 1e-15 * reference


@given(mu0=means, mu1=means, n=small_counts)
def test_hockey_stick_vanishes_at_exact_epsilon(mu0, mu1, n):
    assert hockey_stick_delta(mu0, mu1, n, exact_epsilon(mu0, mu1, n)) == 0.0


@given(
    d=st.floats(min_value=0.0, max_value=1.0),
    r=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=3000),
    mu1=st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True),
    share=st.floats(min_value=0.0, max_value=1.0),
)
# Equal means so small that a product of the two underflows to zero.
@example(d=0.0, r=1, n=1, mu1=1e-170, share=0.0)
# Windows with an edge count k whose k/n equals mu0 -/+ 3 sigma0 in exact arithmetic.
@example(d=0.1, r=1, n=196, mu1=0.4, share=1.0)
@example(d=0.1, r=1, n=150, mu1=0.3, share=1.0)
@example(d=0.05, r=1, n=361, mu1=0.05, share=1.0)
def test_dominance_window_matches_masks(d, r, n, mu1, share):
    mu0 = mu1 + share * min(d * r, 1.0 - mu1)
    assume(mu0 < 1.0)
    report = dominance_audit(d, r, n, mu0, mu1)
    sigma0 = math.sqrt(mu0 * (1.0 - mu0) / n)
    oracle = mask_window(mu0, n, mu0 - 3.0 * sigma0, mu0 + 3.0 * sigma0, brute_log_ratio(mu0, mu1, n))
    assert report.excluded_outcomes == oracle["excluded"]
    assert report.details["window_outcome_count"] == oracle["count"]
    tolerance = brute_tolerance(mu0, mu1, n)
    for field, key in (("window_exact_epsilon", "interior"), ("window_exact_epsilon_with_boundary", "full")):
        assert math.isclose(report.details[field], oracle[key], rel_tol=1e-10, abs_tol=tolerance)


@pytest.mark.parametrize("n", [2**63, 10**19, 10**30])
def test_dominance_window_past_the_largest_range(n):
    """Past 2^63 - 1 counts, more than a `range` can hold, the window's edges
    are still where the float k/n, correctly rounded, crosses mu0 -/+ 3 sigma0:
    at the exact midpoints between each edge value and its outer neighbor."""
    mu0, mu1 = 0.2, 0.15
    report = dominance_audit(0.1, 1, n, mu0, mu1)
    sigma0 = math.sqrt(mu0 * (1.0 - mu0) / n)
    raw_lower, raw_upper = mu0 - 3.0 * sigma0, mu0 + 3.0 * sigma0
    below = (Fraction(math.nextafter(raw_lower, 0.0)) + Fraction(raw_lower)) / 2
    above = (Fraction(raw_upper) + Fraction(math.nextafter(raw_upper, 1.0))) / 2
    k_lo, k_hi = math.ceil(below * n), math.floor(above * n)
    # A count exactly at a midpoint rounds to the even neighbor, which may lie outside.
    k_lo += not k_lo / n >= raw_lower
    k_hi -= not k_hi / n <= raw_upper
    assert k_lo / n >= raw_lower and not (k_lo - 1) / n >= raw_lower
    assert k_hi / n <= raw_upper and not (k_hi + 1) / n <= raw_upper
    assert report.details["window_outcome_count"] == k_hi - k_lo + 1
    assert report.excluded_outcomes == ()
    lead, trail = _slopes(mu0, mu1)
    edges = max(abs(_log_ratio(lead, trail, n, k)) for k in (k_lo, k_hi))
    assert report.details["window_exact_epsilon"] == report.details["window_exact_epsilon_with_boundary"] == edges


@given(
    regime=st.sampled_from(["noiseless", "depolarizing"]),
    d=st.floats(min_value=1e-3, max_value=1.0),
    r=st.integers(min_value=1, max_value=4),
    mu=st.floats(min_value=1e-3, max_value=0.999),
    p=st.floats(min_value=0.05, max_value=0.99),
    dim=st.integers(min_value=1, max_value=8),
    shots=st.integers(min_value=1, max_value=10**7),
    stretch=st.floats(min_value=0.5, max_value=2.0),
)
def test_shots_for_budget_matches_bisection(regime, d, r, mu, p, dim, shots, stretch):
    inp = BudgetInputs(d=d, r=r, n=1, mu=mu, p=p, D=dim)
    budget = epsilon_noiseless if regime == "noiseless" else epsilon_depolarizing
    # Targets on a budget value exactly, and between budget values.
    target = budget(BudgetInputs(**{**inp._asdict(), "n": shots})).epsilon * (1.0 if stretch > 1.5 else stretch)
    assume(target > 0.0)
    expected = bisection_shots(target, inp, regime)
    try:
        found = shots_for_budget(target, inp, regime)
    except UnattainableError:
        found = None
    assert found == expected


def mp_pure_budget(regime, d, r, n, mu, p, dim):
    """The pure budget of the float inputs at 50 digits, and its error scale
    S = scale (|(9/2)(1 - 2 mu)| + (3/2) sqrt(n) + |quadratic n / (1 - mu)|),
    the sum of the bracket's terms' magnitudes times the scale."""
    with mpmath.workdps(50):
        d, mu = mpmath.mpf(d), mpmath.mpf(mu)
        if regime == "noiseless":
            dr = d * r
            scale, quadratic = dr / ((1 - mu) * mu), dr * (mu + dr)
        else:
            a = (1 - mpmath.mpf(p)) / p * d * r * dim
            scale, quadratic = a / (1 - mu), a * mu**2 * (1 + a)
        terms = (4.5 * (1 - 2 * mu), 1.5 * mpmath.sqrt(n), quadratic * n / (1 - mu))
        return scale * mpmath.fsum(terms), scale * mpmath.fsum(map(abs, terms))


@given(
    regime=st.sampled_from(["noiseless", "depolarizing"]),
    d=st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)),
    r=st.integers(min_value=1, max_value=64),
    n=st.one_of(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=10**15)),
    mu=means,
    p=st.floats(min_value=sys.float_info.min, max_value=1.0),
    dim=st.integers(min_value=1, max_value=64),
)
@example(regime="noiseless", d=0.1, r=1, n=10, mu=0.15, p=1.0, dim=1)
# mu > 1/2, where (9/2)(1 - 2 mu) is negative and nearly cancels (3/2) sqrt(n).
@example(regime="noiseless", d=0.001, r=1, n=6, mu=0.9, p=1.0, dim=1)
@example(regime="depolarizing", d=0.001, r=1, n=6, mu=0.9, p=0.5, dim=2)
@example(regime="depolarizing", d=0.1, r=1, n=10, mu=0.5, p=1.0, dim=2)  # p = 1: epsilon 0
def test_pure_budgets_match_mpmath(regime, d, r, n, mu, p, dim):
    """Every finite epsilon, flagged or not, is within 1e-14 S of a 50-digit
    evaluation of its formula on the same float inputs; a non-finite one is
    flagged Divergent."""
    report = (epsilon_noiseless if regime == "noiseless" else epsilon_depolarizing)(BudgetInputs(d, r, n, mu, p, dim))
    if not math.isfinite(report.epsilon):
        assert "Divergent" in report.warnings
        return
    want, scale = mp_pure_budget(regime, d, r, n, mu, p, dim)
    assert abs(report.epsilon - want) <= 1e-14 * scale, (report.epsilon, want, scale)


def exact_tail_budget(regime, d, r, n, mu, p, dim, c):
    """The (epsilon, delta) budget of the float inputs at cutoff c, exactly,
    as a fraction; its error scale S = scale (|lead c^2 / (2 mu (1 - mu -
    u))| + c + u/2), the sum of the bracket's terms' magnitudes times the
    scale; and the pole factor 1 - mu - u. The budget and S are None at the
    pole. Fractions, not 50-digit mpmath: at 50 digits, 1 - mu - u loses mu
    below 1e-50."""
    d, mu, c = Fraction(d), Fraction(mu), Fraction(c)
    if regime == "noiseless":
        u = n * d * r
        scale = u / (mu * (1 - mu))
    else:
        a = (1 - Fraction(p)) / Fraction(p) * d * r * dim
        scale, u = a / (1 - mu), n * a
    denom = 1 - mu - u
    if denom == 0:
        return None, None, denom
    terms = ((1 - 2 * mu - u) * c * c / (2 * mu * denom), c, u / 2)
    return scale * sum(terms), scale * sum(map(abs, terms)), denom


@st.composite
def tail_points(draw):
    """Inputs of a tail budget at a drawn relative distance from the pole
    1 - mu - u = 0, or from the lead factor's zero 1 - 2 mu - u = 0: log-
    uniform from 1e-15 to 0.5, or far, from 0.5 to 2, on either side. d is
    solved for that distance and then rounded, so the distance is met to
    within rounding; a d past 1 is taken as 1, a far draw. mu is drawn
    from 1e-100: near the smallest normal double, lead c^2 and 2 mu (1 - mu
    - u) can round to subnormals, which carry fewer digits."""
    regime = draw(st.sampled_from(["noiseless", "depolarizing"]))
    mu = draw(st.floats(min_value=1e-100, max_value=0.99))
    n, r, dim = draw(st.integers(1, 10**6)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    p = draw(st.floats(min_value=sys.float_info.min, max_value=1.0)) if regime == "depolarizing" else None
    zero = 1 - mu if draw(st.sampled_from(["pole", "lead"])) == "pole" else 1 - 2 * mu
    gap = draw(st.one_of(st.floats(-15.0, math.log10(0.5)).map(lambda e: 10.0**e), st.floats(0.5, 2.0)))
    u = max(zero * (1 + draw(st.sampled_from([-1, 1])) * gap), 0.0)
    per_d = n * r * ((1 - p) / p * dim if regime == "depolarizing" else 1)
    d = min(u / per_d, 1.0) if per_d > 0 else 1.0
    convention = draw(st.sampled_from(["paper", "normalized"]))
    if draw(st.booleans()):
        return regime, BudgetInputs(d, r, n, mu, p, dim if p else None, c=draw(st.floats(1e-8, 1e4))), convention
    supremum = math.sqrt(2 * math.pi * mu * (1 - mu) / n) if convention == "paper" else 1.0
    delta = draw(st.floats(1e-12, 0.99)) * supremum
    return regime, BudgetInputs(d, r, n, mu, p, dim if p else None, delta=delta), convention


@given(tail_points())
# 1e-12 of the pole, where a float pole factor 1 - mu - u loses about 1e-4 of epsilon.
@example(("noiseless", BudgetInputs(0.085 * (1 - 1e-12), 1, 10, 0.15, c=0.05), "paper"))
@example(("depolarizing", BudgetInputs(0.0425 * (1 + 1e-12), 1, 10, 0.15, 0.5, 2, delta=0.01), "paper"))
# mu = 1e-4, 1e-8 of the pole, where the lead factor 1 - 2 mu - u cancels to about -mu.
@example(("noiseless", BudgetInputs(0.09999 * (1 - 1e-8), 1, 10, 1e-4, c=1.0), "normalized"))
def test_tail_budgets_match_the_exact_formula(point):
    """Every finite epsilon, flagged or not, is within 5e-14 S of its formula
    evaluated exactly on the same float inputs, at the c that the
    kernel returns, with RegimeInvalid flagged exactly when 1 - mu - u <= 0;
    a non-finite epsilon is flagged Divergent."""
    regime, inp, convention = point
    report = (epsilon_delta_noiseless if regime == "noiseless" else epsilon_delta_depolarizing)(inp, convention)
    if not math.isfinite(report.epsilon):
        assert "Divergent" in report.warnings
        return
    d, r, n, mu, p, dim, c, _ = report.inputs
    want, scale, denom = exact_tail_budget(regime, d, r, n, mu, p, dim, c)
    assert ("RegimeInvalid" in report.warnings) == (denom <= 0), (report, float(denom))
    assert abs(Fraction(report.epsilon) - want) <= Fraction(5e-14) * scale, (report.epsilon, float(want), float(scale))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def renyi_delta_bound(mu0, mu1, n, eps):
    """An upper bound on the hockey-stick delta of the n-shot pair at eps,
    from the Renyi divergence, on the standard library only.

    One shot's Renyi divergence of order alpha > 1 is D_alpha =
    log(mu0^alpha mu1^(1-alpha) + (1-mu0)^alpha (1-mu1)^(1-alpha)) / (alpha - 1),
    and n independent shots have n D_alpha (Mironov 2017). For every alpha,
    delta <= exp((alpha - 1)(n D_alpha - eps) + (alpha - 1) log(1 - 1/alpha)
    - log alpha) (Canonne, Kamath and Steinke 2020). With beta = alpha - 1
    and the slopes g = log(mu0/mu1), log((1-mu0)/(1-mu1)), the log-sum-exp
    taken about its larger term gives (alpha - 1) D_alpha = beta g_max +
    log1p(w expm1(-beta (g_max - g_min))), where w (mu0 or 1 - mu0) weighs
    the smaller slope. n g_max - eps, which cancels near the exact epsilon,
    is formed at 50 digits by `decimal`; the other terms are well
    conditioned in doubles. The exponent is convex in alpha, so a
    golden-section search on log(alpha - 1) finds its least value; any
    alpha gives a valid bound, so the search need not be exact.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b = Decimal(mu0), Decimal(mu1)
        slopes = ((a / b).ln(), ((1 - a) / (1 - b)).ln())
        gap = float(n * max(slopes) - Decimal(eps))
        spread = float(max(slopes) - min(slopes))
    weight = 1.0 - mu0 if slopes[0] >= slopes[1] else mu0

    def log_bound(t):
        beta = math.exp(t)
        return (beta * gap + n * math.log1p(weight * math.expm1(-beta * spread))
                - beta * math.log1p(1.0 / beta) - math.log1p(beta))

    lo, hi = -40.0, 60.0
    for _ in range(80):
        left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        if log_bound(left) <= log_bound(right):
            hi = right
        else:
            lo = left
    return math.exp(log_bound((lo + hi) / 2))


@st.composite
def renyi_points(draw):
    """A pair 0.1 to 6 standard deviations of the n-shot mean apart, either
    one the larger, n up to 1e8 (so n mu (1 - mu) is within
    `hockey_stick_delta`'s 1e8 for both means), and eps from 0 to the exact
    epsilon."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=10**8)))
    mu1 = draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    apart = draw(st.floats(min_value=0.1, max_value=6.0)) * draw(st.sampled_from((-1.0, 1.0)))
    mu0 = mu1 + apart * math.sqrt(mu1 * (1.0 - mu1) / n)
    assume(0.0 < mu0 < 1.0 and mu0 != mu1)
    return mu0, mu1, n, draw(st.floats(min_value=0.0, max_value=1.0)) * exact_epsilon(mu0, mu1, n)


@given(point=renyi_points())
@example(point=(0.25, 0.15, 10**4, 0.0))
@example(point=(0.151, 0.15, 10**6, 1.0))
@example(point=(0.15 + 6e-8, 0.15, 10**8, 0.5 * exact_epsilon(0.15 + 6e-8, 0.15, 10**8)))
# 2^-53 below the exact epsilon, where the true delta is about 1e-16 of P0(n) and the rounding sets the delta.
@example(point=(0.40649375903935, 0.08764965241671, 8, (1 - 2**-53) * exact_epsilon(0.40649375903935, 0.08764965241671, 8)))
def test_hockey_stick_below_the_renyi_bound(point):
    """In both orderings, the delta is at most the Renyi bound times
    1 + 1e-9, with the bound taken at eps less 2^-50 of the exact epsilon:
    `hockey_stick_delta` rounds each count's log ratio by a few units in the
    last place of at most the exact epsilon (see its docstring), and a
    larger log ratio at every count acts as a smaller eps. The shift moves
    the bound only within about 1e-7 relative of the exact epsilon, where
    the bound is tight to first order and that rounding sets the delta."""
    mu0, mu1, n, eps = point
    level = max(eps - 2**-50 * exact_epsilon(mu0, mu1, n), 0.0)
    for a, b in ((mu0, mu1), (mu1, mu0)):
        assert hockey_stick_delta(a, b, n, eps) <= renyi_delta_bound(a, b, n, level) * (1 + 1e-9), (a, b)


@pytest.mark.parametrize("n, bound, exact", [
    (30, 1.56e-7, 1.87e-8), (100, 8.34e-6, 1.52e-6), (1000, 2.23e-3, 3.97e-4), (10**4, 0.822, 0.312),
])
def test_renyi_bound_at_the_reported_pure_epsilon(n, bound, exact):
    """At mu = 0.15 and mu0 = mu + d r = 0.25 (d = 0.1), at the pure budget's
    epsilon, which reports delta 0: the Renyi bound and the exact delta, to
    three digits."""
    eps = epsilon_noiseless(BudgetInputs(0.1, 1, n, 0.15)).epsilon
    assert float(f"{renyi_delta_bound(0.25, 0.15, n, eps):.3g}") == bound
    assert float(f"{hockey_stick_delta(0.25, 0.15, n, eps):.3g}") == exact


@st.composite
def nested_pairs(draw):
    """mu1 and two means on one side of it, the nearer first, 0.1 to 6
    standard deviations of the n-shot mean away; n up to 1e8 and a larger
    count up to 2n + 1 (so n mu (1 - mu) stays within `hockey_stick_delta`'s
    1e8 for every mean); and eps from 0 to 1.1 times the exact epsilon of the
    nearer pair at n, half of them 2^-k below it, where the delta is least."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=10**8)))
    more = draw(st.one_of(st.integers(min_value=n + 1, max_value=n + 100),
                          st.integers(min_value=n + 1, max_value=2 * n + 1)))
    mu1 = draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    sigma = draw(st.sampled_from((-1.0, 1.0))) * math.sqrt(mu1 * (1.0 - mu1) / n)
    near, far = sorted(draw(st.floats(min_value=0.1, max_value=6.0)) for _ in range(2))
    mu_near, mu_far = mu1 + near * sigma, mu1 + far * sigma
    assume(0.0 < mu_far < 1.0 and mu_near != mu1)
    share = draw(st.one_of(st.floats(min_value=0.0, max_value=1.1), st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k)))
    return mu1, mu_near, mu_far, n, more, share * exact_epsilon(mu_near, mu1, n)


@given(point=nested_pairs())
def test_delta_grows_with_the_gap(point):
    """At a fixed n and eps, in both orderings, the delta does not fall as
    one mean moves away from the other, to 1e-9 relative. A post-processing
    argument does not give this: a map from Bernoulli(mu0'') to
    Bernoulli(mu0') moves mu1 too. A budget's worst pair of means rests on
    it."""
    mu1, near, far, n, _, eps = point
    assert hockey_stick_delta(near, mu1, n, eps) <= hockey_stick_delta(far, mu1, n, eps) * (1 + 1e-9)
    assert hockey_stick_delta(mu1, near, n, eps) <= hockey_stick_delta(mu1, far, n, eps) * (1 + 1e-9)


@given(point=nested_pairs())
# P0 steps below the normal range inside the head at both counts; the sum
# stopped there and the delta fell from 8.60e-314 to 5.98e-314 (by 60-digit
# mpmath 6.53e-313 and 1.30e-312).
@example(point=(0.30381003631023185, 0.3120121558749701, 0.3120121558749701, 21888, 21909, 105.85101438709998))
def test_delta_grows_with_the_shot_count(point):
    """At a fixed pair and eps, in both orderings, the delta does not fall as
    n grows, to 1e-9 relative: dropping a shot is post-processing. A search
    for the shot count that meets an (eps, delta) budget rests on it."""
    mu1, near, _, n, more, eps = point
    for a, b in ((near, mu1), (mu1, near)):
        assert hockey_stick_delta(a, b, n, eps) <= hockey_stick_delta(a, b, more, eps) * (1 + 1e-9), (a, b)


@given(point=pmf_points())
# Counts 36 standard deviations out, where the rounding of n mu and n (1-mu) costs 1.2e-11 uncorrected.
@example(point=(0.488126935591685, 10**7, [4824364, 4938174]))
@example(point=(1.0 - 1e-16, 10**7, [10**7 - 1]))
@example(point=(1e-300, 15, [1]))
def test_log_binomial_pmf_matches_mpmath(point):
    """Every probability above 1e-300 is within 1e-11 relative of 40 digits."""
    mu, n, counts = point
    got = log_binomial_pmf(mu, n, np.array(counts))
    with mpmath.workdps(40):
        a = mpmath.mpf(mu)
        for k, value in zip(counts, got):
            reference = (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                         + k * mpmath.log(a) + (n - k) * mpmath.log1p(-a))
            if reference > math.log(1e-300):
                assert abs(mpmath.expm1(value - reference)) <= 1e-11, (k, value, reference)


def mp_log_pmf(mu, n, k):
    """log P(k) of Bin(n, mu) at the working precision."""
    return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + k * mpmath.log(mu) + (n - k) * mpmath.log1p(-mu))


def mp_tail(mu, n, k, upper):
    """P(X >= k) if `upper`, else P(X <= k), for X ~ Bin(n, mu) at the working
    precision: the terms from k away from the mean, summed until they stop
    counting, or one minus that sum for the complementary tail."""
    if (k <= 0) if upper else (k >= n):
        return mpmath.mpf(1)
    if (k > n) if upper else (k < 0):
        return mpmath.mpf(0)
    if (k >= n * mu) == upper:
        j, step, complement = k, 1 if upper else -1, False
    else:
        j, step, complement = k - 1 if upper else k + 1, -1 if upper else 1, True
    odds = mu / (1 - mu)
    term, total = mpmath.exp(mp_log_pmf(mu, n, j)), mpmath.mpf(0)
    while 0 <= j <= n and term > total * mpmath.eps:
        total += term
        term *= (n - j) * odds / (j + 1) if step == 1 else j / ((n - j + 1) * odds)
        j += step
    return 1 - total if complement else total


def mp_fraction_tail(mu, n, k, upper):
    """`mp_tail` from the continued fraction of the incomplete beta function
    I_mu(k, n - k + 1) (Numerical Recipes 6.4, modified Lentz) at the working
    precision, for laws too wide to sum: the lower tail is the mirror image,
    and on the slow side of the fraction one minus the complementary tail."""
    if not upper:
        return mp_fraction_tail(1 - mu, n, n - k, True)
    if k <= 0 or k > n:
        return mpmath.mpf(int(k <= 0))
    if mu * (n + 3) >= k + 1:
        return 1 - mp_fraction_tail(1 - mu, n, n - k + 1, True)
    a, b = mpmath.mpf(k), mpmath.mpf(n - k + 1)
    c, d = mpmath.mpf(1), 1 / (1 - (a + b) * mu / (a + 1))
    h = d
    for m in itertools.count(1):
        for aa in (m * (b - m) * mu / ((a - 1 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * mu / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1 / (1 + aa * d)
            c = 1 + aa / c
            h *= d * c
        if abs(d * c - 1) < mpmath.eps:
            return mpmath.exp(mp_log_pmf(mu, n, k)) * (1 - mu) * h


def mp_hockey_stick(mu0, mu1, n, eps, tail=mp_tail):
    """The hockey-stick delta of the float inputs at 40 digits, and the most
    that rounding the affine log ratio to doubles can move it.

    Up to n = 1000 the positive parts are summed over every count; above,
    delta = S0 - e^eps S1 for the two laws' tails (from `tail`) from the
    first count whose exact log ratio exceeds eps. A double-precision llr(k)
    is off by a few units in the last place of |k lead| + |(n - k) trail|
    (the slopes are rounded), and delta moves by e^eps P1(k) per unit of
    llr(k), so the second value is 2^-51 e^eps sum_k P1(k) (|k lead| +
    |(n - k) trail|) over the counts from two before the run.
    """
    lead, trail = (abs(v) for v in _slopes(mu0, mu1))
    with mpmath.workdps(40):
        a, b, e = mpmath.mpf(mu0), mpmath.mpf(mu1), mpmath.mpf(eps)
        over = mpmath.log(a / b) - mpmath.log((1 - a) / (1 - b))  # exact slope of llr in k
        if over == 0:
            return 0.0, 0.0
        upper = over > 0
        edge = (e - n * mpmath.log((1 - a) / (1 - b))) / over  # llr(edge) = eps
        first = int(mpmath.floor(edge)) + 1 if upper else int(mpmath.ceil(edge)) - 1
        start = first - 2 if upper else first + 2
        grow = mpmath.exp(e)
        if n <= 1000:
            delta = weight = mpmath.mpf(0)
            for k in range(n + 1):
                p0, p1 = mpmath.exp(mp_log_pmf(a, n, k)), mpmath.exp(mp_log_pmf(b, n, k))
                delta += max(p0 - grow * p1, 0)
                if (k >= start) if upper else (k <= start):
                    weight += p1 * (k * lead + (n - k) * trail)
        else:
            delta = tail(a, n, first, upper) - grow * tail(b, n, first, upper)
            # sum_k k P1(k) over a tail is n mu1 times the tail of Bin(n - 1, mu1) from k - 1.
            weight = n * trail * tail(b, n, start, upper) + (lead - trail) * n * b * tail(b, n - 1, start - 1, upper)
        return float(delta), float(2**-51 * grow * weight)


@st.composite
def hockey_stick_points(draw):
    """Means in either order, n across both references, and eps from 0 to
    past the exact epsilon, with the pairs close enough for the run to start
    inside the laws' bulk."""
    mu0 = draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    mu1 = draw(st.one_of(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.9, max_value=1.1).map(lambda f: min(max(mu0 * f, 1e-6), 1.0 - 1e-6)),
    ))
    n = draw(st.one_of(st.integers(min_value=1, max_value=1000), st.integers(min_value=1001, max_value=10**6)))
    share = draw(st.floats(min_value=0.0, max_value=1.1))
    return mu0, mu1, n, share * exact_epsilon(mu0, mu1, n)


@given(point=hockey_stick_points())
@example(point=(0.25, 0.15, 2 * 10**5, 0.0))
@example(point=(0.5, 0.499, 2 * 10**5, 0.5 * exact_epsilon(0.5, 0.499, 2 * 10**5)))
# The window and the full sum differed here by 1.02e-14 relative.
@example(point=(0.5, 0.3125, 217, 0.5 * exact_epsilon(0.5, 0.3125, 217)))
@example(point=(0.151, 0.15, 10**6, 1.0))
@example(point=(0.15, 0.151, 10**6, 1.0))
@example(point=(0.45, 0.44998, 10**6, 0.01))
# Laws far closer than their width, where S0 - e^eps S1 at the run's first
# count cancels to 1e-9 of itself, and llr(k) is rounded by below 1e-20.
@example(point=(0.3, 0.3000000001, 100, 0.0))
@example(point=(0.70000003, 0.7, 1000, 0.0))
# P0 steps below the normal range inside the head, past its mode; the sum
# stopped there and returned 1.2110067644755549e-300, 7.6e-7 relative low.
@example(point=(0.30004, 0.3, 10**8, 32.64218999492641))
def test_hockey_stick_matches_mpmath(point):
    """Every delta above 1e-300 is within 1e-12 relative of 40 digits, past
    the error that rounding the log ratio to doubles sets for any float
    evaluation of it; deltas below 1e-300 stay below 1e-290."""
    mu0, mu1, n, eps = point
    got = hockey_stick_delta(mu0, mu1, n, eps)
    want, rounding = mp_hockey_stick(mu0, mu1, n, eps)
    if want > 1e-300:
        assert abs(got - want) <= 1e-12 * want + rounding, (got, want, rounding)
    else:
        assert 0.0 <= got <= 1e-290


@pytest.mark.parametrize("n, mu", [
    (7, 0.9), (30, 0.3), (10**4, 0.15), (10**6, 0.15), (10**6, 0.151), (10**7, 1e-5), (10**16 + 1, 5e-16),
    (10**16 + 3, 3e-15),
])
def test_tails_on_both_sides_of_the_switch(n, mu):
    """Each tail takes the continued fraction where lambda = a - (n + 1) x
    >= 0 and one minus the complementary tail on the other side. Both tails,
    at the counts around the switch and 3 and 10 standard deviations either
    side, are within 1e-13 relative of 40 digits, also where n - k is above
    2^53 and a double would round it."""
    law = _Law(mu, n)
    spread, switch = math.sqrt(n * mu * (1.0 - mu)), math.floor((n + 1) * mu)
    counts = {switch + j for j in range(-2, 4)} | {round(n * mu + z * spread) for z in (-10, -3, 3, 10)}
    for k in sorted(c for c in counts if 0 <= c <= n):
        for upper in (True, False):
            scale, rest = law.tail(k, upper)
            with mpmath.workdps(40):
                want = mp_tail(mpmath.mpf(mu), n, k, upper)
            assert abs(math.exp(scale) * rest - want) <= 1e-13 * want, (k, upper)


@pytest.mark.parametrize("mu0, mu1", [(0.151, 0.15), (0.15, 0.151)])
def test_delta_at_the_mean_of_a_million_shots(mu0, mu1):
    """At n = 1e6 and eps = 1 the tails are taken at P0's mean, where a
    fraction on the slow side of the switch lost 6e-9 relative; here the
    delta is within 1e-12 relative of 40 digits, in both orderings."""
    want, _ = mp_hockey_stick(mu0, mu1, 10**6, 1.0)
    assert abs(hockey_stick_delta(mu0, mu1, 10**6, 1.0) - want) <= 1e-12 * want
