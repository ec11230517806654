"""Property tests: the closed-form oracles against brute force, search and mpmath.

The package computes the exact n-shot epsilon, the dominance audit's window
and the shot count for a budget in closed form. The brute-force and search
versions they replaced live here as references: the largest absolute
difference of the two log pmfs over all n + 1 counts, the window as masks
over all counts, and doubling then bisection on the budget itself. The
binomial law is checked against mpmath's log-gamma, and the windowed
hockey-stick sum against the sum over all n + 1 counts.
"""

import math
import sys

import mpmath
import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.special import gammaln

from shotdp import (
    BudgetInputs,
    UnattainableError,
    dominance_audit,
    epsilon_depolarizing,
    epsilon_noiseless,
    exact_epsilon,
    hockey_stick_delta,
    log_binomial_pmf,
    shots_for_budget,
)
from shotdp.audit import _log_ratio, _slopes

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
    return 1e-13 * (float(gammaln(n + 1)) + n * max(map(abs, logs)))


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


@given(
    mu0=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    mu1=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    n=st.integers(min_value=1, max_value=2 * 10**5),
    share=st.floats(min_value=0.0, max_value=1.0),
)
@example(mu0=0.25, mu1=0.15, n=2 * 10**5, share=0.0)
@example(mu0=0.5, mu1=0.499, n=2 * 10**5, share=0.5)
def test_windowed_hockey_stick_matches_full_sum(mu0, mu1, n, share):
    """The window drops no term that the sum over all n + 1 counts keeps,
    at levels up to the exact epsilon, where only far tail counts are left."""
    eps = share * exact_epsilon(mu0, mu1, n)
    counts = np.arange(n + 1)
    llr = _log_ratio(*_slopes(mu0, mu1), n, counts)
    over = llr > eps
    full = float(np.sum(np.exp(log_binomial_pmf(mu0, n)[over]) * -np.expm1(eps - llr[over])))
    assert abs(hockey_stick_delta(mu0, mu1, n, eps) - full) <= 1e-14 * full
