"""Property tests: the closed-form oracles against brute force, search and mpmath.

The package computes the exact n-shot epsilon, the dominance audit's window
and the shot count for a budget in closed form. The brute-force and search
versions they replaced live here as references: the largest absolute
difference of the two log pmfs over all n + 1 counts, the window as masks
over all counts, and doubling then bisection on the budget itself.
"""

import math
import sys
from dataclasses import replace

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


def bisection_shots(target, inp, regime):
    """Largest n with budget(n) <= target by doubling then bisection; None if n = 1 already exceeds it."""
    budget = epsilon_noiseless if regime == "noiseless" else epsilon_depolarizing
    evaluate = lambda n: budget(replace(inp, n=n)).epsilon
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
    # Below about 1e-154 the surrogate's 2 mu0 mu1 underflows and
    # log_likelihood_ratio divides by zero, before the window is built.
    mu1=st.floats(min_value=1e-100, max_value=1.0, exclude_max=True),
    share=st.floats(min_value=0.0, max_value=1.0),
)
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
    target = budget(replace(inp, n=shots)).epsilon * (1.0 if stretch > 1.5 else stretch)
    assume(target > 0.0)
    expected = bisection_shots(target, inp, regime)
    try:
        found = shots_for_budget(target, inp, regime)
    except UnattainableError:
        found = None
    assert found == expected
