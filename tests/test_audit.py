"""Exact privacy oracles, dominance audits, and Monte Carlo confirmation."""

import itertools
import math
import sys
import time
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from shotdp import (
    AuditReport,
    BadConfigError,
    DegenerateMuError,
    IncompletePVMError,
    IterationCapError,
    OutOfRangeError,
    PreconditionViolatedError,
    apply_channel,
    basis_columns,
    basis_state,
    binomial_distribution,
    complement_projector,
    depolarizing_channel,
    dominance_audit,
    exact_epsilon,
    expectation,
    hockey_stick_delta,
    identity_channel,
    make_density,
    make_projector,
    maximally_mixed,
    min_expectation,
    monte_carlo_audit,
    qdp_check,
    sample_means,
)
from shotdp.binomial import _log_quotient, _log_ratio, _slopes
from shotdp.errors import check_count, check_distance, check_mean, check_nonnegative
from conftest import random_density, random_projector
from test_oracles import mp_fraction_tail, mp_hockey_stick


def qdp_oracle(p, q, eps, delta):
    """Brute-force subset enumeration of the privacy inequality, both ways."""
    outcomes = range(len(p))
    for size in range(len(p) + 1):
        for subset in itertools.combinations(outcomes, size):
            a = sum(p[k] for k in subset)
            b = sum(q[k] for k in subset)
            if a > math.exp(eps) * b + delta + 1e-12:
                return False
            if b > math.exp(eps) * a + delta + 1e-12:
                return False
    return True


def first_failure(*checks):
    """The error that the first failing (validator, value, *args) check raises, or None."""
    for check, value, *args in checks:
        try:
            check(value, *args)
        except Exception as exc:
            return exc
    return None


def assert_raises_like(exc, call):
    """`call()` raises the class of `exc` with its message."""
    with pytest.raises(type(exc)) as raised:
        call()
    assert str(raised.value) == str(exc)


class TestExactEpsilon:
    """Worst-case log ratio over the two binomial outcome laws."""

    def test_reference_points(self):
        assert exact_epsilon(0.25, 0.15, 4) == pytest.approx(2.04330249, abs=1e-7)
        assert exact_epsilon(0.25, 0.15, 1) == pytest.approx(math.log(0.25 / 0.15), rel=1e-12)

    def test_scales_linearly_in_shots(self):
        """The extreme ratio sits at an endpoint, so it grows linearly."""
        one = exact_epsilon(0.25, 0.15, 1)
        for n in (2, 5, 17, 40):
            assert exact_epsilon(0.25, 0.15, n) == pytest.approx(n * one, rel=1e-12)

    def test_symmetric_in_the_two_means(self):
        assert exact_epsilon(0.25, 0.15, 7) == exact_epsilon(0.15, 0.25, 7)

    def test_zero_for_equal_means(self):
        assert exact_epsilon(0.3, 0.3, 10) == 0.0

    def test_nondecreasing_in_shots(self):
        for mu0, mu1 in ((0.25, 0.15), (0.6, 0.55), (0.9, 0.2)):
            values = [exact_epsilon(mu0, mu1, n) for n in range(1, 51)]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_rejects_degenerate_means(self):
        with pytest.raises(DegenerateMuError):
            exact_epsilon(1.0, 0.15, 5)

    def test_rejects_shot_counts_beyond_the_largest_double(self):
        with pytest.raises(OutOfRangeError, match="shots n exceeds the largest double"):
            exact_epsilon(0.2, 0.1, 10**400)

    def test_subnormal_mean_against_high_precision(self):
        """0.99 / 1e-310 overflows a double; the logs' difference does not."""
        for mu0, mu1 in ((0.99, 1e-310), (1e-310, 0.99), (0.7, 5e-324)):
            with mpmath.workdps(40):
                a, b = mpmath.mpf(mu0), mpmath.mpf(mu1)
                want = float(10 * max(abs(mpmath.log(a / b)), abs(mpmath.log((1 - a) / (1 - b)))))
            assert exact_epsilon(mu0, mu1, 10) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert exact_epsilon(0.99, 1e-310, 10) == pytest.approx(7137.913284923007, rel=1e-15, abs=0.0)


_TINY = sys.float_info.min
# Means anywhere in (0, 1), near the smallest normal double (subnormals
# included), and near 1: pairs of them reach every branch of `_log_quotient`,
# including quotients that overflow or fall below the normal range.
_MEANS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(5e-324, 16 * _TINY),
    st.floats(1.0 - 2.0**-20, 1.0, exclude_max=True),
    st.sampled_from([5e-324, 1e-310, _TINY, 0.5, 0.99, 1.0 - 2.0**-53]),
)
_ANY = st.one_of(_MEANS, st.floats(), st.integers(-2, 3), st.booleans(), st.none(), st.just("0.5"))
# Counts small enough that an oracle that accepts them runs in microseconds, and
# non-counts; no float here is an integer above 40, which would be accepted as one.
_SMALL_COUNTS = st.one_of(
    st.integers(-2, 40), st.floats(-2.0, 40.0), st.sampled_from([3.0, math.nan, math.inf, -math.inf]),
    st.booleans(), st.none(), st.just("3"),
)
# Counts up to 4e8, where n mu (1 - mu) <= 1e8 for every mean, which the
# hockey-stick delta's iteration cap serves at any eps, and non-counts.
_CAPPED_COUNTS = st.one_of(
    st.integers(-2, 4 * 10**8), st.floats(-2.0, 4e8), st.sampled_from([3.0, math.nan, math.inf, -math.inf]),
    st.booleans(), st.none(), st.just("3"),
)


class TestExactEpsilonMatchesEndpointRatios:
    """`exact_epsilon` is the larger endpoint |log ratio|, bit for bit."""

    @given(_MEANS, _MEANS, st.one_of(st.integers(1, 100), st.integers(1, 2**80)))
    @example(0.99, 1e-310, 10)
    @example(1e-310, 0.99, 10)
    @example(0.7, 5e-324, 3)
    @example(0.3, 0.3, 10)
    def test_equals_the_larger_endpoint_ratio(self, mu0, mu1, n):
        lead, trail = _slopes(mu0, mu1)
        want = max(abs(_log_ratio(lead, trail, n, 0)), abs(_log_ratio(lead, trail, n, n)))
        assert exact_epsilon(mu0, mu1, n) == want

    @given(_ANY, _ANY, st.one_of(st.integers(-2, 100), st.floats(), st.booleans(), st.none()))
    def test_same_error_as_the_checks_in_order(self, mu0, mu1, n):
        failure = first_failure((check_mean, mu0, "mean mu0"), (check_mean, mu1, "mean mu1"), (check_count, n, "shots n"))
        if failure is None:
            assert exact_epsilon(mu0, mu1, n) >= 0.0
        else:
            assert_raises_like(failure, lambda: exact_epsilon(mu0, mu1, n))


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_epsilon(0.25, 0.15, 10),
        lambda: hockey_stick_delta(0.25, 0.15, 10, 1.0),
        lambda: dominance_audit(0.1, 1, 10, 0.25, 0.15),
        lambda: monte_carlo_audit(0.25, 0.15, 10, 1000, seed=3),
    ],
    ids=["exact_epsilon", "hockey_stick_delta", "dominance_audit", "monte_carlo_audit"],
)
def test_one_slope_pair_per_call(call, monkeypatch):
    """Each oracle takes the two log quotients of its slope pair once."""
    quotients = []
    monkeypatch.setattr("shotdp.binomial._log_quotient", lambda *args: quotients.append(args) or _log_quotient(*args))
    call()
    assert len(quotients) == 2


class TestHockeyStick:
    """Exact excess mass of one binomial law over an inflated other."""

    def test_reference_point(self):
        assert hockey_stick_delta(0.25, 0.15, 4, 0.0) == pytest.approx(0.2056, abs=1e-10)

    def test_at_zero_equals_total_variation(self):
        for mu0, mu1, n in ((0.25, 0.15, 4), (0.5, 0.2, 9), (0.7, 0.65, 30)):
            p = binomial_distribution(mu0, n)
            q = binomial_distribution(mu1, n)
            tv = 0.5 * float(np.abs(p - q).sum())
            assert hockey_stick_delta(mu0, mu1, n, 0.0) == pytest.approx(tv, abs=1e-12)

    @given(_MEANS, _MEANS, st.integers(1, 10**16), st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.just(math.inf)))
    @example(0.25, 0.15, 4, 0.0)
    @example(0.25, 0.15, 10, 0.0)
    @example(0.4, 0.1, 6, 0.0)
    @example(0.25, 0.15, 10**16, 0.0)
    def test_vanishes_at_and_above_exact_epsilon(self, mu0, mu1, n, extra):
        """The mechanism is pure-DP at its exact epsilon, so delta is exactly
        0.0 from there up, for any n: no binomial law is built and no tail
        is taken, so a law that fails when it is built goes unnoticed."""
        eps = exact_epsilon(mu0, mu1, n) + extra
        with mock.patch("shotdp.binomial._Law", side_effect=AssertionError("a binomial law was built")):
            assert hockey_stick_delta(mu0, mu1, n, eps) == 0.0

    @pytest.mark.parametrize("mu0, mu1, n", [(0.25, 0.15, 10), (0.25, 0.15, 4), (0.4, 0.1, 6), (0.6, 0.55, 300)])
    def test_true_delta_at_the_rounded_exact_epsilon_is_tiny(self, mu0, mu1, n):
        """The exact epsilon is a rounded float: the true delta there, by mpmath,
        is below eps 2^-50, and 4.09e-22 at the audit's default pair."""
        eps = exact_epsilon(mu0, mu1, n)
        with mpmath.workdps(60):
            a, b, grow = mpmath.mpf(mu0), mpmath.mpf(mu1), mpmath.exp(mpmath.mpf(eps))
            terms = (mpmath.binomial(n, k) * (a**k * (1 - a) ** (n - k) - grow * b**k * (1 - b) ** (n - k)) for k in range(n + 1))
            true_delta = float(sum(t for t in terms if t > 0))
        assert true_delta <= eps * 2.0**-50
        if (mu0, mu1, n) == (0.25, 0.15, 10):
            assert true_delta == pytest.approx(4.09e-22, rel=1e-2)

    def test_budget_coverage_verdicts(self):
        """A budget (eps, delta) covers the exact mechanism when delta is at
        least the hockey-stick delta at eps."""
        assert hockey_stick_delta(0.25, 0.15, 10, 6.0) <= 0.01
        assert not hockey_stick_delta(0.25, 0.15, 10, 0.1) <= 1e-6

    def test_nonincreasing_in_epsilon(self):
        values = [hockey_stick_delta(0.25, 0.15, 10, e) for e in np.linspace(0.0, 6.0, 25)]
        assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))

    def test_rejects_negative_epsilon(self):
        with pytest.raises(OutOfRangeError):
            hockey_stick_delta(0.25, 0.15, 4, -0.1)

    def test_no_excess_where_the_inflated_law_underflows(self):
        """At eps = 3180 the log ratio never exceeds eps where P0 has mass
        (it is about 975 at P0's mode), so delta is 0 even though P1
        underflows to 0.0 there."""
        assert hockey_stick_delta(0.39354, 0.37212, 10**6, 3180.0) == 0.0

    def test_total_variation_of_separated_laws_is_one(self):
        """The two laws share no mass at double precision, so TV is exactly 1."""
        assert hockey_stick_delta(0.25, 0.15, 10**6, 0.0) == 1.0

    @given(_ANY, _ANY, _CAPPED_COUNTS, _ANY)
    def test_same_error_as_the_checks_in_order(self, mu0, mu1, n, eps):
        failure = first_failure(
            (check_nonnegative, eps, "eps"), (check_mean, mu0, "mean mu0"), (check_count, n, "shots n"),
            (check_mean, mu1, "mean mu1"),
        )
        if failure is None:
            assert 0.0 <= hockey_stick_delta(mu0, mu1, n, eps) <= 1.0 + 1e-12
        else:
            assert_raises_like(failure, lambda: hockey_stick_delta(mu0, mu1, n, eps))

    def test_deep_tail_against_high_precision(self):
        mu0, mu1, n, eps = 0.19816397164651134, 0.04489445877221952, 278, 400.5451322538914
        with mpmath.workdps(50):
            a, b, grow = mpmath.mpf(mu0), mpmath.mpf(mu1), mpmath.exp(mpmath.mpf(eps))
            terms = (mpmath.binomial(n, k) * (a**k * (1 - a) ** (n - k) - grow * b**k * (1 - b) ** (n - k)) for k in range(n + 1))
            want = float(sum(t for t in terms if t > 0))
        assert hockey_stick_delta(mu0, mu1, n, eps) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_tails_at_n_1e16_in_bounded_memory(self):
        """At n = 1e16 the window of counts once summed for mu0 = 0.25 held
        about 3e9 counts, tens of GB; two tails take a few hundred bytes. At
        tail levels the delta matches 40 digits: sharply for means near 0,
        and for 0.25 against 0.15 up to the rounding of each llr(k) to a
        double, which is about 1 at this n."""
        n = 10**16
        lead, trail = _slopes(0.25, 0.15)
        three_sigma = _log_ratio(lead, trail, n, int(n * 0.25 + 3 * math.sqrt(n * 0.1875)))
        for mu0, mu1, eps in ((1e-15, 5e-16, 2.0), (5e-16, 1e-15, 1.0), (0.25, 0.15, three_sigma), (0.25, 0.15, 0.0)):
            tracemalloc.start()
            try:
                got = hockey_stick_delta(mu0, mu1, n, eps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            want, rounding = mp_hockey_stick(mu0, mu1, n, eps, tail=mp_fraction_tail)
            assert abs(got - want) <= 1e-12 * want + rounding, (mu0, eps, got, want)
            assert rounding <= (1e-13 if mu0 < 1e-14 else 1e-6) * want
            assert peak < 2**20

    @pytest.mark.parametrize("mu0, mu1, at_mean", [(0.15, 0.1500000001, False), (0.25, 0.15, True)])
    def test_past_the_iteration_cap_at_n_1e16(self, mu0, mu1, at_mean):
        """Near the laws' overlap at n = 1e16 a delta needs far more than
        `MAX_TERMS` summed counts (eps = 0 for a pair closer than the laws'
        width) or fraction steps (a run that starts at P0's mean): either
        raises IterationCapError, in bounded time and memory."""
        n = 10**16
        eps = _log_ratio(*_slopes(mu0, mu1), n, n // 4) if at_mean else 0.0
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(IterationCapError, match="IterationCap"):
                hockey_stick_delta(mu0, mu1, n, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 30.0
        assert peak < 2**20


class TestMinExpectation:
    """Identifying the smaller outcome mean of the measured pair."""

    def test_identity_channel_example(self):
        rho = make_density(np.diag([0.15, 0.85]))
        sigma = make_density(np.diag([0.25, 0.75]))
        m = make_projector(basis_columns(2, [0]))
        got = min_expectation(rho, sigma, identity_channel(2), m)
        assert got.value == pytest.approx(0.15, abs=1e-12)
        assert got.which == "rho"
        assert got.mu1 == pytest.approx(0.25, abs=1e-12)

    def test_depolarizing_channel_shifts_means(self):
        rho = make_density(np.diag([0.15, 0.85]))
        sigma = make_density(np.diag([0.25, 0.75]))
        m = make_projector(basis_columns(2, [0]))
        got = min_expectation(rho, sigma, depolarizing_channel(0.5, 2), m)
        assert got.value == pytest.approx(0.325, abs=1e-12)
        assert got.which == "rho"

    def test_pure_against_mixed(self):
        m = make_projector(basis_columns(2, [0]))
        got = min_expectation(basis_state(2, 0), maximally_mixed(2), identity_channel(2), m)
        assert got.value == pytest.approx(0.5, abs=1e-15)
        assert got.which == "sigma"
        assert got.mu0 == pytest.approx(1.0, abs=1e-15)

    def test_depolarized_pure_against_diagonal(self):
        # post-channel diagonals are (1-p)*w + p/2: rho -> (0.75, 0.25),
        # sigma -> (0.625, 0.375); the |1> outcome picks the second entry
        sigma = make_density(np.diag([0.75, 0.25]))
        m = make_projector(basis_columns(2, [1]))
        got = min_expectation(basis_state(2, 0), sigma, depolarizing_channel(0.5, 2), m)
        assert got.value == pytest.approx(0.25, abs=1e-12)
        assert got.which == "rho"
        assert got.mu1 == pytest.approx(0.375, abs=1e-12)

    def test_tie_reports_sigma(self, rng):
        rho = random_density(rng, 2)
        m = random_projector(rng, 2, 1)
        got = min_expectation(rho, rho, identity_channel(2), m)
        assert got.which == "sigma"


class TestQdpCheck:
    """Hockey-stick privacy check on measured outcome laws, against subset enumeration."""

    def test_identical_states_pass_at_zero(self, rng):
        rho = random_density(rng, 2)
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        assert qdp_check(rho, rho, identity_channel(2), pvm, 0.0, 0.0)

    def test_orthogonal_states_fail_without_delta(self):
        rho, sigma = basis_state(2, 0), basis_state(2, 1)
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        assert not qdp_check(rho, sigma, identity_channel(2), pvm, 10.0, 0.0)
        assert qdp_check(rho, sigma, identity_channel(2), pvm, 0.0, 1.0)

    def test_full_noise_erases_all_distinguishability(self):
        rho, sigma = basis_state(2, 0), basis_state(2, 1)
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        assert qdp_check(rho, sigma, depolarizing_channel(1.0, 2), pvm, 0.0, 0.0)

    def test_threshold_at_the_exact_ratio(self):
        """The check flips exactly at the worst single-outcome log ratio."""
        rho = make_density(np.diag([0.25, 0.75]))
        sigma = make_density(np.diag([0.15, 0.85]))
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        eps_star = math.log(0.25 / 0.15)
        assert qdp_check(rho, sigma, identity_channel(2), pvm, eps_star, 0.0)
        assert not qdp_check(rho, sigma, identity_channel(2), pvm, eps_star - 1e-6, 0.0)

    def test_monotone_in_both_budget_arguments(self):
        rho = make_density(np.diag([0.25, 0.75]))
        sigma = make_density(np.diag([0.15, 0.85]))
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        budgets = [(0.1, 0.0), (0.1, 0.05), (0.3, 0.05), (0.6, 0.05)]
        results = [qdp_check(rho, sigma, identity_channel(2), pvm, e, dl) for e, dl in budgets]
        for earlier, later in zip(results, results[1:]):
            assert later or not earlier

    def test_agrees_with_subset_oracle(self, rng):
        """Four-outcome PVMs against a written-out subset enumeration."""
        cols = np.eye(4)
        pvm = [make_projector(cols[:, [k]]) for k in range(4)]
        ch = identity_channel(4)
        for _ in range(25):
            rho, sigma = random_density(rng, 4), random_density(rng, 4)
            p = [expectation(rho, m) for m in pvm]
            q = [expectation(sigma, m) for m in pvm]
            for eps in (0.0, 0.05, 0.2, 1.0):
                for delta in (0.0, 0.01, 0.2):
                    assert qdp_check(rho, sigma, ch, pvm, eps, delta) == qdp_oracle(p, q, eps, delta)

    def test_binary_pvm_from_complement(self, rng):
        rho, sigma = random_density(rng, 3), random_density(rng, 3)
        m = random_projector(rng, 3, 1)
        pvm = [m, complement_projector(m)]
        p = [expectation(rho, x) for x in pvm]
        q = [expectation(sigma, x) for x in pvm]
        for eps in (0.0, 0.1, 0.5):
            assert qdp_check(rho, sigma, identity_channel(3), pvm, eps, 0.0) == qdp_oracle(p, q, eps, 0.0)

    @pytest.mark.parametrize("family", [list, tuple, iter, lambda pvm: (m for m in pvm)],
                             ids=["list", "tuple", "iterator", "generator"])
    def test_reads_the_projectors_once(self, family):
        """Any iterable of a complete PVM is taken, though only one pass can read an iterator."""
        rho = make_density(np.diag([0.25, 0.75]))
        sigma = make_density(np.diag([0.15, 0.85]))
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        eps_star = math.log(0.25 / 0.15)
        assert qdp_check(rho, sigma, identity_channel(2), family(pvm), eps_star, 0.0)
        assert not qdp_check(rho, sigma, identity_channel(2), family(pvm), eps_star - 1e-6, 0.0)

    def test_rejects_incomplete_family(self):
        rho = basis_state(2, 0)
        with pytest.raises(IncompletePVMError, match="IncompletePVM"):
            qdp_check(rho, rho, identity_channel(2), [make_projector(basis_columns(2, [0]))], 0.0, 0.0)

    def test_seventeen_outcomes_at_total_variation(self):
        """A basis state against the maximally mixed state in dimension 17 is
        at total variation 16/17, so at eps = 0 it needs delta = 16/17."""
        dim = 17
        pvm = [make_projector(basis_columns(dim, [k])) for k in range(dim)]
        args = (basis_state(dim, 0), maximally_mixed(dim), identity_channel(dim), pvm, 0.0)
        assert not qdp_check(*args, 0.9)
        assert qdp_check(*args, 16 / 17)

    @given(
        m=st.integers(2, 6),
        key=st.integers(0, 2**32 - 1),
        p=st.one_of(st.none(), st.floats(0.0, 1.0)),
        eps=st.floats(0.0, 1.0),
        fraction=st.floats(0.0, 2.0),
    )
    def test_agrees_with_subset_oracle_on_random_pvms(self, m, key, p, eps, fraction):
        """2- to 6-outcome PVMs in random bases, with and without noise, at
        delta = `fraction` times the worst subset excess, so both verdicts
        come up near the threshold; cases within 1e-14 of the oracle's
        threshold are left out, where rounding decides either way."""
        rng = np.random.default_rng(key)
        rho, sigma = random_density(rng, m), random_density(rng, m)
        basis, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        pvm = [make_projector(basis[:, [k]]) for k in range(m)]
        ch = identity_channel(m) if p is None else depolarizing_channel(p, m)
        out_rho, out_sigma = apply_channel(ch, rho), apply_channel(ch, sigma)
        probs = [expectation(out_rho, x) for x in pvm]
        other = [expectation(out_sigma, x) for x in pvm]
        worst = max(
            sum(a[k] for k in subset) - math.exp(eps) * sum(b[k] for k in subset)
            for size in range(m + 1)
            for subset in itertools.combinations(range(m), size)
            for a, b in ((probs, other), (other, probs))
        )
        delta = fraction * worst
        assume(abs(worst - delta - 1e-12) > 1e-14)
        assert qdp_check(rho, sigma, ch, pvm, eps, delta) == qdp_oracle(probs, other, eps, delta)

    def test_orthogonal_states_past_exp_overflow(self):
        """At eps = 800, e^eps overflows a double: the outcome with q_k = 0 keeps
        its whole excess p_k = 1 and the other has none."""
        rho, sigma = basis_state(2, 0), basis_state(2, 1)
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        assert qdp_check(rho, sigma, identity_channel(2), pvm, 800.0, 1.0)
        assert not qdp_check(rho, sigma, identity_channel(2), pvm, 800.0, 0.5)

    def test_rejects_negative_budget(self):
        rho = basis_state(2, 0)
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        with pytest.raises(OutOfRangeError):
            qdp_check(rho, rho, identity_channel(2), pvm, -0.1, 0.0)

    @pytest.mark.parametrize(
        "budget",
        [{"eps": "6"}, {"eps": True}, {"delta": False}, {"eps": -3.0}, {"delta": -0.1}, {"eps": math.nan},
         {"delta": math.nan}, {"delta": "x"}],
        ids=["eps-string", "eps-bool", "delta-bool", "eps-negative", "delta-negative", "eps-nan", "delta-nan",
             "delta-string"],
    )
    def test_rejects_bad_budget(self, budget):
        rho = basis_state(2, 0)
        pvm = [make_projector(basis_columns(2, [0])), make_projector(basis_columns(2, [1]))]
        with pytest.raises(OutOfRangeError, match="OutOfRange"):
            qdp_check(rho, rho, identity_channel(2), pvm, **{"eps": 6.0, "delta": 0.01, **budget})


class TestDominanceAudit:
    """Endpoint and window checks of the closed-form budget against oracles."""

    def test_reference_pair_is_dominated(self):
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.25, mu1=0.15)
        assert rep.dominated == {"endpoint_lower": True, "endpoint_upper": True, "window_exact": True}
        assert rep.flags == ()
        assert rep.theorem_epsilon == pytest.approx(6.4215954, abs=1e-6)
        assert rep.exact_epsilon == pytest.approx(5.1082562, abs=1e-6)
        assert rep.exact_delta_at_eps == 0.0

    def test_window_excludes_boundary_outcome(self):
        """The lower 3-sigma endpoint clips at zero, so k = 0 is set aside."""
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.25, mu1=0.15)
        assert rep.excluded_outcomes == (0,)
        assert rep.details["endpoints_clipped"]
        assert rep.details["x_lower"] == 0.0

    def test_large_shot_count_breaks_upper_endpoint(self):
        """Past the crossover the normal tail argument exceeds the budget."""
        rep = dominance_audit(d=0.1, r=1, n=200, mu0=0.25, mu1=0.15)
        assert rep.dominated["endpoint_upper"] is False
        assert rep.details["llr_upper"] > rep.theorem_epsilon

    @pytest.mark.parametrize(
        "check, d, n",
        [("endpoint_upper", 0.1, 136), ("window_exact", 0.1, 1499), ("window_exact", 0.05, 2011), ("window_exact", 0.02, 6857)],
    )
    def test_crossover(self, check, d, n):
        """The closed-form budget covers `check` up to n - 1 shots and fails it at n."""
        assert dominance_audit(d, 1, n - 1, 0.15 + d, 0.15).dominated[check] is True
        assert dominance_audit(d, 1, n, 0.15 + d, 0.15).dominated[check] is False

    def test_slack_matches_details(self):
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.25, mu1=0.15)
        assert rep.details["slack_upper"] == pytest.approx(
            rep.theorem_epsilon - rep.details["llr_upper"], abs=1e-12
        )

    def test_nonconvex_regime_is_flagged(self):
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.85, mu1=0.75)
        assert "NonConvexRegime" in rep.flags

    def test_equal_means_trivially_dominated(self):
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.15, mu1=0.15)
        assert rep.exact_epsilon == 0.0
        assert all(rep.dominated.values())

    def test_depolarizing_regime(self):
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.17, mu1=0.15, regime="depolarizing", p=0.5, dim=2)
        assert all(rep.dominated.values())
        assert rep.theorem_epsilon == pytest.approx(1.87222257, abs=1e-7)

    def test_misordered_means_rejected(self):
        with pytest.raises(PreconditionViolatedError, match="PreconditionViolated"):
            dominance_audit(d=0.1, r=1, n=10, mu0=0.15, mu1=0.25)

    def test_gap_beyond_distance_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            dominance_audit(d=0.1, r=1, n=10, mu0=0.5, mu1=0.15)

    @pytest.mark.parametrize(
        "args",
        [
            (0.1, 1, 10, "0.2", 0.15),
            (0.1, 1, 10, True, 0.15),
            (0.1, 1, 10, 0.25, "0.15"),
            ("0.1", 1, 10, 0.25, 0.15),
        ],
    )
    def test_inputs_checked_before_use(self, args):
        """A string or bool argument is rejected by its validator, not
        compared or multiplied first."""
        with pytest.raises(OutOfRangeError, match="OutOfRange"):
            dominance_audit(*args)

    @given(st.one_of(st.floats(0.0, 1.0), _ANY), _SMALL_COUNTS, _SMALL_COUNTS, _ANY, _ANY)
    def test_same_error_as_the_checks_in_order(self, d, r, n, mu0, mu1):
        failure = first_failure(
            (check_distance, d), (check_count, r, "rank r"), (check_count, n, "shots n"),
            (check_mean, mu0, "mean mu0"), (check_mean, mu1, "mean mu1"),
        )
        if failure is not None:
            assert_raises_like(failure, lambda: dominance_audit(d, r, n, mu0, mu1))
            return
        try:
            report = dominance_audit(d, r, n, mu0, mu1)
        except PreconditionViolatedError:
            return  # checked means with mu1 > mu0, or a gap beyond d r
        assert report.exact_epsilon >= 0.0

    @given(st.floats(0.0, 0.5), st.integers(1, 10**5), st.floats(0.001, 0.45), st.floats(0.0, 1.0))
    @example(0.1, 10, 0.15, 1.0)
    @example(0.1, 3, 0.15, 1.0)
    @example(0.1, 2000, 0.15, 1.0)
    def test_delta_at_the_theorem_epsilon(self, d, n, mu1, fraction):
        """The exact delta at the closed-form budget, and 0.0 wherever that
        budget is at or above the exact epsilon."""
        mu0 = mu1 + fraction * d
        rep = dominance_audit(d, 1, n, mu0, mu1)
        assert rep.exact_delta_at_eps == hockey_stick_delta(mu0, mu1, n, max(rep.theorem_epsilon, 0.0))
        if rep.theorem_epsilon >= rep.exact_epsilon:
            assert rep.exact_delta_at_eps == 0.0

    def test_zero_distance_budget_is_zero_for_subnormal_p(self):
        """At d = 0 the depolarizing budget is 0 for any p, also where (1-p)/p
        overflows to inf for a subnormal p, so the pair is audited."""
        rep = dominance_audit(0.0, 1, 10, 0.15, 0.15, regime="depolarizing", p=5e-324, dim=2)
        assert rep.theorem_epsilon == 0.0 and rep.exact_epsilon == 0.0
        assert all(rep.dominated.values())

    @pytest.mark.parametrize("p, dim", [(None, 2), (0.5, None)])
    def test_depolarizing_needs_p_and_dim(self, p, dim):
        """The same error as the budget API, not a validator's complaint about None."""
        with pytest.raises(BadConfigError, match="^BadConfig: depolarizing regime needs both p and D$"):
            dominance_audit(0.1, 1, 10, 0.16, 0.15, regime="depolarizing", p=p, dim=dim)

    def test_depolarizing_ratio_bound_enforced(self):
        """mu0/mu1 beyond 1 + (1-p)/p d D cannot come from one depolarized pair."""
        with pytest.raises(PreconditionViolatedError):
            dominance_audit(d=0.1, r=1, n=10, mu0=0.19, mu1=0.15, regime="depolarizing", p=0.5, dim=2)


class TestMonteCarloAudit:
    """Sampled-frequency confirmation of the exact outcome laws."""

    def test_same_seed_reproduces_report(self):
        a = monte_carlo_audit(0.25, 0.15, 10, 5000, seed=9)
        b = monte_carlo_audit(0.25, 0.15, 10, 5000, seed=9)
        assert a.details["empirical_p0"] == b.details["empirical_p0"]
        assert a.details["epsilon_hat"] == b.details["epsilon_hat"]

    def test_seed_controls_both_streams(self):
        a = monte_carlo_audit(0.25, 0.15, 10, 5000, seed=9)
        b = monte_carlo_audit(0.25, 0.15, 10, 5000, seed=10)
        assert a.details["empirical_p0"] != b.details["empirical_p0"]
        assert a.details["empirical_p1"] != b.details["empirical_p1"]

    def test_streams_are_independent_of_each_other(self):
        """The two hypotheses draw from distinct child streams."""
        rep = monte_carlo_audit(0.25, 0.25, 10, 5000, seed=9)
        assert rep.details["empirical_p0"] != rep.details["empirical_p1"]

    def test_histogram_tracks_exact_law(self):
        """Empirical mass within 5 sqrt(P(k)/trials) of exact, non-boundary k."""
        trials = 1000000
        for seed in (0, 1, 2, 3, 4):
            rep = monte_carlo_audit(0.25, 0.15, 10, trials, seed=seed)
            for label in ("0", "1"):
                emp = np.array(rep.details[f"empirical_p{label}"])
                exact = np.array(rep.details[f"exact_p{label}"])
                for k in range(1, 10):
                    envelope = 5.0 * math.sqrt(exact[k] / trials)
                    assert abs(emp[k] - exact[k]) <= envelope

    def test_unobserved_outcomes_are_excluded(self):
        """k = 10 has probability ~6e-9 under mu = 0.15: never seen at 10^4."""
        rep = monte_carlo_audit(0.25, 0.15, 10, 10000, seed=5)
        assert 10 in rep.excluded_outcomes
        assert all(k not in rep.details["epsilon_hat"] for k in rep.excluded_outcomes)

    def test_too_few_trials_rejected(self):
        with pytest.raises(OutOfRangeError, match="OutOfRange"):
            monte_carlo_audit(0.25, 0.15, 10, 999, seed=5)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "7"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(OutOfRangeError, match="seed"):
            monte_carlo_audit(0.25, 0.15, 10, 5000, seed=seed)

    @given(
        st.sampled_from([999, 1000, 1000.0, 1000.5, True, None, "1000"]),
        st.one_of(st.integers(-1, 3), st.booleans(), st.none(), st.just(1.5)),
        _ANY,
        _ANY,
        _SMALL_COUNTS,
    )
    def test_same_error_as_the_checks_in_order(self, trials, seed, mu0, mu1, n):
        """Checked inputs give a report at the exact epsilon, with delta 0.0 and no verdict."""
        failure = first_failure(
            (check_count, trials, "trials", 1000), (check_count, seed, "seed", 0),
            (check_mean, mu0, "mean mu0"), (check_mean, mu1, "mean mu1"), (check_count, n, "shots n"),
        )
        call = lambda: monte_carlo_audit(mu0, mu1, n, trials, seed)
        if failure is None:
            rep = call()
            assert rep.exact_epsilon == exact_epsilon(mu0, mu1, n)
            assert rep.exact_delta_at_eps == 0.0 and rep.dominated == {}
        else:
            assert_raises_like(failure, call)

    def test_counts_match_sample_means_on_child_seeds(self):
        """Each hypothesis draws what `sample_means` draws under its child key."""
        n, trials = 10, 5000
        rep = monte_carlo_audit(0.25, 0.15, n, trials, seed=9)
        children = np.random.SeedSequence(9).generate_state(2, dtype=np.uint64)
        for label, mu, child in (("0", 0.25, children[0]), ("1", 0.15, children[1])):
            counts = np.rint(sample_means(mu, n, trials, int(child)) * n).astype(int)
            assert rep.details[f"empirical_p{label}"] == (np.bincount(counts, minlength=n + 1) / trials).tolist()

    @pytest.mark.parametrize("mu0, mu1, n, trials", [(0.25, 0.15, 10, 5000), (0.3, 0.15, 400, 2000), (0.02, 0.9, 30, 1000)])
    def test_estimates_equal_the_per_outcome_loop(self, mu0, mu1, n, trials):
        """The array form of the estimates and their errors matches a loop over the outcomes, bit for bit."""
        rep = monte_carlo_audit(mu0, mu1, n, trials, seed=4)
        emp0, emp1 = np.array(rep.details["empirical_p0"]), np.array(rep.details["empirical_p1"])
        log_ratio = _log_ratio(*_slopes(mu0, mu1), n, np.arange(n + 1))
        eps_hat, errors, excluded = {}, {}, []
        for k in range(n + 1):
            if emp0[k] > 0 and emp1[k] > 0:
                eps_hat[k] = math.log(emp0[k] / emp1[k])
                errors[k] = abs(eps_hat[k] - float(log_ratio[k]))
            else:
                excluded.append(k)
        assert rep.details["epsilon_hat"] == eps_hat and rep.details["epsilon_hat_abs_error"] == errors
        assert rep.excluded_outcomes == tuple(excluded) and all(type(k) is int for k in excluded)

    def test_report_metadata(self):
        rep = monte_carlo_audit(0.25, 0.15, 10, 5000, seed=9)
        assert rep.trials == 5000
        assert rep.seed == 9
        assert rep.theorem_epsilon is None


class TestAuditReport:
    """Audit reports are named tuples."""

    def test_equals_the_plain_tuple_of_its_values(self):
        rep = dominance_audit(d=0.1, r=1, n=10, mu0=0.25, mu1=0.15)
        assert rep == tuple(rep) and rep == AuditReport(*rep)
        assert list(rep._asdict()) == list(AuditReport._fields)
        assert (rep.trials, rep.seed) == (0, None)

    def test_details_has_no_shared_default(self):
        assert AuditReport._field_defaults == {"trials": 0, "seed": None}
