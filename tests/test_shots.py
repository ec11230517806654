"""The binomial shot-noise law, likelihood ratios, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shotdp import (
    DegenerateMuError,
    OutOfRangeError,
    binomial_distribution,
    log_binomial_pmf,
    log_likelihood_ratio,
    sample_means,
)
from shotdp.binomial import _Law, _near_deviance, _stirling_series, stirlerr
from shotdp.shots import _sample_counts, _sample_histogram, _stirlerr
from conftest import exact_binomial_pmf


def llr_oracle(x, mu0, mu1, n):
    """Difference of the two normal exponent kernels, written directly."""
    v0 = mu0 * (1.0 - mu0)
    v1 = mu1 * (1.0 - mu1)
    return n * ((x - mu1) ** 2 / (2.0 * v1) - (x - mu0) ** 2 / (2.0 * v0))


class TestBinomialDistribution:
    """Exact outcome laws for n projective shots."""

    def test_matches_reference_pmf(self):
        """Cross-check the saddle-point construction against the exact rational binomial."""
        for mu, n in ((0.15, 10), (0.5, 7), (0.03, 100), (0.85, 1000)):
            expected = exact_binomial_pmf(mu, n)
            np.testing.assert_allclose(binomial_distribution(mu, n), expected, rtol=1e-10, atol=1e-300)

    def test_probabilities_sum_to_one(self):
        for mu, n in ((0.15, 10), (0.25, 200), (0.5, 10000), (0.15, 10**6)):
            assert abs(binomial_distribution(mu, n).sum() - 1.0) <= 1e-15

    def test_mean_matches_mu(self):
        for mu, n in ((0.15, 10), (0.3, 500), (0.5, 10000)):
            mean = float(np.arange(n + 1) @ binomial_distribution(mu, n)) / n
            assert mean == pytest.approx(mu, abs=1e-9)

    def test_spot_value(self):
        """P(k=0) at mu=0.25, n=4 is 0.75^4."""
        assert binomial_distribution(0.25, 4)[0] == pytest.approx(0.31640625, abs=1e-12)

    @pytest.mark.parametrize("mu, n", [(0.15, 10), (0.5, 1), (1e-300, 7), (0.85, 1000), (0.0, 5), (1.0, 5)])
    def test_returns_a_read_only_float_array(self, mu, n):
        probs = binomial_distribution(mu, n)
        assert isinstance(probs, np.ndarray) and probs.dtype == np.float64 and probs.shape == (n + 1,)
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0] = 0.5

    @pytest.mark.parametrize("mu, n", [(0.15, 10), (0.5, 7), (1e-300, 3), (1.0 - 2.0**-53, 40), (0.37, 10**5)])
    def test_is_the_exponentiated_log_pmf(self, mu, n):
        np.testing.assert_array_equal(binomial_distribution(mu, n), np.exp(log_binomial_pmf(mu, n)))

    def test_endpoint_point_masses(self):
        np.testing.assert_array_equal(binomial_distribution(0.0, 5), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(binomial_distribution(1.0, 5), [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    def test_log_pmf_at_chosen_counts(self):
        counts = np.array([[0, 3, 17], [40, 99, 100]])
        got = log_binomial_pmf(0.3, 100, counts)
        assert got.shape == counts.shape
        np.testing.assert_array_equal(got, log_binomial_pmf(0.3, 100)[counts])
        # An empty selection is float64 to numpy, yet holds no bad count.
        for empty in ([], np.array([], dtype=int), np.zeros((2, 0))):
            got = log_binomial_pmf(0.3, 100, empty)
            assert got.shape == np.shape(empty) and got.dtype == np.float64

    def test_scalar_stirlerr_is_the_array_form_bit_for_bit(self):
        counts = np.array([0.0, 1.0, 15.0, 16.0, 17.0, 123.0, 4567.0, 1e6, 3.7e15, 1e300])
        np.testing.assert_array_equal(_stirlerr(counts), [stirlerr(float(k)) for k in counts])

    @given(st.lists(st.floats(16.0, 1e300), min_size=1, max_size=8))
    @example([16.0, 17.0, 1e6, 3.7e15, 1e300])
    def test_stirling_series_on_an_array_is_the_float_form_bit_for_bit(self, counts):
        inv = 1.0 / np.array(counts)
        before = inv.copy()
        np.testing.assert_array_equal(_stirling_series(inv), [_stirling_series(float(i)) for i in inv])
        np.testing.assert_array_equal(inv, before)

    @given(st.floats(1.0, 1e15), st.lists(st.floats(-0.09, 0.09), min_size=1, max_size=8), st.integers(1, 20))
    @example(1e6, [0.0, 1e-9, -0.05, 0.0999], 9)
    def test_near_deviance_on_an_array_is_the_float_form_bit_for_bit(self, m, shares, terms):
        """At one term count, the array series runs the float one's operations on each count."""
        x = m * (1.0 + np.array(shares))
        gap = x - m
        v = gap / (x + m)
        v2 = v * v
        want = [_near_deviance(*map(float, args), terms) for args in zip(x, gap, v, v2)]
        np.testing.assert_array_equal(_near_deviance(x, gap, v, v2, terms), want)

    @pytest.mark.parametrize("mu, n", [(0.3, 1), (0.15, 10), (1e-300, 7), (1.0 - 2.0**-53, 40), (0.37, 10**5)])
    def test_end_counts_are_the_scalar_laws(self, mu, n):
        law = _Law(mu, n)
        np.testing.assert_array_equal(log_binomial_pmf(mu, n, [0, n]), [law.log_pmf(0), law.log_pmf(n)])

    @given(st.floats(1e-300, 1.0 - 1e-16), st.integers(1, 10**7), st.lists(st.integers(0, 10**7), max_size=6))
    @example(0.3, 100, list(range(101)))
    @example(0.488126935591685, 10**7, [4824364, 4938174])
    def test_scalar_log_pmf_within_a_few_ulps_of_the_array(self, mu, n, counts):
        """The scalar pmf of the exact oracles runs the array form's operations
        on one count. np.log and math.log may differ in the last bit, and the
        near-mean series stops at a length set by its own count rather than
        by the array's farthest one, so bit equality is not asked for."""
        counts = sorted({min(k, n) for k in [0, n, n // 2, *counts]})
        law = _Law(mu, n)
        for k, value in zip(counts, log_binomial_pmf(mu, n, np.array(counts))):
            assert abs(law.log_pmf(k) - value) <= 4 * math.ulp(value), k

    def test_log_pmf_at_a_subnormal_mean(self):
        """k / (n mu) overflows here; the log of P(1) = 2 mu (1 - mu) does not."""
        assert log_binomial_pmf(1e-310, 2, [1])[0] == pytest.approx(math.log(2e-310), rel=1e-13)

    @pytest.mark.parametrize("counts", [[-1], [101], [2.0], np.array([0.5])])
    def test_log_pmf_rejects_bad_counts(self, counts):
        with pytest.raises(OutOfRangeError):
            log_binomial_pmf(0.3, 100, counts)

    def test_log_pmf_rejects_endpoints(self):
        with pytest.raises(DegenerateMuError):
            log_binomial_pmf(0.0, 5)

    def test_invalid_inputs(self):
        with pytest.raises(OutOfRangeError):
            binomial_distribution(1.2, 5)
        with pytest.raises(OutOfRangeError):
            binomial_distribution(0.5, 0)


class TestLogLikelihoodRatio:
    """Expanded polynomial form of the normal log-likelihood ratio."""

    def test_spot_value(self):
        assert log_likelihood_ratio(0.2, 0.25, 0.15, 10) == pytest.approx(0.03137255, abs=1e-8)

    def test_spot_value_at_first_mean(self):
        assert log_likelihood_ratio(0.25, 0.25, 0.15, 1) == pytest.approx(0.0392157, abs=1e-7)

    def test_matches_kernel_difference(self, rng):
        """The expanded polynomial equals the direct difference of kernels."""
        for _ in range(500):
            mu1 = rng.uniform(0.05, 0.9)
            mu0 = mu1 + rng.uniform(0.01, min(0.95 - mu1, 0.3))
            n = int(rng.integers(1, 200))
            x = rng.uniform(0.0, 1.0)
            got = log_likelihood_ratio(x, mu0, mu1, n)
            want = llr_oracle(x, mu0, mu1, n)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))

    def test_antisymmetry_is_bit_exact(self, rng):
        """Swapping the two hypotheses flips the sign exactly."""
        for _ in range(200):
            a, b = sorted(rng.uniform(0.05, 0.95, size=2))
            x = rng.uniform(0.0, 1.0)
            n = int(rng.integers(1, 100))
            assert log_likelihood_ratio(x, a, b, n) == -log_likelihood_ratio(x, b, a, n)

    def test_shot_linearity_is_bit_exact(self, rng):
        """n enters only as an overall factor."""
        for _ in range(200):
            a, b = rng.uniform(0.05, 0.95, size=2)
            x = rng.uniform(0.0, 1.0)
            n = int(rng.integers(1, 1000))
            assert log_likelihood_ratio(x, a, b, n) == n * log_likelihood_ratio(x, a, b, 1)

    def test_equal_means_give_zero(self):
        assert log_likelihood_ratio(0.4, 0.3, 0.3, 50) == 0.0

    def test_tiny_means(self):
        """A product of two means below about 1e-154 underflows, and (x/lo)(x/hi)
        at such means overflows; the bracket forms neither."""
        assert log_likelihood_ratio(0.5, 1e-160, 1e-160, 1) == 0.0
        assert log_likelihood_ratio(0.0, 2e-170, 1e-170, 1) == pytest.approx(-5e-171, rel=1e-12)
        assert log_likelihood_ratio(0.5, 1e-160, 2e-160, 1) == pytest.approx(-6.25e158, rel=1e-12)

    def test_convexity_flips_with_mean_sum(self):
        """Second difference in x is positive iff mu0 + mu1 < 1 (for mu0 > mu1)."""
        h = 0.01

        def second_diff(mu0, mu1):
            f = lambda x: log_likelihood_ratio(x, mu0, mu1, 10)
            return f(0.5 + h) - 2.0 * f(0.5) + f(0.5 - h)

        assert second_diff(0.25, 0.15) > 0.0
        assert second_diff(0.85, 0.75) < 0.0

    def test_rejects_out_of_range_sample(self):
        with pytest.raises(OutOfRangeError):
            log_likelihood_ratio(1.5, 0.25, 0.15, 10)


class TestSampleMeans:
    """Counter-based binomial sampling of measurement frequencies."""

    def test_same_seed_reproduces_exactly(self):
        a = sample_means(0.15, 10, 1000, seed=7)
        b = sample_means(0.15, 10, 1000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_means(0.15, 10, 1000, seed=7)
        b = sample_means(0.15, 10, 1000, seed=8)
        assert not np.array_equal(a, b)

    def test_values_live_on_the_frequency_grid(self):
        x = sample_means(0.3, 7, 500, seed=1)
        counts = x * 7
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-12)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_certain_outcome(self):
        np.testing.assert_array_equal(sample_means(1.0, 3, 3, seed=0), np.ones(3))
        np.testing.assert_array_equal(sample_means(0.0, 3, 3, seed=0), np.zeros(3))

    def test_empirical_mean_within_four_sigma(self):
        trials, n, mu = 20000, 10, 0.15
        x = sample_means(mu, n, trials, seed=42)
        tolerance = 4.0 * math.sqrt(mu * (1.0 - mu) / n / trials)
        assert abs(x.mean() - mu) <= tolerance

    def test_empirical_pmf_tracks_binomial(self):
        """Histogram of sampled counts approaches the exact law."""
        n, mu, trials = 6, 0.3, 200000
        x = sample_means(mu, n, trials, seed=11)
        counts = np.bincount(np.rint(x * n).astype(int), minlength=n + 1)
        exact = binomial_distribution(mu, n)
        np.testing.assert_allclose(counts / trials, exact, atol=5.0 * math.sqrt(1.0 / trials))

    @given(
        mu=st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.floats(min_value=1e-300, max_value=1e-3),  # the cdf reaches 1 within a few counts
            st.floats(min_value=1.0 - 1e-3, max_value=1.0 - 2.0**-53),  # the cdf stays near 0 until the last counts
            st.floats(min_value=0.0, max_value=1.0),
        ),
        n=st.one_of(st.just(1), st.integers(min_value=1, max_value=2000)),
        trials=st.integers(min_value=1, max_value=3000),
        seed=st.one_of(st.just(2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1)),
    )
    @example(mu=0.01, n=9, trials=3000, seed=5)  # the running sum passes 1 before the last count
    def test_histogram_is_bincount_of_the_draws(self, mu, n, trials, seed):
        """Sort-and-count gives the histogram of the per-trial draws, count for count."""
        probs = binomial_distribution(mu, n)
        histogram = _sample_histogram(probs, trials, seed)
        assert histogram.shape == (n + 1,) and histogram.sum() == trials
        np.testing.assert_array_equal(histogram, np.bincount(_sample_counts(probs, trials, seed), minlength=n + 1))

    def test_invalid_arguments(self):
        with pytest.raises(OutOfRangeError):
            sample_means(0.5, 5, 0, seed=1)
        with pytest.raises(OutOfRangeError):
            sample_means(0.5, 5, 10, seed=-1)
