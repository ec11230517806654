"""Closed-form privacy budgets and tail-cutoff conversions."""

import copy
import inspect
import math
import pickle
import statistics
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shotdp import (
    BadConfigError,
    BudgetInputs,
    DegenerateMuError,
    DeltaOutOfRangeError,
    OutOfRangeError,
    PrivacyReport,
    UnattainableError,
    ZeroNoiseError,
    c_from_delta,
    delta_from_c,
    depolarizing_constant,
    epsilon_delta_depolarizing,
    epsilon_delta_noiseless,
    epsilon_depolarizing,
    epsilon_noiseless,
    expectation_ratio_bound,
    shots_for_budget,
)
from shotdp import budget
from shotdp.errors import check_count, check_cutoff, check_delta, check_distance, check_mean, check_noise


def pure_noiseless_oracle(d, r, n, mu):
    """The noiseless pure budget, written out directly for cross-checking."""
    dr = d * r
    bracket = 4.5 * (1.0 - 2.0 * mu) + 1.5 * math.sqrt(n) + dr * (mu + dr) * n / (1.0 - mu)
    return dr / ((1.0 - mu) * mu) * bracket


def pure_depolarizing_oracle(p, d, r, dim, n, mu):
    a = (1.0 - p) / p * d * r * dim
    bracket = 4.5 * (1.0 - 2.0 * mu) + 1.5 * math.sqrt(n) + a * mu * mu * (1.0 + a) * n / (1.0 - mu)
    return a / (1.0 - mu) * bracket


def tail_noiseless_oracle(d, r, n, mu, c):
    u = n * d * r
    bracket = (1.0 - 2.0 * mu - u) * c * c / (2.0 * mu * (1.0 - mu - u)) + c + u / 2.0
    return u / (mu * (1.0 - mu)) * bracket


def tail_depolarizing_oracle(p, d, r, dim, n, mu, c):
    a = (1.0 - p) / p * d * r * dim
    bracket = (1.0 - 2.0 * mu - n * a) * c * c / (2.0 * mu * (1.0 - mu - n * a)) + c + n * a / 2.0
    return a / (1.0 - mu) * bracket


class TestPureNoiseless:
    """Pure epsilon budget without hardware noise."""

    def test_reference_point(self):
        rep = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.15))
        assert rep.epsilon == pytest.approx(6.42159540, abs=1e-7)
        assert rep.delta == 0.0
        assert rep.warnings == ()

    def test_balanced_mean_point(self):
        rep = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.5))
        assert rep.epsilon == pytest.approx(2.3773666, abs=1e-6)

    def test_matches_direct_formula(self, rng):
        for _ in range(200):
            d = rng.uniform(0.001, 0.3)
            mu = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 500))
            r = int(rng.integers(1, 4))
            rep = epsilon_noiseless(BudgetInputs(d=d, r=r, n=n, mu=mu))
            assert rep.epsilon == pytest.approx(pure_noiseless_oracle(d, r, n, mu), rel=1e-12)

    def test_strictly_increasing_in_shots(self):
        inputs = [BudgetInputs(d=0.1, r=1, n=n, mu=0.15) for n in range(1, 10001)]
        values = [epsilon_noiseless(inp).epsilon for inp in inputs]
        diffs = np.diff(values)
        assert np.all(diffs > 0.0)

    def test_rank_and_distance_enter_as_product(self):
        a = epsilon_noiseless(BudgetInputs(d=0.05, r=2, n=10, mu=0.15)).epsilon
        b = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.15)).epsilon
        assert a == b

    def test_increasing_in_distance(self):
        values = [epsilon_noiseless(BudgetInputs(d=d, r=1, n=10, mu=0.15)).epsilon for d in (0.01, 0.05, 0.1, 0.2)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_flags_above_half_mean(self):
        rep = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.7))
        assert "RegimeNegativeTerm" in rep.warnings
        assert rep.epsilon > 0.0

    def test_negative_budget_is_flagged_divergent(self):
        """At extreme means the bracket can go negative; report, never hide."""
        rep = epsilon_noiseless(BudgetInputs(d=0.001, r=1, n=1, mu=0.95))
        assert rep.epsilon < 0.0
        assert "Divergent" in rep.warnings and "RegimeNegativeTerm" in rep.warnings


class TestPureDepolarizing:
    """Pure epsilon budget under depolarizing noise."""

    def test_reference_point(self):
        rep = epsilon_depolarizing(BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=0.5, D=2))
        assert rep.epsilon == pytest.approx(1.87222257, abs=1e-7)

    def test_constant_reference_point(self):
        assert depolarizing_constant(0.5, 0.1, 1, 2) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("p", [5e-324, 1e-310, 0.5, 1.0])
    def test_zero_distance_gives_zero_budget(self, p):
        """At d = 0 the scale is 0 for every p, also where (1-p)/p is inf."""
        assert depolarizing_constant(p, 0.0, 1, 2) == 0.0
        assert expectation_ratio_bound(0.15, 0.0, p, 2) == 0.15
        rep = epsilon_depolarizing(BudgetInputs(d=0.0, r=1, n=10, mu=0.15, p=p, D=2))
        assert rep.epsilon == 0.0 and rep.warnings == ()

    def test_matches_direct_formula(self, rng):
        for _ in range(200):
            d = rng.uniform(0.001, 0.3)
            mu = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 500))
            p = rng.uniform(0.05, 1.0)
            rep = epsilon_depolarizing(BudgetInputs(d=d, r=1, n=n, mu=mu, p=p, D=2))
            assert rep.epsilon == pytest.approx(pure_depolarizing_oracle(p, d, 1, 2, n, mu), rel=1e-12)

    def test_strictly_decreasing_in_noise(self):
        """More depolarizing noise means more privacy for free."""
        ps = [i / 100.0 for i in range(5, 96)]
        values = [epsilon_depolarizing(BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=p, D=2)).epsilon for p in ps]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_full_noise_gives_zero_budget(self):
        rep = epsilon_depolarizing(BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=1.0, D=2))
        assert rep.epsilon == 0.0

    def test_strictly_increasing_in_shots(self):
        values = [
            epsilon_depolarizing(BudgetInputs(d=0.1, r=1, n=n, mu=0.15, p=0.5, D=2)).epsilon
            for n in range(1, 10001)
        ]
        assert np.all(np.diff(values) > 0.0)

    def test_missing_noise_parameters(self):
        with pytest.raises(BadConfigError, match="BadConfig"):
            epsilon_depolarizing(BudgetInputs(d=0.1, r=1, n=10, mu=0.15))

    def test_zero_noise_probability_rejected(self):
        with pytest.raises(ZeroNoiseError, match="ZeroNoise"):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=0.0, D=2)

    def test_ratio_bound_reference(self):
        """mu0 may exceed mu1 by at most the factor 1 + (1-p)/p * d * D."""
        assert expectation_ratio_bound(0.15, 0.1, 0.5, 2) == pytest.approx(0.15 * 1.2, abs=1e-15)


class TestTailConversions:
    """Gaussian tail mass and the cutoff that achieves it."""

    def test_delta_against_high_precision_erfc(self):
        """Normalized tail mass erfc(c / (sqrt(2) sigma)) within 1e-12 relative of a
        50-digit evaluation at the same c, for x = c / (sqrt(2) sigma) on a grid in (0, 6]."""
        mu, n = 0.15, 5
        sigma = math.sqrt(mu * (1.0 - mu) / n)
        with mpmath.workdps(50):
            s = mpmath.sqrt(mpmath.mpf(mu) * (1 - mpmath.mpf(mu)) / n)
            for x in np.linspace(0.0, 6.0, 241)[1:]:
                c = float(x) * math.sqrt(2.0) * sigma
                want = mpmath.erfc(mpmath.mpf(c) / (mpmath.sqrt(2) * s))
                got = delta_from_c(c, mu, n, convention="normalized")
                assert abs(got - want) <= 1e-12 * want, (float(x), got, float(want))

    def test_delta_reference_point(self):
        value = delta_from_c(0.3, 0.15, 5, convention="paper")
        assert value == pytest.approx(0.0241323357, abs=1e-9)

    def test_conventions_differ_by_prefactor(self):
        sigma = math.sqrt(0.15 * 0.85 / 5.0)
        paper = delta_from_c(0.3, 0.15, 5, convention="paper")
        normalized = delta_from_c(0.3, 0.15, 5, convention="normalized")
        assert paper == pytest.approx(math.sqrt(2.0 * math.pi) * sigma * normalized, rel=1e-12)

    def test_paper_convention_can_exceed_one(self):
        """The unnormalized tail mass exceeds 1 near zero cutoff; warn, keep it."""
        with pytest.warns(RuntimeWarning, match="DeltaExceedsOne"):
            value = delta_from_c(0.001, 0.5, 1, convention="paper")
        assert value > 1.0

    def test_strictly_decreasing_in_cutoff(self):
        values = [delta_from_c(c, 0.15, 10, convention="paper") for c in np.linspace(0.01, 0.5, 50)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_round_trip_both_conventions(self):
        for convention in ("paper", "normalized"):
            for c in (0.05, 0.1, 0.3, 0.6):
                delta = delta_from_c(c, 0.15, 5, convention=convention)
                back = c_from_delta(delta, 0.15, 5, convention=convention)
                assert back == pytest.approx(c, rel=1e-9)

    def test_inverse_rejects_out_of_range_delta(self):
        with pytest.raises(DeltaOutOfRangeError, match="DeltaOutOfRange"):
            c_from_delta(1.5, 0.15, 5, convention="normalized")
        with pytest.raises(DeltaOutOfRangeError):
            c_from_delta(0.0, 0.15, 5, convention="paper")

    def test_degenerate_mean_rejected(self):
        with pytest.raises(DegenerateMuError):
            delta_from_c(0.3, 1.0, 5)

    def test_unknown_convention_rejected(self):
        with pytest.raises(BadConfigError):
            delta_from_c(0.3, 0.15, 5, convention="folklore")

    def test_inverse_against_high_precision(self):
        """Relative error at most 1e-13 over delta in [1e-300, 0.99 sup], both conventions.

        The reference solves log erfc(c / (sqrt(2) sigma)) = log(delta / scale)
        at 40 digits, where scale is sqrt(2 pi) sigma (paper) or 1 (normalized).
        """
        for mu, n in ((0.05, 1), (0.15, 10), (0.5, 10**6)):
            sigma = math.sqrt(mu * (1.0 - mu) / n)
            for convention, scale in (("paper", math.sqrt(2.0 * math.pi) * sigma), ("normalized", 1.0)):
                for delta in np.geomspace(1e-300, 0.99 * scale, 30):
                    got = c_from_delta(float(delta), mu, n, convention)
                    with mpmath.workdps(40):
                        s = mpmath.sqrt(mpmath.mpf(mu) * (1 - mpmath.mpf(mu)) / n)
                        log_y = mpmath.log(mpmath.mpf(float(delta)) / (mpmath.sqrt(2 * mpmath.pi) * s if convention == "paper" else 1))
                        x = mpmath.findroot(lambda x: mpmath.log(mpmath.erfc(x)) - log_y, mpmath.mpf(got) / (mpmath.sqrt(2) * s))
                        want = mpmath.sqrt(2) * s * x
                    assert abs(got - want) <= 1e-13 * want, (mu, n, convention, float(delta))

    def test_inverse_rejects_delta_whose_quantile_underflows(self):
        with pytest.raises(DeltaOutOfRangeError, match="too small"):
            c_from_delta(5e-324, 0.15, 10, convention="normalized")

    def test_normal_quantile_is_normal_dist_inv_cdf(self):
        """Bit-identical to `NormalDist().inv_cdf` on a log grid of q from 1e-300 to 1/2."""
        assert budget._normal_dist_inv_cdf is statistics._normal_dist_inv_cdf
        inv_cdf = statistics.NormalDist().inv_cdf
        qs = [min(10.0 ** (i / 10.0 - 300.0), 0.5) for i in range(2998)]
        assert qs[0] == 1e-300 and qs[-2] < qs[-1] == 0.5
        assert [budget._normal_quantile(q).hex() for q in qs] == [inv_cdf(q).hex() for q in qs]


class TestTailBudgets:
    """(epsilon, delta) budgets driven by a frequency cutoff."""

    def test_noiseless_reference_point(self):
        rep = epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, c=0.3))
        assert rep.epsilon == pytest.approx(2.8291317, abs=1e-6)
        assert rep.delta == pytest.approx(0.0241323357, abs=1e-9)
        assert rep.warnings == ()

    def test_depolarizing_reference_point(self):
        rep = epsilon_delta_depolarizing(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, p=0.8, D=2, c=0.3))
        assert rep.epsilon == pytest.approx(0.03823529, abs=1e-7)

    def test_matches_direct_formulas(self, rng):
        for _ in range(200):
            d = rng.uniform(0.0001, 0.01)
            mu = rng.uniform(0.05, 0.45)
            n = int(rng.integers(1, 50))
            c = rng.uniform(0.01, 0.4)
            rep = epsilon_delta_noiseless(BudgetInputs(d=d, r=1, n=n, mu=mu, c=c))
            assert rep.epsilon == pytest.approx(tail_noiseless_oracle(d, 1, n, mu, c), rel=1e-12)
            p = rng.uniform(0.3, 1.0)
            rep = epsilon_delta_depolarizing(BudgetInputs(d=d, r=1, n=n, mu=mu, p=p, D=2, c=c))
            assert rep.epsilon == pytest.approx(tail_depolarizing_oracle(p, d, 1, 2, n, mu, c), rel=1e-12)

    def test_delta_direction_agrees_with_cutoff_direction(self):
        by_c = epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, c=0.3))
        by_delta = epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, delta=by_c.delta))
        assert by_delta.epsilon == pytest.approx(by_c.epsilon, rel=1e-9)
        assert by_delta.inputs.c == pytest.approx(0.3, rel=1e-9)

    @pytest.mark.parametrize("budget, noise", [
        (epsilon_delta_noiseless, {}),
        (epsilon_delta_depolarizing, {"p": 0.5, "D": 2}),
    ])
    def test_delta_driven_report_echoes_the_derived_cutoff(self, budget, noise):
        """The echo equals the checked bundle rebuilt with c filled in."""
        inp = BudgetInputs(d=0.01, r=1, n=10, mu=0.15, delta=0.01, **noise)
        rep = budget(inp, convention="normalized")
        c = c_from_delta(0.01, 0.15, 10, "normalized")
        assert rep.inputs == BudgetInputs(**{**inp._asdict(), "c": c})
        assert type(rep.inputs) is BudgetInputs and type(rep.inputs.c) is float
        assert rep.inputs.c == c and inp.c is None
        assert hash(rep.inputs) == hash(BudgetInputs(**{**inp._asdict(), "c": c}))

    def test_exactly_one_of_c_and_delta(self):
        with pytest.raises(BadConfigError, match="exactly one"):
            epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, c=0.3, delta=0.01))
        with pytest.raises(BadConfigError, match="exactly one"):
            epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=5, mu=0.15))

    def test_out_of_regime_is_flagged_not_hidden(self):
        """n d r = 1 > 1 - mu: the quadratic denominator changes sign."""
        rep = epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.15, c=0.3))
        assert "RegimeInvalid" in rep.warnings
        assert math.isfinite(rep.epsilon)

    def test_exact_pole_reports_divergent(self):
        """n d r exactly 1 - mu makes the bracket blow up."""
        rep = epsilon_delta_noiseless(BudgetInputs(d=0.25, r=2, n=1, mu=0.5, c=0.1))
        assert not math.isfinite(rep.epsilon)
        assert "Divergent" in rep.warnings and "RegimeInvalid" in rep.warnings

    def test_delta_underflow_flag_in_report(self):
        """A 3.5e5-sigma cutoff: the tail is far below the smallest double."""
        rep = epsilon_delta_noiseless(BudgetInputs(d=1e-7, r=1, n=100000, mu=0.15, c=0.05))
        assert rep.delta == 0.0
        assert rep.warnings == ("DeltaUnderflow",)

    def test_delta_exceeds_one_flag_in_report(self):
        rep = epsilon_delta_noiseless(BudgetInputs(d=0.001, r=1, n=1, mu=0.5, c=0.001))
        assert rep.delta > 1.0
        assert "DeltaExceedsOne" in rep.warnings

    def test_increasing_in_shots_within_regime(self):
        """Monotone growth holds while c < 1 - mu - n d r, so keep d tiny.

        At larger d the quadratic pole enters the range and the budget is
        not monotone through it, which the RegimeInvalid flag marks instead.
        """
        values = [
            epsilon_delta_noiseless(BudgetInputs(d=4e-5, r=1, n=n, mu=0.15, c=0.3)).epsilon
            for n in range(1, 1001)
        ]
        assert np.all(np.diff(values) > 0.0)

    def test_depolarizing_full_noise_gives_zero(self):
        rep = epsilon_delta_depolarizing(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, p=1.0, D=2, c=0.3))
        assert rep.epsilon == 0.0


class TestShotsForBudget:
    """Largest shot count that stays within a target budget."""

    def test_reference_point(self):
        inp = BudgetInputs(d=0.1, r=1, n=1, mu=0.15)
        assert shots_for_budget(6.4216, inp) == 10

    def test_round_trip_at_exact_budget(self):
        """A target hit exactly by epsilon(n) returns that n."""
        for n_star in (1, 10, 137):
            inp = BudgetInputs(d=0.1, r=1, n=1, mu=0.15)
            target = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=n_star, mu=0.15)).epsilon
            assert shots_for_budget(target, inp) == n_star

    def test_target_between_consecutive_budgets(self):
        eps10 = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.15)).epsilon
        eps11 = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=11, mu=0.15)).epsilon
        inp = BudgetInputs(d=0.1, r=1, n=1, mu=0.15)
        assert shots_for_budget(0.5 * (eps10 + eps11), inp) == 10

    def test_depolarizing_round_trip(self):
        inp = BudgetInputs(d=0.1, r=1, n=1, mu=0.15, p=0.5, D=2)
        target = epsilon_depolarizing(BudgetInputs(d=0.1, r=1, n=7, mu=0.15, p=0.5, D=2)).epsilon
        assert shots_for_budget(target, inp, regime="depolarizing") == 7

    def test_unattainable_target(self):
        inp = BudgetInputs(d=0.1, r=1, n=1, mu=0.15)
        one_shot = epsilon_noiseless(inp).epsilon
        with pytest.raises(UnattainableError, match="Unattainable"):
            shots_for_budget(0.5 * one_shot, inp)

    def test_zero_scale_rejected(self):
        with pytest.raises(BadConfigError, match="identically zero"):
            shots_for_budget(1.0, BudgetInputs(d=0.0, r=1, n=1, mu=0.15))
        with pytest.raises(BadConfigError, match="identically zero"):
            shots_for_budget(1.0, BudgetInputs(d=0.1, r=1, n=1, mu=0.15, p=1.0, D=2), regime="depolarizing")

    def test_nonpositive_target_rejected(self):
        with pytest.raises(OutOfRangeError):
            shots_for_budget(0.0, BudgetInputs(d=0.1, r=1, n=1, mu=0.15))

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(OutOfRangeError, match="finite"):
            shots_for_budget(target, BudgetInputs(d=0.1, r=1, n=1, mu=0.15))

    @pytest.mark.parametrize("target", [True, False, "20", 20 + 0j, None])
    def test_non_real_target_rejected(self, target):
        """A bool is not a target of 1, and text or a complex is no number."""
        with pytest.raises(OutOfRangeError, match=r"target epsilon must be a real number, got "):
            shots_for_budget(target, BudgetInputs(d=0.1, r=1, n=10, mu=0.15))

    @pytest.mark.parametrize("target", [20, Fraction(20), np.float64(20.0)])
    def test_real_target_is_taken_as_its_float(self, target):
        assert shots_for_budget(target, BudgetInputs(d=0.1, r=1, n=10, mu=0.15)) == 145

    def test_target_beyond_the_largest_double_rejected(self):
        with pytest.raises(OutOfRangeError, match="target epsilon exceeds the largest double"):
            shots_for_budget(10**400, BudgetInputs(d=0.1, r=1, n=10, mu=0.15))

    @pytest.mark.parametrize("target", [1e307, 1e308, sys.float_info.max])
    def test_answer_past_the_largest_count_rejected(self, target):
        """epsilon grows as about 0.023 n here, so these targets need more
        shots than the largest count a BudgetInputs admits."""
        with pytest.raises(OutOfRangeError, match="largest count"):
            shots_for_budget(target, BudgetInputs(d=0.1, r=1, n=1, mu=0.15))

    @pytest.mark.parametrize("d, r, mu, target, about", [
        (0.1, 1, 0.15, 1e300, 4.335e301),
        # q c0 overflows a double here, though the answer does not.
        (1.0, 3, 0.5, 1e308, 3.968e305),
        # So does -2 c0.
        (0.07, 1, 0.95, 1.7e308, 8.078e307),
        # The root's square rounds past the largest double: the target is
        # just below the budget at the largest count.
        (0.1, 1, 0.1, None, sys.float_info.max),
    ])
    def test_huge_target_served(self, d, r, mu, target, about):
        """Past 2**53 the answer is the last double whose budget is within
        the target."""
        if target is None:
            largest = epsilon_noiseless(BudgetInputs(d=d, r=r, n=int(sys.float_info.max), mu=mu)).epsilon
            target = math.nextafter(largest, 0.0)
        n = shots_for_budget(target, BudgetInputs(d=d, r=r, n=1, mu=mu))
        assert n == pytest.approx(about, rel=1e-3)
        assert float(n) == n
        assert epsilon_noiseless(BudgetInputs(d=d, r=r, n=n, mu=mu)).epsilon <= target
        following = int(math.nextafter(float(n), math.inf))
        assert epsilon_noiseless(BudgetInputs(d=d, r=r, n=following, mu=mu)).epsilon > target


class TestBudgetInputsValidation:
    """Every malformed parameter is named at construction time."""

    def test_distance_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="OutOfRange"):
            BudgetInputs(d=1.5, r=1, n=10, mu=0.15)

    def test_rank_must_be_positive_integer(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=0, n=10, mu=0.15)

    def test_shots_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=0, mu=0.15)

    def test_mean_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=-0.2)

    def test_degenerate_mean(self):
        with pytest.raises(DegenerateMuError, match="DegenerateMu"):
            BudgetInputs(d=0.1, r=1, n=10, mu=1.0)

    def test_noise_probability_range(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=1.2, D=2)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, c=0.0)

    def test_delta_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, delta=-0.01)

    def test_boolean_rank_rejected(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=True, n=10, mu=0.15)
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=0.5, D=True)

    def test_integral_float_counts_stored_as_int(self):
        inp = BudgetInputs(d=0.1, r=1.0, n=10.0, mu=0.15, p=0.5, D=np.int64(2))
        assert (inp.r, inp.n, inp.D) == (1, 10, 2)
        assert all(type(v) is int for v in (inp.r, inp.n, inp.D))
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10.5, mu=0.15)

    @pytest.mark.parametrize("field", ["d", "mu", "p", "c", "delta"])
    @pytest.mark.parametrize("value", [True, False, "abc", "0.1", [0.1], 10**400])
    def test_real_parameters_reject_bools_and_non_numbers(self, field, value):
        base = {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "p": 0.5, "D": 2, "c": 0.05}
        with pytest.raises(OutOfRangeError):
            BudgetInputs(**{**base, field: value})

    def test_real_parameters_stored_as_float(self):
        inp = BudgetInputs(d=0, r=1, n=10, mu=np.float32(0.25), p=1, D=2, delta=np.float64(0.01))
        assert (inp.d, inp.mu, inp.p, inp.delta) == (0.0, 0.25, 1.0, 0.01)
        assert all(type(v) is float for v in (inp.d, inp.mu, inp.p, inp.delta))

    def test_nonfinite_tail_parameters_rejected(self):
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, c=float("inf"))
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, delta=float("inf"))
        with pytest.raises(OutOfRangeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, c=float("nan"))

    @pytest.mark.parametrize("field, named", [("r", "rank r"), ("n", "shots n"), ("D", "dimension D")])
    def test_counts_beyond_the_largest_double_rejected(self, field, named):
        base = {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "p": 0.5, "D": 2}
        largest = int(sys.float_info.max)
        assert getattr(BudgetInputs(**{**base, field: largest}), field) == largest
        for count in (largest + 1, 10**400):
            with pytest.raises(OutOfRangeError, match=f"OutOfRange: {named} exceeds the largest double"):
                BudgetInputs(**{**base, field: count})

    @pytest.mark.parametrize("field, named", [("r", "rank r"), ("n", "shots n"), ("D", "dimension D")])
    def test_fraction_counts_must_be_exact_integers(self, field, named):
        """A fraction is a count only when it equals an integer exactly: one
        whose float rounds to an integer is not truncated, and one beyond
        the largest double is rejected as such, not by an overflow."""
        base = {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "p": 0.5, "D": 2}
        stored = getattr(BudgetInputs(**{**base, field: Fraction(6, 2)}), field)
        assert (type(stored), stored) == (int, 3)
        with pytest.raises(OutOfRangeError, match=f"OutOfRange: {named} must be an integer >= 1"):
            BudgetInputs(**{**base, field: Fraction(2**60 + 1, 2)})
        with pytest.raises(OutOfRangeError, match=f"OutOfRange: {named} exceeds the largest double"):
            BudgetInputs(**{**base, field: Fraction(10**400)})

    def test_counts_past_exact_doubles_still_evaluate(self):
        for n in (2**53 + 1, 10**300):
            assert math.isfinite(epsilon_noiseless(BudgetInputs(d=1e-200, r=1, n=n, mu=0.15)).epsilon)


_OMIT = object()

# Values that each validator accepts, with None or an absent key for the optional fields.
_VALID = {
    "d": st.floats(0.0, 1.0),
    "r": st.integers(1, 64),
    "n": st.one_of(st.integers(1, 10**6), st.integers(1, 10**6).map(float)),
    "mu": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "p": st.one_of(st.just(_OMIT), st.none(), st.floats(0.0, 1.0, exclude_min=True)),
    "D": st.one_of(st.just(_OMIT), st.none(), st.integers(1, 16)),
    "c": st.one_of(st.just(_OMIT), st.none(), st.floats(0.0, 1e3, exclude_min=True)),
    "delta": st.one_of(st.just(_OMIT), st.none(), st.floats(0.0, 1.0, exclude_min=True)),
}
# Anything a caller might pass: in and out of range, bools, integral floats,
# numpy scalars, None, non-finite floats and non-numbers.
_ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**70),
    st.just(10**400),  # beyond the largest double
    st.integers(-3, 2000).map(float),
    st.floats(),
    st.floats(-0.5, 1.5),
    st.sampled_from([np.float64(0.25), np.float32(0.1), np.int64(3), np.int32(0), np.float64(10.0),
                     np.float16(1.0), np.bool_(True), np.uint8(7)]),
    st.sampled_from(["0.1", "abc", [0.1], 1 + 0j]),
)


@st.composite
def _field_values(draw):
    """Keyword arguments for BudgetInputs: valid values, with up to three fields
    replaced by arbitrary ones, so that both the first-bad-field order and
    clean records are drawn."""
    arbitrary = draw(st.sets(st.sampled_from(tuple(_VALID)), max_size=3))
    values = {name: draw(_ANY if name in arbitrary else strategy) for name, strategy in _VALID.items()}
    return {name: value for name, value in values.items() if value is not _OMIT}


# Each field's one validator, in field order: the reference the constructor
# is checked against.
_FIELD_CHECKS = {
    "d": check_distance,
    "r": lambda r: check_count(r, "rank r"),
    "n": lambda n: check_count(n, "shots n"),
    "mu": check_mean,
    "p": check_noise,
    "D": lambda dim: check_count(dim, "dimension D"),
    "c": check_cutoff,
    "delta": check_delta,
}


def _table_record(values):
    """The record as the `_FIELD_CHECKS` table defines it, checked in field order."""
    return {
        name: None if values.get(name) is None and name not in budget._REQUIRED else check(values.get(name))
        for name, check in _FIELD_CHECKS.items()
    }


class TestBudgetInputsMatchesTable:
    """The straight-line constructor stores and rejects exactly what the table does."""

    @given(_field_values())
    def test_same_record_or_same_error(self, values):
        try:
            want = _table_record(values)
        except Exception as exc:  # the first failing field's error
            with pytest.raises(type(exc)) as raised:
                BudgetInputs(**values)
            assert str(raised.value) == str(exc)
            return
        got = BudgetInputs(**values)._asdict()
        assert list(got) == list(_FIELD_CHECKS)
        assert [(type(v), repr(v)) for v in got.values()] == [(type(v), repr(v)) for v in want.values()]


@pytest.mark.parametrize("kernel", [budget._pure, budget._tail])
def test_kernel_arguments_follow_the_fields(kernel):
    """`_arguments` passes a bundle's values positionally and a sweep sets
    its axis by the field's index, so after the regime the kernels take the
    fields in order, then the convention flag."""
    assert list(inspect.signature(kernel).parameters) == ["regime", *BudgetInputs._fields, "paper"]


class TestKernelFlags:
    """The kernels' flags follow the flag rules, Divergent last."""

    @staticmethod
    def _divergent(eps, flags):
        return (*flags, "Divergent") if not math.isfinite(eps) or eps < 0.0 else tuple(flags)

    @given(
        st.sampled_from(["noiseless", "depolarizing"]),
        st.floats(0.0, 1.0),
        st.integers(1, 4),
        st.integers(1, 10**7),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1e-6, 1.0),
        st.integers(1, 8),
    )
    @example("noiseless", 1.0, 1, 10, 5e-324, 0.5, 2)  # epsilon overflows to inf
    @example("noiseless", 0.1, 1, 10, 0.5, 0.5, 2)  # mu = 1/2 has no negative term
    def test_pure_flags(self, regime, d, r, n, mu, p, dim):
        eps, delta, c, flags = budget._pure(regime, d, r, n, mu, p, dim)
        assert (delta, c) == (0.0, None)
        assert flags == self._divergent(eps, ["RegimeNegativeTerm"] if mu > 0.5 else [])

    @given(
        st.floats(0.0, 1.0),
        st.integers(1, 4),
        st.integers(1, 10**7),
        st.floats(1e-3, 1.0, exclude_max=True),
        st.floats(1e-12, 1e3),
        st.booleans(),
    )
    @example(0.0, 1, 10, 0.15, 1e-300, False)  # delta rounds to exactly 1
    def test_tail_flags(self, d, r, n, mu, c, paper):
        eps, delta, c_out, flags = budget._tail("noiseless", d, r, n, mu, None, None, c, None, paper)
        want = ["DeltaExceedsOne"] if delta > 1.0 else ["DeltaUnderflow"] if delta == 0.0 else []
        if 1.0 - mu - n * d * r <= 0.0:
            want.append("RegimeInvalid")
        assert c_out == c
        assert flags == self._divergent(eps, want)


class TestRecords:
    """`BudgetInputs` and `PrivacyReport` are named tuples of their fields."""

    def test_repr_text(self):
        inp = BudgetInputs(0.1, 1, 10.0, 0.15, delta=0.01)
        assert repr(inp) == "BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=None, D=None, c=None, delta=0.01)"
        rep = PrivacyReport(1.5, 0.0, ("Divergent",), inp)
        assert repr(rep) == f"PrivacyReport(epsilon=1.5, delta=0.0, warnings=('Divergent',), inputs={inp!r})"

    def test_equality_and_hash_over_fields(self):
        inp = BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=0.5, D=2)
        same = BudgetInputs(0.1, 1, 10.0, 0.15, 0.5, 2)
        assert inp == same and not inp != same
        assert hash(inp) == hash(same) == hash((0.1, 1, 10, 0.15, 0.5, 2, None, None))
        assert inp != BudgetInputs(d=0.1, r=1, n=11, mu=0.15, p=0.5, D=2)
        rep = epsilon_noiseless(inp)
        assert rep == epsilon_noiseless(same) and hash(rep) == hash(epsilon_noiseless(same))
        assert hash(rep) == hash((rep.epsilon, rep.delta, rep.warnings, inp))
        assert rep != PrivacyReport(rep.epsilon, rep.delta, rep.warnings, BudgetInputs(0.1, 1, 11, 0.15))

    def test_records_are_tuples_of_their_values(self):
        inp = BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=0.5, D=2)
        assert inp == tuple(inp) == (0.1, 1, 10, 0.15, 0.5, 2, None, None)
        d, r, n, mu, p, D, c, delta = inp
        assert (inp[2], inp[-1], n, delta) == (10, None, 10, None)
        rep = epsilon_noiseless(inp)
        epsilon, delta, warnings, inputs = rep
        assert rep == tuple(rep) == (rep.epsilon, 0.0, (), inp) and inputs is inp

    def test_fields_cannot_be_assigned_or_deleted(self):
        inp = BudgetInputs(d=0.1, r=1, n=10, mu=0.15)
        rep = epsilon_noiseless(inp)
        for record, name in ((inp, "n"), (inp, "p"), (inp, "other"), (rep, "epsilon"), (rep, "inputs")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert inp == BudgetInputs(d=0.1, r=1, n=10, mu=0.15) and rep == epsilon_noiseless(inp)

    def test_positional_and_keyword_construction(self):
        keywords = {"d": 0.1, "r": 2, "n": 10, "mu": 0.15, "p": 0.5, "D": 2, "c": 0.3, "delta": None}
        inp = BudgetInputs(0.1, 2, 10, 0.15, 0.5, 2, 0.3)
        assert inp == BudgetInputs(**keywords)
        assert inp._asdict() == keywords and list(inp._asdict()) == list(keywords) == list(BudgetInputs._fields)
        rep = PrivacyReport(1.0, 0.0, (), inp)
        assert rep == PrivacyReport(epsilon=1.0, delta=0.0, warnings=(), inputs=inp)
        assert list(rep._asdict()) == list(PrivacyReport._fields) == ["epsilon", "delta", "warnings", "inputs"]

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trips(self, round_trip):
        inp = BudgetInputs(d=0.1, r=1, n=10, mu=0.15, p=0.5, D=2, delta=0.01)
        rep = epsilon_delta_depolarizing(inp)
        for record in (inp, rep, rep.inputs):
            again = round_trip(record)
            assert again == record and type(again) is type(record)
            assert list(again._asdict()) == list(record._fields)
        assert type(round_trip(rep).inputs) is BudgetInputs

    def test_missing_or_extra_fields_raise_type_error(self):
        with pytest.raises(TypeError):
            BudgetInputs(0.1, 1, 10)
        with pytest.raises(TypeError):
            BudgetInputs(d=0.1, r=1, mu=0.15)
        with pytest.raises(TypeError):
            BudgetInputs(0.1, 1, 10, 0.15, 0.5, 2, 0.3, 0.01, 1)
        with pytest.raises(TypeError):
            BudgetInputs(d=0.1, r=1, n=10, mu=0.15, beta=0.9)
        with pytest.raises(TypeError):
            PrivacyReport(1.0, 0.0, ())
