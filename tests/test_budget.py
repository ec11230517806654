"""Closed-form privacy budgets and tail-cutoff conversions."""

import math

import mpmath
import numpy as np
import pytest

from shotdp import (
    BadConfigError,
    BudgetInputs,
    DegenerateMuError,
    DeltaOutOfRangeError,
    OutOfRangeError,
    UnattainableError,
    ZeroNoiseError,
    c_from_delta,
    delta_from_c,
    depolarizing_constant,
    epsilon_delta_depolarizing,
    epsilon_delta_noiseless,
    epsilon_depolarizing,
    epsilon_noiseless,
    erfc,
    expectation_ratio_bound,
    shots_for_budget,
)


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

    def test_erfc_reference_point(self):
        assert erfc(1.0) == pytest.approx(0.1572992070502851, abs=1e-15)

    def test_erfc_against_high_precision(self):
        """Sweep |x| <= 6 against a 50-digit evaluation."""
        mpmath.mp.dps = 50
        for x in np.linspace(-6.0, 6.0, 241):
            assert erfc(float(x)) == pytest.approx(float(mpmath.erfc(mpmath.mpf(float(x)))), abs=1e-7)

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
    @pytest.mark.parametrize("value", [True, False, "abc", "0.1", [0.1]])
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
