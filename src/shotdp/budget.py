"""Closed-form privacy budgets for shot-noise-limited measurements.

Four budgets are provided, indexed by noise regime and accounting style:

    epsilon_noiseless          pure epsilon, no channel noise
    epsilon_depolarizing       pure epsilon under depolarizing noise
    epsilon_delta_noiseless    (epsilon, delta) with a 3-sigma tail cutoff
    epsilon_delta_depolarizing (epsilon, delta) under depolarizing noise

All four consume a `BudgetInputs` bundle and return a `PrivacyReport`
carrying the numbers plus warning flags for regimes where a formula is
outside its comfort zone. `mu` is always the smaller of the two outcome
means being distinguished. The tail cutoff `c` and the tail mass `delta`
are interchangeable through `delta_from_c` / `c_from_delta`.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace
from statistics import NormalDist

from .errors import (
    BadConfigError,
    DeltaOutOfRangeError,
    OutOfRangeError,
    UnattainableError,
    check_count,
    check_convention,
    check_cutoff,
    check_delta,
    check_distance,
    check_mean,
    check_noise,
)

erfc = math.erfc
"""Complementary error function (absolute error well under 1e-7 for |x| <= 6)."""

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_normal_quantile = NormalDist().inv_cdf


@dataclass(frozen=True)
class BudgetInputs:
    """Parameter bundle shared by the budget formulas.

    Every field is checked on construction by its validator in `errors`
    and stored as the value it returns. Counts are stored as `int` (an
    integral float such as 10.0 is converted) and the other fields as
    `float`; a bool or a non-number is rejected.

    Attributes
    ----------
    d : float
        Trace distance between the neighboring states, in [0, 1].
    r : int
        Rank of the measured projector, at least 1.
    n : int
        Number of measurement shots, at least 1.
    mu : float
        Smaller of the two outcome means, strictly inside (0, 1).
    p : float, optional
        Depolarizing probability in (0, 1]; required by the noisy budgets.
    D : int, optional
        System dimension, at least 1; required by the noisy budgets.
    c : float, optional
        Positive, finite tail cutoff for the (epsilon, delta) budgets.
    delta : float, optional
        Positive, finite tail mass; alternative to `c` (supply exactly one).
    """

    d: float
    r: int
    n: int
    mu: float
    p: float | None = None
    D: int | None = None
    c: float | None = None
    delta: float | None = None

    def __post_init__(self):
        checked = {
            "d": check_distance(self.d),
            "r": check_count(self.r, "rank r"),
            "n": check_count(self.n, "shots n"),
            "mu": check_mean(self.mu),
        }
        if self.p is not None:
            checked["p"] = check_noise(self.p)
        if self.D is not None:
            checked["D"] = check_count(self.D, "dimension D")
        if self.c is not None:
            checked["c"] = check_cutoff(self.c)
        if self.delta is not None:
            checked["delta"] = check_delta(self.delta)
        # The instance is frozen, so the checked values go straight into its dict.
        self.__dict__.update(checked)


@dataclass(frozen=True)
class PrivacyReport:
    """Budget evaluation result: the numbers plus honesty flags.

    `epsilon` is finite and nonnegative unless "Divergent" appears in
    `warnings`; `delta` is 0 for the pure budgets. `inputs` echoes the
    bundle the numbers were computed from.
    """

    epsilon: float
    delta: float
    warnings: tuple[str, ...]
    inputs: BudgetInputs


def _value_flags(epsilon: float, flags: list[str]) -> tuple[str, ...]:
    # Divergent marks any epsilon a caller must not trust as a budget.
    if not math.isfinite(epsilon) or epsilon < 0.0:
        flags.append("Divergent")
    return tuple(flags)


def depolarizing_constant(p: float, d: float, r: int, dim: int) -> float:
    """Scale ((1-p)/p) d r dim entering the depolarizing budgets.

    Grows without bound as p -> 0+, so p = 0 is rejected as ZeroNoise.
    """
    if p is None or dim is None:
        raise BadConfigError("BadConfig: depolarizing regime needs both p and D")
    p = check_noise(p)
    d = check_distance(d)
    r = check_count(r, "rank r")
    dim = check_count(dim, "dimension D")
    return ((1.0 - p) / p) * d * r * dim


def expectation_ratio_bound(mu1: float, d: float, p: float, dim: int) -> float:
    """Largest mean mu1 (1 + ((1-p)/p) d dim) reachable from a state with
    mean mu1 by moving trace distance d under depolarizing noise p."""
    return check_mean(mu1, "mean mu1") * (1.0 + depolarizing_constant(p, d, 1, dim))


def _pure_terms(inp: BudgetInputs, regime: str) -> tuple[float, float]:
    """Scale and quadratic coefficient of the pure budget for `regime`.

    The pure budget is scale [ (9/2)(1-2mu) + (3/2) sqrt(n) + quadratic n / (1-mu) ];
    neither coefficient depends on n, and both are nonnegative.
    """
    if regime == "noiseless":
        dr = inp.d * inp.r
        return dr / ((1.0 - inp.mu) * inp.mu), dr * (inp.mu + dr)
    if regime == "depolarizing":
        a = depolarizing_constant(inp.p, inp.d, inp.r, inp.D)
        return a / (1.0 - inp.mu), a * inp.mu * inp.mu * (1.0 + a)
    raise BadConfigError(f"BadConfig: unknown regime {regime!r}")


def _pure_report(inp: BudgetInputs, scale: float, quadratic: float) -> PrivacyReport:
    """Shared pure budget scale [ (9/2)(1-2mu) + (3/2) sqrt(n) + quadratic n / (1-mu) ]."""
    mu = inp.mu
    eps = scale * (4.5 * (1.0 - 2.0 * mu) + 1.5 * math.sqrt(inp.n) + quadratic * inp.n / (1.0 - mu))
    flags = ["RegimeNegativeTerm"] if mu > 0.5 else []
    return PrivacyReport(epsilon=eps, delta=0.0, warnings=_value_flags(eps, flags), inputs=inp)


def epsilon_noiseless(inp: BudgetInputs) -> PrivacyReport:
    """Pure-epsilon budget for a noiseless circuit.

        eps = (d r / ((1-mu) mu)) [ (9/2)(1-2mu) + (3/2) sqrt(n)
                                    + d r (mu + d r) n / (1-mu) ]

    The first bracket term goes negative for mu > 1/2; the report flags
    that regime rather than adjusting the value.
    """
    return _pure_report(inp, *_pure_terms(inp, "noiseless"))


def epsilon_depolarizing(inp: BudgetInputs) -> PrivacyReport:
    """Pure-epsilon budget under depolarizing noise.

    With a = ((1-p)/p) d r D,

        eps = (a / (1-mu)) [ (9/2)(1-2mu) + (3/2) sqrt(n)
                             + a mu^2 (1+a) n / (1-mu) ]
    """
    return _pure_report(inp, *_pure_terms(inp, "depolarizing"))


def _sigma(mu: float, n: int) -> float:
    """Standard deviation sqrt(mu(1-mu)/n) of the n-shot sample mean."""
    return math.sqrt(mu * (1.0 - mu) / n)


def _tail_mass(c: float, sigma: float, paper: bool) -> float:
    """delta_from_c on validated inputs, without the DeltaExceedsOne warning."""
    tail = math.erfc(c / (math.sqrt(2.0) * sigma))
    return _SQRT_2PI * sigma * tail if paper else tail


def delta_from_c(c: float, mu: float, n: int, convention: str = "paper") -> float:
    """Gaussian tail mass outside mu +/- c for the n-shot sample mean.

    With sigma = sqrt(mu(1-mu)/n):

        paper       sqrt(2 pi) sigma erfc(c / (sqrt(2) sigma))
        normalized  erfc(c / (sqrt(2) sigma))

    The paper convention scales the two-sided tail by the kernel's
    unnormalized height and can exceed 1; a RuntimeWarning named
    DeltaExceedsOne is emitted in that case and the value is returned
    as computed. Past about 38 sigma the tail underflows to 0.0.
    """
    check_cutoff(c)
    mu = check_mean(mu)
    n = check_count(n, "shots n")
    value = _tail_mass(c, _sigma(mu, n), check_convention(convention))
    if value > 1.0:
        _warnings.warn(f"DeltaExceedsOne: delta={value:.6g} under the {convention} convention", RuntimeWarning, stacklevel=2)
    return value


def c_from_delta(delta: float, mu: float, n: int, convention: str = "paper") -> float:
    """Invert delta_from_c in closed form through the normal quantile.

    Since erfc(x) = 2 Phi(-sqrt(2) x), the cutoff is

        paper       c = -sigma Phi^-1(delta / (2 sqrt(2 pi) sigma))
        normalized  c = -sigma Phi^-1(delta / 2)

    with Phi^-1 from `statistics.NormalDist`; c stays within 1e-13 relative
    of a 40-digit reference for delta down to 1e-300. Targets at or above
    the c -> 0 limit (sqrt(2 pi) sigma in the paper convention, 1
    normalized), at or below 0, or so small that the quantile argument
    underflows to 0 raise DeltaOutOfRangeError.
    """
    mu = check_mean(mu)
    n = check_count(n, "shots n")
    paper = check_convention(convention)
    sigma = _sigma(mu, n)
    supremum = _SQRT_2PI * sigma if paper else 1.0
    check_delta(delta, supremum)
    # delta / supremum rounds below 1, so the argument stays below 1/2 and c > 0.
    quantile = 0.5 * (delta / supremum)
    if quantile == 0.0:
        raise DeltaOutOfRangeError(f"DeltaOutOfRange: delta={delta} is too small to invert in double precision")
    return -sigma * _normal_quantile(quantile)


def _tail_report(inp: BudgetInputs, convention: str, scale: float, u: float) -> PrivacyReport:
    """Shared (epsilon, delta) budget: prefactor `scale`, pole at 1 - mu - u,
    with the one supplied tail parameter turned into the (c, delta) pair."""
    if (inp.c is None) == (inp.delta is None):
        raise BadConfigError("BadConfig: supply exactly one of c and delta")
    mu = inp.mu
    if inp.c is not None:
        c = inp.c
        delta = _tail_mass(c, _sigma(mu, inp.n), check_convention(convention))
    else:
        delta = inp.delta
        c = c_from_delta(delta, mu, inp.n, convention)
    flags = ["DeltaExceedsOne"] if delta > 1.0 else ["DeltaUnderflow"] if delta == 0.0 else []
    denom = 1.0 - mu - u
    if denom <= 0.0:
        flags.append("RegimeInvalid")
    if denom == 0.0:
        eps = float("-inf") if scale > 0.0 else 0.0
    else:
        eps = scale * ((1.0 - 2.0 * mu - u) * c * c / (2.0 * mu * denom) + c + u / 2.0)
    return PrivacyReport(epsilon=eps, delta=float(delta), warnings=_value_flags(eps, flags), inputs=replace(inp, c=c))


def epsilon_delta_noiseless(inp: BudgetInputs, convention: str = "paper") -> PrivacyReport:
    """(epsilon, delta) budget for a noiseless circuit with tail cutoff c.

        eps = (n d r / (mu (1-mu))) [ (1 - 2mu - n d r) c^2 / (2 mu (1 - mu - n d r))
                                      + c + n d r / 2 ]

    Supply exactly one of `c` and `delta`; the other is derived through the
    Gaussian tail formula. The report flags RegimeInvalid once n d r
    reaches 1 - mu (the bracket's pole), DeltaExceedsOne when the paper
    convention pushes delta past 1, and DeltaUnderflow when a positive c
    gives a delta of 0.0 (the tail is below the smallest double); values
    are returned as computed.
    """
    u = inp.n * inp.d * inp.r
    return _tail_report(inp, convention, u / (inp.mu * (1.0 - inp.mu)), u)


def epsilon_delta_depolarizing(inp: BudgetInputs, convention: str = "paper") -> PrivacyReport:
    """(epsilon, delta) budget under depolarizing noise with tail cutoff c.

    With a = ((1-p)/p) d r D,

        eps = (a / (1-mu)) [ (1 - 2mu - n a) c^2 / (2 mu (1 - mu - n a))
                             + c + n a / 2 ]

    Same flag semantics as the noiseless variant, with the pole at
    1 - mu - n a.
    """
    a = depolarizing_constant(inp.p, inp.d, inp.r, inp.D)
    return _tail_report(inp, convention, a / (1.0 - inp.mu), inp.n * a)


def shots_for_budget(target_epsilon: float, inp: BudgetInputs, regime: str = "noiseless") -> int:
    """Largest shot count whose pure-epsilon budget stays within the target.

    With s = sqrt(n) and q = quadratic / (1-mu), the pure budget is
    scale [ (9/2)(1-2mu) + (3/2) s + q s^2 ], a quadratic in s with
    nonnegative coefficients, so it grows strictly with n whenever scale
    (d r, or the depolarizing constant) is positive. The answer is the floor
    of the square of its positive root at the target, taken in the
    cancellation-free form s = -2 c0 / (3/2 + sqrt(9/4 - 4 q c0)) with
    c0 = (9/2)(1-2mu) - target / scale (which also covers q = 0), then
    stepped by single shots against the budget itself so float rounding in
    the root cannot move the answer. Past 2**53 shots, where adjacent counts
    round to one double, the steps and the answer's precision are the
    spacing of doubles there. Raises UnattainableError when even one
    shot exceeds the target, and BadConfigError when the budget is
    identically zero (nothing to bound: d = 0, or p = 1).
    """
    if not target_epsilon > 0.0:
        raise OutOfRangeError(f"OutOfRange: target epsilon {target_epsilon} must be positive")
    scale, quadratic = _pure_terms(inp, regime)
    if scale == 0.0:
        raise BadConfigError("BadConfig: epsilon is identically zero, every shot count fits the budget")

    def evaluate(n: int) -> float:
        return _pure_report(replace(inp, n=n), scale, quadratic).epsilon

    if evaluate(1) > target_epsilon:
        raise UnattainableError(f"Unattainable: epsilon({1}) = {evaluate(1):.6g} already exceeds {target_epsilon}")
    q = quadratic / (1.0 - inp.mu)
    c0 = 4.5 * (1.0 - 2.0 * inp.mu) - target_epsilon / scale
    s = -2.0 * c0 / (1.5 + math.sqrt(2.25 - 4.0 * q * c0))
    n = max(int(s * s), 1)
    # Shot counts that round to one double share a budget: past 2**53, step by their spacing.
    step = max(int(math.ulp(s * s)), 1)
    while evaluate(n + step) <= target_epsilon:
        n += step
    while evaluate(n) > target_epsilon:
        n -= step
    return n
