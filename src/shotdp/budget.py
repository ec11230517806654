"""Closed-form privacy budgets for shot-noise-limited measurements.

Four budgets are provided, indexed by noise regime and accounting style:

    epsilon_noiseless          pure epsilon, no channel noise
    epsilon_depolarizing       pure epsilon under depolarizing noise
    epsilon_delta_noiseless    (epsilon, delta) with a 3-sigma tail cutoff
    epsilon_delta_depolarizing (epsilon, delta) under depolarizing noise

Each accounting style is one scalar kernel on checked numbers: `_pure` and
`_tail` take the regime, the fields d, r, n, mu, p, D, c, delta and the
convention, and return (epsilon, delta, c, flags), with flags `()` when
none applies. Each kernel is two parts: the coefficients, which its sweep
axis does not change (`_pure_coefficients` for n; `_tail_coefficients`
for c and delta), and a per-point formula that returns a float
(`_pure_epsilon`, `_tail_epsilon`), the only place its bracket is
written. `_flags` adds the flags that depend on the point, and
`_flag_column` applies them to a block of points at once. Each field has
one validator in `errors`, and
`BudgetInputs` is the one place that checks a bundle's fields with them,
in field order, when it is built. Each field admits one interval of
values, so a CLI sweep, whose grid points rise, checks its whole axis as
two bundles, at its first and last point, and calls no validator per
point. The public functions take a checked bundle, add the checks that
depend on the budget (`_arguments`), call a kernel on the bundle's values
and return a `PrivacyReport` with warning flags for regimes where a
formula is outside its comfort zone; `shots_for_budget` computes the
coefficients once and calls `_pure_epsilon` per candidate shot count, and
a sweep along n (pure), c or delta (tail) does the same per point, while
a sweep along any other axis maps the whole kernel.
Both records are standard-library named tuples. `mu` is always the smaller of the two
outcome means.
The tail cutoff `c` and the tail mass `delta` are interchangeable through
`delta_from_c` / `c_from_delta`. `__all__` lists the names the package
exports; the kernels and helpers serve `binomial` and `cli`.
"""

from __future__ import annotations

import math
import sys
import warnings as _warnings
from collections import namedtuple
from functools import partial
from itertools import repeat

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the C accelerator
    from statistics import _normal_dist_inv_cdf

from .errors import (
    _LARGEST_COUNT,
    BadConfigError,
    DeltaOutOfRangeError,
    OutOfRangeError,
    UnattainableError,
    _real,
    check_count,
    check_convention,
    check_cutoff,
    check_delta,
    check_distance,
    check_mean,
    check_noise,
)

__all__ = [
    "BudgetInputs", "PrivacyReport", "epsilon_noiseless", "epsilon_depolarizing", "epsilon_delta_noiseless",
    "epsilon_delta_depolarizing", "delta_from_c", "c_from_delta", "depolarizing_constant", "expectation_ratio_bound",
    "shots_for_budget",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_quantile(q: float) -> float:
    """Standard normal quantile for 0 < q < 1: the function behind
    `statistics.NormalDist().inv_cdf`, called without loading `statistics`."""
    return _normal_dist_inv_cdf(q, 0.0, 1.0)


_REQUIRED = ("d", "r", "n", "mu")


# The fields in the kernels' argument order: `_arguments` passes a bundle's
# values to `_pure` and `_tail` positionally, and a sweep's axis slot is the
# field's index.
class BudgetInputs(namedtuple("BudgetInputs", ("d", "r", "n", "mu", "p", "D", "c", "delta"), defaults=(None,) * 4)):
    """Parameter bundle shared by the budget formulas: a named tuple of the
    fields d, r, n, mu, p, D, c, delta.

    Every field is checked on construction by its one validator in
    `errors`, in field order, so an error names the first bad field; no
    other code pairs a field with its validator. p, D, c and delta may be
    None and are then not checked. Each field admits one interval of
    values, so two bundles that differ in one field check every value of
    that field between them. Each field is stored as the value its
    validator returns: counts as `int` (an integral float such as 10.0 is
    converted, a fraction only when it is an integer) and the other fields
    as `float`; a bool or a non-number is rejected. As a tuple, the bundle
    equals, unpacks and indexes as the tuple of its values; `_asdict()`
    gives the fields by name.

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

    __slots__ = ()

    def __new__(cls, d: float, r: int, n: int, mu: float, p: float | None = None, D: int | None = None,
                c: float | None = None, delta: float | None = None):
        # Each field's validator, called in field order, so the first bad
        # field is the one reported. Each admits one interval of values.
        return tuple.__new__(cls, (
            check_distance(d),
            check_count(r, "rank r"),
            check_count(n, "shots n"),
            check_mean(mu),
            None if p is None else check_noise(p),
            None if D is None else check_count(D, "dimension D"),
            None if c is None else check_cutoff(c),
            None if delta is None else check_delta(delta),
        ))


PrivacyReport = namedtuple("PrivacyReport", ("epsilon", "delta", "warnings", "inputs"))
PrivacyReport.__doc__ = """Budget evaluation result, a named tuple: the numbers plus honesty flags.

`epsilon` is finite and nonnegative unless "Divergent" appears in
`warnings`; `delta` is 0 for the pure budgets. `inputs` echoes the
bundle the numbers were computed from.
"""


def _depolarizing_scale(p: float, d: float, r: int, dim: int) -> float:
    # At d = 0 the scale is 0 for any p; (1-p)/p is inf for a subnormal p,
    # and inf * 0 would be nan. Returning d keeps the sign of a -0.0.
    if d == 0.0:
        return d
    return ((1.0 - p) / p) * d * r * dim


def depolarizing_constant(p: float, d: float, r: int, dim: int) -> float:
    """Scale ((1-p)/p) d r dim entering the depolarizing budgets.

    Grows without bound as p -> 0+, so p = 0 is rejected as ZeroNoise.
    While every intermediate result is a normal double, the value is
    within 1e-15 relative of the product evaluated exactly on the same
    inputs: it rounds at most seven times, r and dim on their way to
    doubles included.
    """
    return _depolarizing_scale(check_noise(p), check_distance(d), check_count(r, "rank r"), check_count(dim, "dimension D"))


def expectation_ratio_bound(mu1: float, d: float, p: float, dim: int) -> float:
    """Largest mean mu1 (1 + ((1-p)/p) d dim) reachable from a state with
    mean mu1 by moving trace distance d under depolarizing noise p.

    While every intermediate result is a normal double, the value is
    within 1e-15 relative of that expression evaluated exactly on the same
    inputs (at most seven roundings)."""
    return check_mean(mu1, "mean mu1") * (1.0 + depolarizing_constant(p, d, 1, dim))


def _sigma(mu: float, n: int) -> float:
    """Standard deviation sqrt(mu(1-mu)/n) of the n-shot sample mean."""
    return math.sqrt(mu * (1.0 - mu) / n)


def _tail_mass(c: float, sigma: float, paper: bool) -> float:
    """delta_from_c on checked inputs, without the DeltaExceedsOne warning."""
    tail = math.erfc(c / (math.sqrt(2.0) * sigma))
    return _SQRT_2PI * sigma * tail if paper else tail


def _cutoff(delta, sigma: float, paper: bool) -> float:
    """c_from_delta on checked mu, n and convention; delta is checked here,
    against the supremum that sigma sets."""
    supremum = _SQRT_2PI * sigma if paper else 1.0
    check_delta(delta, supremum)
    # delta / supremum rounds below 1, so the argument stays below 1/2 and c > 0.
    quantile = 0.5 * (delta / supremum)
    if quantile == 0.0:
        raise DeltaOutOfRangeError(f"DeltaOutOfRange: delta={delta} is too small to invert in double precision")
    return -sigma * _normal_quantile(quantile)


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
    value = _tail_mass(check_cutoff(c), _sigma(check_mean(mu), check_count(n, "shots n")), check_convention(convention))
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
    return _cutoff(delta, _sigma(check_mean(mu), check_count(n, "shots n")), check_convention(convention))


def _pure_coefficients(regime: str, d: float, r: int, mu: float, p, dim) -> tuple:
    """The part of the pure budget that n does not change: its scale and
    quadratic coefficient, both nonnegative, and its flags before
    Divergent (RegimeNegativeTerm for mu > 1/2, where the bracket's first
    term is negative)."""
    flags = ("RegimeNegativeTerm",) if mu > 0.5 else ()
    if regime == "noiseless":
        dr = d * r
        return dr / ((1.0 - mu) * mu), dr * (mu + dr), flags
    a = _depolarizing_scale(p, d, r, dim)
    return a / (1.0 - mu), a * mu * mu * (1.0 + a), flags


def _pure_epsilon(scale: float, quadratic: float, mu: float, n: int) -> float:
    """The pure budget at n from its coefficients: scale [ (9/2)(1-2mu) +
    (3/2) sqrt(n) + quadratic n / (1-mu) ]."""
    return scale * (4.5 * (1.0 - 2.0 * mu) + 1.5 * math.sqrt(n) + quadratic * n / (1.0 - mu))


def _tail_coefficients(regime: str, d, r, n, mu, p, D) -> tuple:
    """The part of the (epsilon, delta) budget that c and delta do not
    change: (sigma, scale, u, lead, denom, flags), with lead = 1 - 2mu - u,
    denom = 1 - mu - u and flags (RegimeInvalid) when denom <= 0.

    Noiseless, u = n d r and scale = u / (mu (1-mu)); under depolarizing
    noise, u = n a and scale = a / (1-mu). Within 2^-6 (1-mu) of the pole
    denom = 0 or of the lead factor's zero, where their float subtractions
    cancel, both factors are formed from the exact rationals of the float
    inputs, so RegimeInvalid reads the exact sign of the pole factor.
    """
    rest = 1.0 - mu
    if regime == "noiseless":
        u = n * d * r
        scale = u / (mu * rest)
    else:
        a = _depolarizing_scale(p, d, r, D)
        scale, u = a / rest, n * a
    lead, denom = 1.0 - 2.0 * mu - u, rest - u
    near = 0.015625 * rest
    # denom >= lead, so lead >= near clears both windows in one compare.
    if lead < near and (-near < lead or -near < denom < near):
        # Both factors over one common denominator; int / int rounds once.
        m1, m2 = mu.as_integer_ratio()
        d1, d2 = d.as_integer_ratio()
        if regime == "noiseless":
            unit, u_top = m2 * d2, n * r * d1 * m2
        else:
            p1, p2 = p.as_integer_ratio()
            unit, u_top = m2 * p1 * d2, n * (p2 - p1) * d1 * r * D * m2
        mu_top = m1 * (unit // m2)
        lead, denom = (unit - 2 * mu_top - u_top) / unit, (unit - mu_top - u_top) / unit
    return _sigma(mu, n), scale, u, lead, denom, ("RegimeInvalid",) if denom <= 0.0 else ()


def _tail_epsilon(scale: float, u: float, lead: float, denom: float, mu: float, c: float) -> float:
    """The (epsilon, delta) budget at cutoff c from its coefficients:
    scale [ lead c^2 / (2 mu denom) + c + u/2 ]; at the pole, -inf (0 at a
    zero scale)."""
    if denom == 0.0:
        return -math.inf if scale > 0.0 else 0.0
    return scale * (lead * c * c / (2.0 * mu * denom) + c + u / 2.0)


def _flags(flags: tuple, eps: float, delta=None) -> tuple:
    """One point's flags, in the kernels' order: DeltaExceedsOne or
    DeltaUnderflow from a tail budget's delta, then `flags`, then Divergent
    when eps is not a finite, nonnegative budget."""
    if delta is not None and (delta > 1.0 or delta == 0.0):
        flags = ("DeltaExceedsOne" if delta > 1.0 else "DeltaUnderflow", *flags)
    # Divergent marks any epsilon a caller must not trust as a budget.
    return flags if 0.0 <= eps < math.inf else (*flags, "Divergent")


def _flag_column(flags: tuple, epsilons: list, deltas=None):
    """`_flags` over a block of points that share `flags`: `repeat(flags)`
    when no point fires a rule, else each point's flags. A sum is finite
    only when every term is, so one test clears inf and nan; a sum that
    overflows sends the block point by point, which is slower, not wrong."""
    if 0.0 <= min(epsilons) and math.isfinite(sum(epsilons)) and (deltas is None or 0.0 < min(deltas) <= max(deltas) <= 1.0):
        return repeat(flags, len(epsilons))
    return list(map(_flags, repeat(flags), epsilons, repeat(None) if deltas is None else deltas))


def _pure(regime: str, d, r, n, mu, p, D, c=None, delta=None, paper=True) -> tuple:
    """Pure budget kernel: `_pure_coefficients`, then `_pure_epsilon` at n;
    returns (epsilon, 0.0, c, flags).

    Takes the same arguments as `_tail`, so that a caller can hold either;
    delta and paper are unused and c passes through.
    """
    scale, quadratic, flags = _pure_coefficients(regime, d, r, mu, p, D)
    eps = _pure_epsilon(scale, quadratic, mu, n)
    return eps, 0.0, c, _flags(flags, eps)


def _tail(regime: str, d, r, n, mu, p, D, c, delta, paper=True) -> tuple:
    """(epsilon, delta) budget kernel: `_tail_coefficients`, the cutoff or
    the tail mass, then `_tail_epsilon` at c; returns (epsilon, delta, c,
    flags). Exactly one of c and delta is given, and the other is derived
    through the Gaussian tail formula.

    For mu from 1e-100, every finite epsilon is within 5e-14 S of the
    formula evaluated exactly on the same float inputs at the returned c,
    where S is the scale times the sum of the bracket terms' magnitudes
    (2.7e-14 S was the worst measured, just outside the exact window).
    """
    sigma, scale, u, lead, denom, flags = _tail_coefficients(regime, d, r, n, mu, p, D)
    if c is None:
        c = _cutoff(delta, sigma, paper)
    else:
        delta = _tail_mass(c, sigma, paper)
    eps = _tail_epsilon(scale, u, lead, denom, mu, c)
    return eps, delta, c, _flags(flags, eps, delta)


def _arguments(kernel, regime: str, inp: BudgetInputs, convention: str = "paper") -> list:
    """The kernel's arguments from a checked bundle, after the checks that
    depend on the budget: a known regime, p and D under depolarizing noise,
    and exactly one of c and delta for a tail budget."""
    if regime not in ("noiseless", "depolarizing"):
        raise BadConfigError(f"BadConfig: unknown regime {regime!r}")
    if regime == "depolarizing" and (inp.p is None or inp.D is None):
        raise BadConfigError("BadConfig: depolarizing regime needs both p and D")
    if kernel is _tail and (inp.c is None) == (inp.delta is None):
        raise BadConfigError("BadConfig: supply exactly one of c and delta")
    return [*inp, check_convention(convention)]


def _evaluate(kernel, regime: str, inp: BudgetInputs, convention: str = "paper") -> PrivacyReport:
    """Checked bundle -> kernel -> report, whose inputs carry a derived c.

    The echo is a copy of the checked bundle with c set; `_replace` skips
    the validators, since the other fields are already checked and a
    derived c is a positive, finite float.
    """
    epsilon, delta, c, flags = kernel(regime, *_arguments(kernel, regime, inp, convention))
    if c is not inp.c:
        inp = inp._replace(c=c)
    return PrivacyReport(epsilon, delta, flags, inp)


def epsilon_noiseless(inp: BudgetInputs) -> PrivacyReport:
    """Pure-epsilon budget for a noiseless circuit.

        eps = (d r / ((1-mu) mu)) [ (9/2)(1-2mu) + (3/2) sqrt(n)
                                    + d r (mu + d r) n / (1-mu) ]

    The first bracket term goes negative for mu > 1/2; the report flags
    that regime rather than adjusting the value. Every finite epsilon,
    flagged or not, is within 1e-14 S of the formula evaluated exactly on
    the same float inputs, where S is the scale d r / ((1-mu) mu) times
    the sum of the bracket terms' magnitudes; where the terms cancel
    (mu > 1/2), that bound is absolute, not relative to epsilon.
    """
    return _evaluate(_pure, "noiseless", inp)


def epsilon_depolarizing(inp: BudgetInputs) -> PrivacyReport:
    """Pure-epsilon budget under depolarizing noise.

    With a = ((1-p)/p) d r D,

        eps = (a / (1-mu)) [ (9/2)(1-2mu) + (3/2) sqrt(n)
                             + a mu^2 (1+a) n / (1-mu) ]

    As in the noiseless budget, every finite epsilon, flagged or not, is
    within 1e-14 S of the formula evaluated exactly on the same float
    inputs, where S is the scale a / (1-mu) times the sum of the bracket
    terms' magnitudes.
    """
    return _evaluate(_pure, "depolarizing", inp)


def epsilon_delta_noiseless(inp: BudgetInputs, convention: str = "paper") -> PrivacyReport:
    """(epsilon, delta) budget for a noiseless circuit with tail cutoff c.

        eps = (n d r / (mu (1-mu))) [ (1 - 2mu - n d r) c^2 / (2 mu (1 - mu - n d r))
                                      + c + n d r / 2 ]

    Supply exactly one of `c` and `delta`; the other is derived through the
    Gaussian tail formula. The report flags RegimeInvalid once n d r
    reaches 1 - mu (the bracket's pole), DeltaExceedsOne when the paper
    convention pushes delta past 1, and DeltaUnderflow when a positive c
    gives a delta of 0.0 (the tail is below the smallest double); values
    are returned as computed. For mu from 1e-100, every finite epsilon is
    within 5e-14 S of the formula evaluated exactly on the same float
    inputs at the returned c, near the pole too, where S is the scale
    n d r / (mu (1-mu)) times the sum of the bracket terms' magnitudes.
    """
    return _evaluate(_tail, "noiseless", inp, convention)


def epsilon_delta_depolarizing(inp: BudgetInputs, convention: str = "paper") -> PrivacyReport:
    """(epsilon, delta) budget under depolarizing noise with tail cutoff c.

    With a = ((1-p)/p) d r D,

        eps = (a / (1-mu)) [ (1 - 2mu - n a) c^2 / (2 mu (1 - mu - n a))
                             + c + n a / 2 ]

    Same flag semantics as the noiseless variant, with the pole at
    1 - mu - n a. For mu from 1e-100, every finite epsilon is within
    5e-14 S of the formula evaluated exactly on the same float inputs at
    the returned c, near the pole too, where S is the scale a / (1-mu)
    times the sum of the bracket terms' magnitudes.
    """
    return _evaluate(_tail, "depolarizing", inp, convention)


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
    identically zero (nothing to bound: d = 0, or p = 1). Raises
    OutOfRangeError for a target that is not a real number (a bool is not),
    not positive or not finite, and for one whose answer is above the
    largest count `check_count` admits (the largest double): then the budget
    at that count is within the target.
    """
    if type(target_epsilon) is not float:
        target_epsilon = _real(target_epsilon, "target epsilon")
    if not 0.0 < target_epsilon < math.inf:
        raise OutOfRangeError(f"OutOfRange: target epsilon {target_epsilon} must be positive and finite")
    d, r, _, mu, p, dim = _arguments(_pure, regime, inp)[:6]
    scale, quadratic, _ = _pure_coefficients(regime, d, r, mu, p, dim)
    if scale == 0.0:
        raise BadConfigError("BadConfig: epsilon is identically zero, every shot count fits the budget")
    evaluate = partial(_pure_epsilon, scale, quadratic, mu)

    if evaluate(1) > target_epsilon:
        raise UnattainableError(f"Unattainable: epsilon({1}) = {evaluate(1):.6g} already exceeds {target_epsilon}")
    if evaluate(_LARGEST_COUNT) <= target_epsilon:
        raise OutOfRangeError(f"OutOfRange: target epsilon {target_epsilon} needs more shots than the largest "
                              f"count, {sys.float_info.max!r}")
    q = quadratic / (1.0 - mu)
    # c0 < 0, as epsilon(1) is within the target; the target's quotient by the
    # scale is finite, as the answer is below the largest count. Halving the
    # numerator and denominator, and sqrt(9/4 - 4 q c0) as hypot(3/2, 2 sqrt(-q c0)),
    # keep -2 c0 and q c0 from overflowing.
    c0 = 4.5 * (1.0 - 2.0 * mu) - target_epsilon / scale
    s = -c0 / (0.75 + 0.5 * math.hypot(1.5, 2.0 * math.sqrt(q) * math.sqrt(-c0)))
    # The root's square may round past the largest count, as may a step from it.
    square = min(s * s, sys.float_info.max)
    n = max(int(square), 1)
    # Shot counts that round to one double share a budget: past 2**53, step by their spacing.
    step = max(int(math.ulp(square)), 1)
    while evaluate(min(n + step, _LARGEST_COUNT)) <= target_epsilon:
        n += step
    while evaluate(n) > target_epsilon:
        n -= step
    return n
