"""Input validation: the package's exception types and its parameter checks.

Every class subclasses :class:`ShotDPError` (itself a ``ValueError``), so
callers can catch the package's rejections generically while tests and the
command line can name the precise condition. Each scalar parameter has one
`check_*` validator below, which returns the value it accepted: real
parameters as a `float` (bools and non-numbers rejected), counts as an `int`.
"""

import math
import numbers
import operator


class ShotDPError(ValueError):
    """Base class for every validation failure raised by this package."""


class NotHermitianError(ShotDPError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(ShotDPError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class TraceNotOneError(ShotDPError):
    """Matrix trace differs from 1 beyond tolerance."""


class ColumnsNotOrthonormalError(ShotDPError):
    """Supplied column block is not an orthonormal family."""


class DimMismatchError(ShotDPError):
    """Operands act on spaces of different dimension."""


class AnchorCoincidesError(ShotDPError):
    """Anchor state is indistinguishable from the reference state."""


class DistanceTooLargeError(ShotDPError):
    """Requested trace distance exceeds what the anchor direction allows."""


class OutOfRangeError(ShotDPError):
    """Scalar parameter lies outside its admissible interval."""


class DegenerateMuError(ShotDPError):
    """Outcome probability of 0 or 1 leaves no randomness to work with."""


class ZeroNoiseError(ShotDPError):
    """Depolarizing probability 0 makes the noisy-regime constants diverge."""


class DeltaOutOfRangeError(OutOfRangeError):
    """Target delta is outside the invertible range of the tail formula."""


class UnattainableError(ShotDPError):
    """No shot count satisfies the requested budget."""


class IncompletePVMError(ShotDPError):
    """Projector family does not sum to the identity."""


class TooManyOutcomesError(ShotDPError):
    """Outcome count exceeds the exhaustive-subset audit limit."""


class PreconditionViolatedError(ShotDPError):
    """Inputs violate a documented precondition of the operation."""


class BadConfigError(ShotDPError):
    """Run configuration is malformed or inconsistent."""


def _real(value, name: str) -> float:
    """A real number as a `float`; bools and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRangeError(f"OutOfRange: {name} must be a real number, got {value!r}")
    return float(value)


def check_distance(d) -> float:
    """Trace distance d in [0, 1]."""
    if type(d) is not float:
        d = _real(d, "distance d")
    if not 0.0 <= d <= 1.0:
        raise OutOfRangeError(f"OutOfRange: distance d={d} outside [0, 1]")
    return d


def check_count(value, name: str, minimum: int = 1) -> int:
    """A count (r, n, D, trials, seed) of at least `minimum`, as an `int`:
    integral floats are converted, bools and fractions rejected."""
    if type(value) is int:
        count = value
    elif isinstance(value, bool):
        count = None
    elif isinstance(value, numbers.Integral):
        count = operator.index(value)
    elif isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer():
        count = int(value)
    else:
        count = None
    if count is None or count < minimum:
        raise OutOfRangeError(f"OutOfRange: {name} must be an integer >= {minimum}, got {value!r}")
    return count


def check_mean(mu, name: str = "mean mu", allow_endpoints: bool = False) -> float:
    """Outcome mean in (0, 1), or [0, 1] with `allow_endpoints`; an excluded
    endpoint leaves no variance and is DegenerateMu."""
    if type(mu) is not float:
        mu = _real(mu, name)
    if not 0.0 < mu < 1.0:
        if not 0.0 <= mu <= 1.0:
            raise OutOfRangeError(f"OutOfRange: {name}={mu} outside [0, 1]")
        if not allow_endpoints:
            raise DegenerateMuError(f"DegenerateMu: {name}={mu} leaves zero variance")
    return mu


def check_noise(p, allow_zero: bool = False) -> float:
    """Depolarizing probability in (0, 1]. The budgets' constants grow like
    1/p, so 0 is ZeroNoise unless `allow_zero` (a channel's identity map)."""
    if type(p) is not float:
        p = _real(p, "depolarizing probability p")
    if not 0.0 < p <= 1.0 and not (allow_zero and p == 0.0):
        if p == 0.0:
            raise ZeroNoiseError("ZeroNoise: depolarizing probability 0 gives an unbounded constant")
        raise OutOfRangeError(f"OutOfRange: depolarizing probability p={p} outside [0, 1]")
    return p


def check_cutoff(c) -> float:
    """Tail cutoff c, positive and finite."""
    if type(c) is not float:
        c = _real(c, "cutoff c")
    if not 0.0 < c < math.inf:
        raise OutOfRangeError(f"OutOfRange: cutoff c={c} must be positive and finite")
    return c


def check_delta(delta, supremum: float = math.inf) -> float:
    """Tail mass delta inside (0, supremum), so finite."""
    if type(delta) is not float:
        delta = _real(delta, "delta")
    if not 0.0 < delta < supremum:
        raise DeltaOutOfRangeError(f"DeltaOutOfRange: delta={delta} not inside (0, {supremum:.12g})")
    return delta


def check_convention(convention: str) -> bool:
    """Delta convention name; True for "paper", False for "normalized"."""
    if convention not in ("paper", "normalized"):
        raise BadConfigError(f"BadConfig: unknown convention {convention!r}")
    return convention == "paper"
