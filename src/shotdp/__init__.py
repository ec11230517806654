"""Privacy budgets for quantum measurements limited by shot noise.

A finite number n of projective measurement shots turns any pair of close
quantum states into a pair of close binomial laws over outcome frequencies.
This package evaluates closed-form (epsilon, delta) privacy budgets for that
mechanism, models the shot noise by its exact binomial law, and audits the
closed forms against exact binomial oracles. The per-count log ratio of two
binomial laws is affine in the count, so the exact epsilon is a closed form
and the exact delta the difference of two binomial tails past a short
direct sum; the brute-force versions live in the tests as references.

Modules:
    states    density matrices, projectors, channels, trace distance
    shots     the binomial outcome law, likelihood ratios, sampling
    binomial  the exact epsilon and hockey-stick delta, one count at a time
    budget    closed-form privacy budgets and tail-cutoff conversions
    audit     dominance audits, Monte Carlo confirmation, and the exact
              oracles of `binomial` under their public names
    cli       compute / sweep / figures / audit commands

`budget` and `errors` import only the standard library and load with the
package. `binomial` imports only the standard library too, and loads on
first use of one of its names; `states`, `shots` and `audit` use numpy and
load on first use of one of theirs.
"""

from importlib import import_module

from .budget import (
    BudgetInputs,
    PrivacyReport,
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
from .errors import (
    AnchorCoincidesError,
    BadConfigError,
    ColumnsNotOrthonormalError,
    DegenerateMuError,
    DeltaOutOfRangeError,
    DimMismatchError,
    DistanceTooLargeError,
    IncompletePVMError,
    IterationCapError,
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
    PreconditionViolatedError,
    ShotDPError,
    TraceNotOneError,
    UnattainableError,
    ZeroNoiseError,
)
# These submodules load on first use, so `import shotdp` and the budget
# commands load neither numpy nor the exact oracles. Each name below maps to
# the submodule that defines it, and each submodule to itself.
_LAZY = {
    name: module
    for module, names in {
        "audit": (
            "AuditReport", "MinExpectation", "dominance_audit", "min_expectation", "monte_carlo_audit", "qdp_check",
        ),
        "binomial": ("exact_epsilon", "hockey_stick_delta"),
        "shots": (
            "binomial_distribution", "log_binomial_pmf", "log_likelihood_ratio", "sample_means",
        ),
        "states": (
            "Channel", "DensityMatrix", "Projector", "apply_channel", "basis_columns", "basis_state",
            "complement_projector", "depolarizing_channel", "expectation", "identity_channel", "make_density",
            "make_projector", "maximally_mixed", "neighbor_state", "trace_distance",
        ),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    """Import the submodule behind a lazy name (PEP 562) and cache the name here."""
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{submodule}", __name__)
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "AnchorCoincidesError",
    "AuditReport",
    "BadConfigError",
    "BudgetInputs",
    "Channel",
    "ColumnsNotOrthonormalError",
    "DegenerateMuError",
    "DeltaOutOfRangeError",
    "DensityMatrix",
    "DimMismatchError",
    "DistanceTooLargeError",
    "IncompletePVMError",
    "IterationCapError",
    "MinExpectation",
    "NotHermitianError",
    "NotPSDError",
    "OutOfRangeError",
    "PreconditionViolatedError",
    "PrivacyReport",
    "Projector",
    "ShotDPError",
    "TraceNotOneError",
    "UnattainableError",
    "ZeroNoiseError",
    "apply_channel",
    "basis_columns",
    "basis_state",
    "binomial_distribution",
    "c_from_delta",
    "complement_projector",
    "delta_from_c",
    "depolarizing_channel",
    "depolarizing_constant",
    "dominance_audit",
    "epsilon_delta_depolarizing",
    "epsilon_delta_noiseless",
    "epsilon_depolarizing",
    "epsilon_noiseless",
    "exact_epsilon",
    "expectation",
    "expectation_ratio_bound",
    "hockey_stick_delta",
    "identity_channel",
    "log_binomial_pmf",
    "log_likelihood_ratio",
    "make_density",
    "make_projector",
    "maximally_mixed",
    "min_expectation",
    "monte_carlo_audit",
    "neighbor_state",
    "qdp_check",
    "sample_means",
    "shots_for_budget",
    "trace_distance",
]
