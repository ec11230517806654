"""Privacy budgets for quantum measurements limited by shot noise.

A finite number n of projective measurement shots turns any pair of close
quantum states into a pair of close binomial laws over outcome frequencies.
This package evaluates closed-form (epsilon, delta) privacy budgets for that
mechanism, models the shot noise exactly and through its normal limit, and
audits the closed forms against exact binomial oracles. The per-count log
ratio of two binomial laws is affine in the count, so the exact epsilon is
a closed form and the exact delta one sum over counts; the brute-force
versions live in the tests as references.

Modules:
    states  density matrices, projectors, channels, trace distance
    shots   binomial and normal outcome models, likelihood ratios, sampling
    budget  closed-form privacy budgets and tail-cutoff conversions
    audit   exact oracles, dominance audits, Monte Carlo confirmation
    cli     compute / sweep / figures / audit commands
"""

from .audit import (
    AuditReport,
    MinExpectation,
    dominance_audit,
    exact_epsilon,
    hockey_stick_delta,
    min_expectation,
    monte_carlo_audit,
    qdp_check,
)
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
    erfc,
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
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
    PreconditionViolatedError,
    ShotDPError,
    TooManyOutcomesError,
    TraceNotOneError,
    UnattainableError,
    ZeroNoiseError,
)
from .shots import (
    NormalModel,
    OutcomeDistribution,
    binomial_distribution,
    log_binomial_pmf,
    log_likelihood_ratio,
    normal_model,
    sample_means,
    single_shot_variance,
)
from .states import (
    Channel,
    DensityMatrix,
    Projector,
    apply_channel,
    basis_columns,
    basis_state,
    complement_projector,
    depolarizing_channel,
    expectation,
    identity_channel,
    make_density,
    make_projector,
    maximally_mixed,
    neighbor_state,
    overlap_gap,
    trace_distance,
)

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
    "MinExpectation",
    "NormalModel",
    "NotHermitianError",
    "NotPSDError",
    "OutOfRangeError",
    "OutcomeDistribution",
    "PreconditionViolatedError",
    "PrivacyReport",
    "Projector",
    "ShotDPError",
    "TooManyOutcomesError",
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
    "erfc",
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
    "normal_model",
    "overlap_gap",
    "qdp_check",
    "sample_means",
    "shots_for_budget",
    "single_shot_variance",
    "trace_distance",
]
