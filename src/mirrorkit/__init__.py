"""mirrorkit: stochastic mirror descent with numerically certified identities.

The package provides the algebraic substrate (potentials, losses, Bregman
divergences), the iteration engines (SMD, with SGD as its squared-L2 case, and
symmetric SMD), exponential-family samplers, a step-level identity auditor, and
desk-scale experiments for the optimality properties these algorithms carry.
"""

from .audit import (
    AuditRecord,
    MinimaxReport,
    audit_trajectory,
    energy_gain,
    exponent_identity_residual,
    local_identity,
    step_exponent_residual,
)
from .bregman import bregman, complete_squares, law_of_cosines_residual
from .config import ExperimentConfig, make_config, parse_config
from .descent import (
    Constant,
    GeneralizedLinear,
    Linear,
    RobbinsMonro,
    Trajectory,
    convexity_margin,
    iterate,
    persistent_excitation,
    run_general_recursion,
)
from .errors import (
    ArtifactError,
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DomainError,
    GridError,
    MirrorkitError,
    ParseError,
    RankError,
    ScheduleError,
    StepCapError,
    ValidationError,
)
from .experiments import (
    EstimatorCost,
    ImplicitRegReport,
    MsqReport,
    OracleSolution,
    RiskReport,
    SMDCost,
    SSMDCost,
    ScaledQuadratic,
    exponent_blowup_probe,
    implicit_reg_experiment,
    implicit_reg_oracle,
    msq_convergence,
    risk_compare,
    run_interpolating_descent,
)
from .losses import LogCosh, LossFn, Quadratic, Quartic, make_loss
from .potentials import NegEntropy, Potential, SeparableQ, SquaredL2
from .samplers import (
    ExpFamilySpec,
    MirrorMeanReport,
    RngStream,
    ks_two_sample,
    mirror_mean_check,
    sample_noise,
    sample_weight,
    sample_white_noise,
)

__version__ = "0.1.0"
