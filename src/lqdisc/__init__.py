"""Exact discrete equivalents of sampled linear-quadratic tracking problems.

The library turns a continuous-time linear system with a quadratic
tracking cost and piecewise-constant inputs into its exact discrete
counterpart (transition, input map, cost weights, noise covariance),
solves the resulting finite-horizon problem, and characterizes the
distribution of the stochastic cost both in closed form and by
simulation.
"""

from .butcher import SCHEMES, ButcherTableau, tableau
from .doubling import discretize_step_doubling
from .errors import (
    ConvexityError,
    DivergenceError,
    IllConditionedError,
    LqdiscError,
    NormOverflowError,
    ResourceLimitError,
    SingularMatrixError,
    ValidationError,
)
from .expm_method import discretize_expm
from .linalg import expm, is_psd, symmetrize
from .lqsolve import LqSolution, solve_finite_horizon
from .model import (
    ContinuousLqModel,
    DiscreteLqModel,
    TrackingSpec,
    build_stacked_model,
    continuous_model_from_dict,
    continuous_model_to_dict,
    discrete_model_from_dict,
    discrete_model_to_dict,
)
from .ode_method import discretize_ode
from .oracle import OracleConfig, oracle_cost, oracle_discretize
from .stochastic import (
    EmReformulation,
    McSummary,
    cost_moments,
    cost_moments_streaming,
    em_interval_ops,
    em_reformulate,
    expected_costs,
    monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "SCHEMES",
    "ButcherTableau",
    "ContinuousLqModel",
    "ConvexityError",
    "DiscreteLqModel",
    "DivergenceError",
    "EmReformulation",
    "IllConditionedError",
    "LqSolution",
    "LqdiscError",
    "McSummary",
    "NormOverflowError",
    "OracleConfig",
    "ResourceLimitError",
    "SingularMatrixError",
    "TrackingSpec",
    "ValidationError",
    "build_stacked_model",
    "continuous_model_from_dict",
    "continuous_model_to_dict",
    "cost_moments",
    "cost_moments_streaming",
    "discrete_model_from_dict",
    "discrete_model_to_dict",
    "discretize_expm",
    "discretize_ode",
    "discretize_step_doubling",
    "em_interval_ops",
    "em_reformulate",
    "expected_costs",
    "expm",
    "is_psd",
    "monte_carlo",
    "oracle_cost",
    "oracle_discretize",
    "solve_finite_horizon",
    "symmetrize",
    "tableau",
    "__version__",
]
