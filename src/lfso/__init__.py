"""Gradient descent with stepsizes from a local first-order smoothness
oracle, concrete oracle constructors for structured problem families, and
an executable verification suite."""

from .core import (GradientOracle, IterationRecord, Lfso, RPolicy, RunTrace,
                   SolverConfig, Termination, Vector, as_vector,
                   euclidean_norm, run_fixed_gd, run_lfso_gd)
from .errors import (AssumptionUnmetError, InsufficientDataError, LfsoError,
                     MissingDiagnosticsError, NegativeCurvatureError,
                     NoConvergenceWarning, NonFiniteValueError,
                     ShapeMismatchError, ZeroOracleError, ZeroResidualError)
from .oracles import (ConstantLfsoParams, composition_lfso, constant_lfso,
                      hessian_lipschitz_lfso, lp_regression_lfso)
from .problems import (CompositionProblem, LpRegressionProblem,
                       QuarticProblem, condition_number, load_regression_data,
                       make_lp_regression, make_norm_power,
                       regression_constants, residual_iterate, spectral_norm)
from .verify import (CheckReport, RateFit, SampleSpec, check_composition_run,
                     check_holder, check_lfso_validity, check_monotone_in_R,
                     check_quartic_threshold, check_regression_qlinear,
                     check_trace, classify_rate, fit_linear_rate,
                     fit_powerlaw_rate, quartic_containment_threshold)

__version__ = "0.1.0"

__all__ = [
    "AssumptionUnmetError", "CheckReport", "CompositionProblem",
    "ConstantLfsoParams", "GradientOracle", "InsufficientDataError",
    "IterationRecord", "Lfso", "LfsoError", "LpRegressionProblem",
    "MissingDiagnosticsError", "NegativeCurvatureError",
    "NoConvergenceWarning", "NonFiniteValueError", "QuarticProblem",
    "RPolicy", "RateFit", "RunTrace", "SampleSpec", "ShapeMismatchError",
    "SolverConfig", "Termination", "Vector", "ZeroOracleError",
    "ZeroResidualError", "as_vector",
    "check_composition_run", "check_holder", "check_lfso_validity",
    "check_monotone_in_R", "check_quartic_threshold",
    "check_regression_qlinear", "check_trace", "classify_rate",
    "composition_lfso", "condition_number", "constant_lfso",
    "euclidean_norm", "fit_linear_rate", "fit_powerlaw_rate",
    "hessian_lipschitz_lfso", "load_regression_data", "lp_regression_lfso",
    "make_lp_regression", "make_norm_power",
    "quartic_containment_threshold", "regression_constants",
    "residual_iterate", "run_fixed_gd", "run_lfso_gd", "spectral_norm",
]
