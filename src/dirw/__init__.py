"""Damped iteratively reweighted solvers for nonconvex sparse regularization.

The package solves min f(x) + lam * sum_i r(|x_i|) for concave penalties r
via damped reweighted l1/l2 fixed-point iterations, classifies the
stationary points it finds as strict local minima or strict saddles, and
verifies empirically that the iterations escape the saddles.
"""

from .errors import ConfigValidationError, NonStationaryPointError, NumericalFailure
from .regularizers import (
    CustomRegularizer,
    Regularizer,
    check_assumption1,
    check_assumption4,
)
from .problems import (
    BENCHMARK2D_SADDLE_X2,
    BENCHMARK2D_STATIONARY,
    Problem,
    SmoothTerm,
    benchmark2d,
    load_problem,
)
from .solvers import (
    SolverConfig,
    SolveTrace,
    run,
    soft_threshold,
    validate_config,
)
from .analysis import (
    SaddleReport,
    StationarityReport,
    classify_stationary_point,
    stationarity_residual,
    support,
    symmetric_eigen,
)
from .jacobians import (
    FixedPointJacobian,
    dirl1_jacobian,
    dirl2_jacobian,
    finite_difference_jacobian,
    saddle_unstable_equivalence,
    unstable_fixed_point_check,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK2D_SADDLE_X2",
    "BENCHMARK2D_STATIONARY",
    "ConfigValidationError",
    "CustomRegularizer",
    "FixedPointJacobian",
    "NonStationaryPointError",
    "NumericalFailure",
    "Problem",
    "Regularizer",
    "SaddleReport",
    "SmoothTerm",
    "SolveTrace",
    "SolverConfig",
    "StationarityReport",
    "benchmark2d",
    "check_assumption1",
    "check_assumption4",
    "classify_stationary_point",
    "dirl1_jacobian",
    "dirl2_jacobian",
    "finite_difference_jacobian",
    "load_problem",
    "run",
    "saddle_unstable_equivalence",
    "soft_threshold",
    "stationarity_residual",
    "support",
    "symmetric_eigen",
    "unstable_fixed_point_check",
    "validate_config",
]
