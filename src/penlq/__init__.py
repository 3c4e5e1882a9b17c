"""penlq: executable hardness reduction for concave-penalized L_q minimization.

The package turns 3-partition instances into concrete regularized
L_q-minimization problems whose near-optimal solutions decode back into
equal-sum partitions, and ships the machinery around that construction:
penalty families and their admissibility checks, the one-dimensional
surrogate analysis, desk-scale solvers, and the decoder.
"""

from .conditions import (
    ConditionReport,
    FuzzReport,
    SplitVerdict,
    check_conditions,
    classify_split,
    fuzz_concentration,
    fuzz_subadditivity,
    subadditive_bound_holds,
)
from .decode import Partition, RoundedSolution, decide, round_solution, to_partition, verify_equitable
from .errors import (
    ConditionViolationError,
    NondifferentiableError,
    PenlqError,
    ReductionInvariantError,
    RoundingFailureError,
    SizeGuardError,
)
from .gfun import (
    GAnalysis,
    GParams,
    GShapeReport,
    delta_bar,
    full_analysis,
    g_eval,
    lower_bounds,
    minimize_g,
    rationalize,
    verify_g_shape,
)
from .penalties import (
    FAMILIES,
    PenaltyAnalysis,
    PenaltySpec,
    analyze,
    bridge,
    clipped_l1,
    fraction,
    hard_threshold,
    kink_points,
    l0,
    linear,
    log_penalty,
    mcp,
    p_d1,
    p_d2,
    p_eval,
    piecewise_linear,
    scad,
)
from .reduction import (
    ProblemInstance,
    ReductionInstance,
    ThreePartitionInstance,
    build,
    encode_certificate,
    objective,
    optimal_bound,
)
from .solver import SolveResult, minimize_structured, solve

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "ConditionViolationError",
    "FAMILIES",
    "FuzzReport",
    "GAnalysis",
    "GParams",
    "GShapeReport",
    "NondifferentiableError",
    "Partition",
    "PenaltyAnalysis",
    "PenaltySpec",
    "PenlqError",
    "ProblemInstance",
    "ReductionInstance",
    "ReductionInvariantError",
    "RoundedSolution",
    "RoundingFailureError",
    "SizeGuardError",
    "SolveResult",
    "SplitVerdict",
    "ThreePartitionInstance",
    "analyze",
    "bridge",
    "build",
    "check_conditions",
    "classify_split",
    "clipped_l1",
    "decide",
    "delta_bar",
    "encode_certificate",
    "fraction",
    "full_analysis",
    "fuzz_concentration",
    "fuzz_subadditivity",
    "g_eval",
    "hard_threshold",
    "kink_points",
    "l0",
    "linear",
    "log_penalty",
    "lower_bounds",
    "mcp",
    "minimize_g",
    "minimize_structured",
    "objective",
    "optimal_bound",
    "p_d1",
    "p_d2",
    "p_eval",
    "piecewise_linear",
    "rationalize",
    "round_solution",
    "scad",
    "solve",
    "subadditive_bound_holds",
    "to_partition",
    "verify_equitable",
    "verify_g_shape",
]
