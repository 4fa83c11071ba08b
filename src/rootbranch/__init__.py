"""Continuation of root branches of parametrized entire functions.

Given F(x, z), entire in z for each parameter x on an interval or finite
metric tree, and a seed root F(x0, z0) = 0, the solver tracks a continuous
branch w(x) with F(x, w(x)) = 0 as far as it extends, certifying each
parameter step by contour-integral zero counting, and classifies how the
continuation ends.
"""

from .contour import (
    Circle,
    MonicPoly,
    PowerSums,
    count_zeros,
    local_monic_factor,
    newton_to_coeffs,
    poly_roots,
    power_sums,
)
from .domain import DomainPoint, Edge, ParamDomain, PathSegment, SweepSegment
from .engine import (
    BranchSample,
    EngineConfig,
    RootBranch,
    Status,
    TerminationStatus,
    classify_termination,
    continue_branch,
    extend_segment,
    match_root,
    resample_branch,
)
from .errors import (
    CofactorVanishesError,
    DegenerateAtPointError,
    NoConvergenceError,
    NonFiniteError,
    NonIntegerWindingError,
    NoRadiusFoundError,
    NoZerosInDiskError,
    OutOfDomainError,
    ProblemSyntaxError,
    ProblemValidationError,
    SolverError,
    ZeroOnContourError,
)
from .expressions import (
    DegeneracyResult,
    EntireFunction,
    SeriesForm,
    degeneracy_probe,
    polish_root,
    polish_roots,
)
from .fixtures import Fixture, fixture_names, get_fixture, list_fixtures
from .localize import LocalFactorization, StepValidation, select_radius, validate_step
from .problem import ProblemSpec, build, parse_expression, parse_problem, render

__version__ = "0.1.0"

__all__ = [
    "BranchSample",
    "Circle",
    "CofactorVanishesError",
    "DegenerateAtPointError",
    "DegeneracyResult",
    "DomainPoint",
    "Edge",
    "EngineConfig",
    "EntireFunction",
    "Fixture",
    "LocalFactorization",
    "MonicPoly",
    "NoConvergenceError",
    "NonFiniteError",
    "NonIntegerWindingError",
    "NoRadiusFoundError",
    "NoZerosInDiskError",
    "OutOfDomainError",
    "ParamDomain",
    "PathSegment",
    "PowerSums",
    "ProblemSpec",
    "ProblemSyntaxError",
    "ProblemValidationError",
    "RootBranch",
    "SeriesForm",
    "Status",
    "StepValidation",
    "SolverError",
    "SweepSegment",
    "TerminationStatus",
    "ZeroOnContourError",
    "classify_termination",
    "continue_branch",
    "count_zeros",
    "degeneracy_probe",
    "extend_segment",
    "fixture_names",
    "get_fixture",
    "list_fixtures",
    "local_monic_factor",
    "match_root",
    "newton_to_coeffs",
    "parse_expression",
    "parse_problem",
    "poly_roots",
    "polish_root",
    "polish_roots",
    "power_sums",
    "build",
    "render",
    "resample_branch",
    "select_radius",
    "validate_step",
]
