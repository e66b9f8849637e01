"""Solvers for three-component elliptic systems under the partial
segregation constraint u1*u2*u3 = 0 on a rectangle.

Two solver families are provided: penalization of the squared product with
damped Picard / Gauss-Seidel sweeps and epsilon-continuation, and projected
gradient descent (plain and accelerated) built on the exact pointwise
projection onto the segregation set.  Supporting modules supply the grid
operators, benchmark boundary data, interface extraction, and diagnostics.
"""

__version__ = "0.1.0"

from .boundary import (
    BUILTIN_IDS,
    BoundaryConfig,
    BoundaryTrace,
    builtin_config,
    evaluate_bc,
    sup_bound,
    trace_from_csv,
    validate_segregation,
)
from .contours import ContourSet, contours_to_csv, extract_contours, render_svg
from .diagnostics import RegionSpec, ScalingStudy, build_region_mask, run_scaling_study
from .grid import (
    Grid,
    RegionMask,
    ScalarField,
    SystemState,
    apply_laplacian,
    build_grid,
    dirichlet_energy,
    l2_diff,
    product_violation,
    region_mean,
)
from .linear_solver import (
    HelmholtzProblem,
    dense_oracle_solve,
    harmonic_extension,
    solve_helmholtz,
)
from .penalty import (
    PenaltyConfig,
    gauss_seidel_step,
    phase_field_step,
    picard_step,
    run_penalty,
    semi_implicit_step,
)
from .projected_gradient import FistaConfig, PgdConfig, fista_run, pgd_run
from .projection import project_point
from .reporting import SolveReport

__all__ = [
    "__version__",
    "Grid",
    "ScalarField",
    "SystemState",
    "RegionMask",
    "build_grid",
    "apply_laplacian",
    "dirichlet_energy",
    "product_violation",
    "region_mean",
    "l2_diff",
    "BoundaryConfig",
    "BoundaryTrace",
    "BUILTIN_IDS",
    "builtin_config",
    "evaluate_bc",
    "validate_segregation",
    "sup_bound",
    "trace_from_csv",
    "HelmholtzProblem",
    "solve_helmholtz",
    "harmonic_extension",
    "dense_oracle_solve",
    "PenaltyConfig",
    "picard_step",
    "gauss_seidel_step",
    "semi_implicit_step",
    "phase_field_step",
    "run_penalty",
    "project_point",
    "PgdConfig",
    "FistaConfig",
    "pgd_run",
    "fista_run",
    "ContourSet",
    "extract_contours",
    "render_svg",
    "contours_to_csv",
    "RegionSpec",
    "ScalingStudy",
    "build_region_mask",
    "run_scaling_study",
    "SolveReport",
]
