"""Boundary heat flux reconstruction for one-phase Stefan problems.

A truncated combination of caloric polynomials is fit to the interface
temperature, interface energy balance, and initial data of a melting
problem with known front position by integrated-residual collocation,
optionally with ridge-style damping.  The fitted combination's boundary
gradient recovers the unknown heating flux at x = 0.
"""

from .assembly import CollocationScheme, LinearSystem, assemble, preset_scheme, residual
from .basis import HeatPolynomialBasis
from .errors import DomainError, NumericalError, SingularMatrixError
from .experiments import (AggregateRow, CellRecord, SolveReport, SweepGrid, SweepResult,
                          degradation_ratios, horizon_study, noise_study, run_case,
                          run_sweep)
from .metrics import (ErrorReport, coefficient_decay, delta_p, delta_u, error_report,
                      flux_curve)
from .noise import NoiseSpec, perturb_stefan_data
from .problem import (BenchmarkId, StefanProblem, benchmark_problem, example1, example2,
                      linear_boundary_problem, neumann_consistency, sqrt_boundary_problem)
from .solver import (
    SolveConfig,
    condition_number,
    penalty_weights,
    solve,
    solve_direct,
    solve_tikhonov,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow", "BenchmarkId", "CellRecord", "CollocationScheme", "DomainError",
    "ErrorReport", "HeatPolynomialBasis", "LinearSystem", "NoiseSpec", "NumericalError",
    "SingularMatrixError", "SolveConfig", "SolveReport", "StefanProblem", "SweepGrid",
    "SweepResult", "assemble", "benchmark_problem", "coefficient_decay",
    "condition_number", "degradation_ratios", "delta_p", "delta_u", "error_report",
    "example1", "example2", "flux_curve", "horizon_study", "linear_boundary_problem",
    "neumann_consistency", "noise_study", "perturb_stefan_data", "preset_scheme",
    "penalty_weights", "residual", "run_case", "run_sweep", "solve", "solve_direct",
    "solve_tikhonov",
    "sqrt_boundary_problem",
]
