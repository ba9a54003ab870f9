"""Boundary heat flux reconstruction for one-phase Stefan problems.

A truncated combination of caloric polynomials is fit to the interface
temperature, interface energy balance, and initial data of a melting
problem with known front position by integrated-residual collocation,
optionally with ridge-style damping.  The fitted combination's boundary
gradient recovers the unknown heating flux at x = 0.
"""

from .assembly import CollocationScheme, LinearSystem, assemble, preset_scheme
from .basis import HeatPolynomialBasis
from .errors import DomainError, NumericalError, SingularMatrixError
from .experiments import (AggregateRow, CellRecord, SolveReport, SweepGrid, SweepResult,
                          run_case, run_sweep)
from .metrics import delta_p, delta_u, flux_curve
from .noise import NoiseSpec
from .problem import (BenchmarkId, StefanProblem, benchmark_problem, example1, example2,
                      linear_boundary_problem, neumann_consistency, sqrt_boundary_problem)
from .solver import condition_number, penalty_weights, solve, solve_direct, solve_tikhonov

__version__ = "0.1.0"

__all__ = [
    "AggregateRow", "BenchmarkId", "CellRecord", "CollocationScheme", "DomainError",
    "HeatPolynomialBasis", "LinearSystem", "NoiseSpec", "NumericalError",
    "SingularMatrixError", "SolveReport", "StefanProblem", "SweepGrid", "SweepResult",
    "assemble", "benchmark_problem", "condition_number", "delta_p", "delta_u",
    "example1", "example2", "flux_curve", "linear_boundary_problem",
    "neumann_consistency", "penalty_weights", "preset_scheme", "run_case", "run_sweep",
    "solve", "solve_direct", "solve_tikhonov", "sqrt_boundary_problem",
]
