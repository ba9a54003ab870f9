"""Parameter sweeps over order, damping, noise level, seed, and horizon.

Each grid cell runs one assemble/solve/measure cycle.  Failures never abort
a sweep; they become records with an error tag and nan metrics.  Cells are
keyed and emitted in a fixed deterministic order so repeated runs (and
worker pools of any size) produce identical results.
"""

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import CollocationScheme, assemble, preset_scheme, residual
from .basis import HeatPolynomialBasis
from .errors import NumericalError, SingularMatrixError
from .metrics import error_report
from .noise import NoiseSpec, perturb_stefan_data
from .problem import BenchmarkId, benchmark_problem
from .solver import SolveConfig, condition_number, solve

__all__ = ["SolveReport", "SweepGrid", "CellRecord", "AggregateRow", "SweepResult",
           "run_case", "run_sweep", "horizon_study", "noise_study", "degradation_ratios"]


@dataclass(frozen=True)
class SolveReport:
    """Everything a single reconstruction produces."""

    coefficients: tuple
    scheme: CollocationScheme
    beta: float
    condition_number: float
    residual_norm: float
    relative_residual: float
    delta_p: float
    delta_u: float
    max_abs_flux_error: float
    flux_curve: tuple


def run_case(problem, order, beta=0.0, scheme=None, quadrature_order=16,
             noise=None, flux_samples=101):
    """Assemble, solve, and measure one reconstruction.

    noise is an optional NoiseSpec; beta = 0 selects the direct solver and
    beta > 0 the damped normal equations.
    """
    basis = HeatPolynomialBasis(problem.diffusivity, order)
    if scheme is None:
        scheme = preset_scheme(order, quadrature_order)
    stefan_data = None
    if noise is not None and noise.level > 0.0:
        stefan_data = perturb_stefan_data(problem, noise)
    system = assemble(problem, basis, scheme, stefan_data)
    coeffs = solve(system, SolveConfig(float(beta), "direct" if beta == 0.0 else "tikhonov"))
    res_norm = float(np.linalg.norm(residual(system, coeffs)))
    rhs_norm = float(np.linalg.norm(system.rhs))
    errors = error_report(coeffs, problem, basis, samples=flux_samples)
    return SolveReport(
        coefficients=tuple(float(c) for c in coeffs),
        scheme=scheme,
        beta=float(beta),
        condition_number=condition_number(system, beta),
        residual_norm=res_norm,
        relative_residual=res_norm / rhs_norm if rhs_norm else float("inf"),
        delta_p=errors.delta_p,
        delta_u=errors.delta_u,
        max_abs_flux_error=errors.max_abs_flux_error,
        flux_curve=errors.flux_curve)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian cell grid over orders x betas x noise levels x seeds x horizons."""

    orders: tuple
    betas: tuple = (0.0,)
    noise_levels: tuple = (0.0,)
    seeds: tuple = (0,)
    horizons: tuple = (1.0,)
    benchmark: BenchmarkId = BenchmarkId.EXAMPLE1
    scheme_override: Optional[CollocationScheme] = None
    noise_mode: str = "relative"
    quadrature_order: int = 16

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "noise_levels", tuple(float(e) for e in self.noise_levels))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "horizons", tuple(float(t) for t in self.horizons))
        object.__setattr__(self, "benchmark", BenchmarkId(self.benchmark))
        for name in ("orders", "betas", "noise_levels", "seeds", "horizons"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if any(n < 2 for n in self.orders):
            raise ValueError("orders below 2 cannot carry all three condition families")
        if any(b < 0 for b in self.betas):
            raise ValueError("betas must be >= 0")
        if any(e < 0 for e in self.noise_levels):
            raise ValueError("noise levels must be >= 0")
        if any(t <= 0 for t in self.horizons):
            raise ValueError("horizons must be positive")

    def cells(self):
        """Cell tuples in the fixed deterministic emission order."""
        return list(itertools.product(self.horizons, self.orders, self.betas,
                                      self.noise_levels, self.seeds))


@dataclass(frozen=True)
class CellRecord:
    """Outcome of one grid cell; error is None on success."""

    benchmark: str
    order: int
    beta: float
    noise_level: float
    seed: int
    horizon: float
    delta_p: float
    delta_u: float
    condition_number: float
    residual_norm: float
    wall_time: float = field(compare=False)
    error: Optional[str] = None


@dataclass(frozen=True)
class AggregateRow:
    """Per-(order, beta, level, horizon) medians across seeds."""

    benchmark: str
    order: int
    beta: float
    noise_level: float
    horizon: float
    seed_count: int
    delta_p_median: float
    delta_p_iqr: float
    delta_u_median: float
    condition_number: float
    failures: int


def _error_tag(exc):
    if isinstance(exc, SingularMatrixError):
        return "singular_matrix"
    if isinstance(exc, NumericalError):
        return "numerical_error"
    return "domain_error"


def _evaluate_cell(task):
    grid, cell = task
    horizon, order, beta, level, seed = cell
    start = time.perf_counter()
    try:
        problem = benchmark_problem(grid.benchmark, horizon)
        noise = NoiseSpec(level, seed, grid.noise_mode) if level > 0.0 else None
        report = run_case(problem, order, beta=beta, scheme=grid.scheme_override,
                          quadrature_order=grid.quadrature_order, noise=noise)
        return CellRecord(
            benchmark=grid.benchmark.value, order=order, beta=beta, noise_level=level,
            seed=seed, horizon=horizon, delta_p=report.delta_p, delta_u=report.delta_u,
            condition_number=report.condition_number, residual_norm=report.residual_norm,
            wall_time=time.perf_counter() - start)
    except (ValueError, NumericalError, FloatingPointError, OverflowError) as exc:
        nan = float("nan")
        return CellRecord(
            benchmark=grid.benchmark.value, order=order, beta=beta, noise_level=level,
            seed=seed, horizon=horizon, delta_p=nan, delta_u=nan, condition_number=nan,
            residual_norm=nan, wall_time=time.perf_counter() - start,
            error=_error_tag(exc))


@dataclass
class SweepResult:
    """Cell records in grid order plus aggregation helpers."""

    grid: SweepGrid
    records: list

    def aggregate(self):
        """Medians and IQR across seeds per (order, beta, level, horizon) cell group."""
        groups = {}
        order_seen = []
        for rec in self.records:
            key = (rec.order, rec.beta, rec.noise_level, rec.horizon)
            if key not in groups:
                groups[key] = []
                order_seen.append(key)
            groups[key].append(rec)
        rows = []
        for key in order_seen:
            recs = groups[key]
            ok = [r for r in recs if r.error is None]
            nan = float("nan")
            rows.append(AggregateRow(
                benchmark=recs[0].benchmark,
                order=key[0], beta=key[1], noise_level=key[2], horizon=key[3],
                seed_count=len(recs),
                delta_p_median=float(np.median([r.delta_p for r in ok])) if ok else nan,
                delta_p_iqr=float(np.subtract(*np.percentile(
                    [r.delta_p for r in ok], [75, 25]))) if ok else nan,
                delta_u_median=float(np.median([r.delta_u for r in ok])) if ok else nan,
                condition_number=float(np.median(
                    [r.condition_number for r in ok])) if ok else nan,
                failures=len(recs) - len(ok)))
        return rows

    def lookup(self, order, beta=0.0, noise_level=0.0, horizon=1.0):
        """Aggregate row for one cell group."""
        for row in self.aggregate():
            if (row.order == order and row.beta == beta
                    and row.noise_level == noise_level and row.horizon == horizon):
                return row
        raise KeyError(f"no cell group ({order}, {beta}, {noise_level}, {horizon})")


def run_sweep(grid, jobs=1):
    """Run every cell of the grid, optionally on a process pool."""
    tasks = [(grid, cell) for cell in grid.cells()]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_evaluate_cell, tasks, chunksize=4))
    else:
        records = [_evaluate_cell(task) for task in tasks]
    return SweepResult(grid=grid, records=records)


def horizon_study(benchmark, horizons, orders, jobs=1):
    """Clean sweep over time horizons; pair with degradation_ratios."""
    grid = SweepGrid(orders=tuple(orders), horizons=tuple(horizons),
                     benchmark=benchmark)
    return run_sweep(grid, jobs=jobs)


def degradation_ratios(result, reference_horizon=1.0):
    """Map (order, horizon) -> delta_p(horizon) / delta_p(reference_horizon)."""
    rows = result.aggregate()
    refs = {}
    for row in rows:
        if row.horizon == reference_horizon:
            refs[(row.order, row.beta, row.noise_level)] = row.delta_p_median
    ratios = {}
    for row in rows:
        ref = refs.get((row.order, row.beta, row.noise_level))
        if ref:
            ratios[(row.order, row.horizon)] = row.delta_p_median / ref
    return ratios


def noise_study(benchmark, orders, betas, levels, seeds, jobs=1):
    """Noisy sweep at horizon 1; aggregate() gives medians and IQR per cell."""
    grid = SweepGrid(orders=tuple(orders), betas=tuple(betas),
                     noise_levels=tuple(levels), seeds=tuple(seeds),
                     benchmark=benchmark)
    return run_sweep(grid, jobs=jobs)
