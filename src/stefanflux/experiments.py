"""Parameter sweeps over order, damping, noise level, seed, and horizon.

A sweep runs one group at a time: the cells sharing (horizon, order), which
the grid emits contiguously.  A group builds its problem, basis, scheme and
clean system once, its error-functional grids at its first solve, and keeps
each seed's noise draws and each beta's condition number; a cell only rebuilds
a noisy right-hand side, solves and sums.  Memory holds one group; run_case is
a group of one cell.

Failures become records with an error tag and nan metrics: all cells of a
group that fails to build, or one cell.  wall_time is a cell's own time (the
first solved cell's includes the grids) plus an equal share of its group's
build.  Cells come in a fixed order and pools spread whole groups, so reruns
and pools of any size give identical results.
"""

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import (CollocationScheme, assemble, preset_scheme, residual, stefan_nodes,
                       with_stefan_data)
from .basis import HeatPolynomialBasis
from .errors import DomainError, NumericalError, SingularMatrixError
from .metrics import _delta_p_on, _delta_u_on, flux_curve
from .noise import MODES, NoiseSpec, check_seed, scale_draws, standard_draws
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


class _Group:
    """What the cells of one (problem, order, scheme) share, built once."""

    def __init__(self, problem, order, scheme=None, quadrature_order=16):
        self.problem = problem
        self.basis = HeatPolynomialBasis(problem.diffusivity, order)
        self.scheme = scheme if scheme is not None else preset_scheme(order, quadrature_order)
        self.system = assemble(problem, self.basis, self.scheme)
        self.nodes = self.delta_p = self.delta_u = None
        self.draws, self.conds = {}, {}

    def evaluate(self, beta, noise=None):
        """One cell's delta_p, delta_u, condition number, residual norm, coefficients, system."""
        system = self.system
        if noise is not None and noise.level > 0.0:
            if self.nodes is None:
                self.nodes = stefan_nodes(self.problem, self.scheme)
            t_nodes, t_weights = self.nodes
            # Draws depend on the seed and the times alone; each level scales them.
            if noise.seed not in self.draws:
                self.draws[noise.seed] = standard_draws(noise.seed, t_nodes)
            with np.errstate(over="ignore", invalid="ignore"):
                data = scale_draws(noise, self.problem.interface_flux(t_nodes),
                                   self.draws[noise.seed], self.problem.conductivity)
            system = with_stefan_data(system, self.scheme, t_weights, data)
        coeffs = solve(system, SolveConfig(float(beta), "direct" if beta == 0.0 else "tikhonov"))
        res_norm = float(np.linalg.norm(residual(system, coeffs)))
        if self.delta_p is None:  # built at the first solve: a failed one costs no grid
            self.delta_p, self.delta_u = (_delta_p_on(self.problem, self.basis),
                                          _delta_u_on(self.problem, self.basis))
        dp, du = self.delta_p(coeffs), self.delta_u(coeffs)
        if beta not in self.conds:  # a property of the matrix, whatever the data
            self.conds[beta] = condition_number(system, beta)
        return dp, du, self.conds[beta], res_norm, coeffs, system


def run_case(problem, order, beta=0.0, scheme=None, quadrature_order=16,
             noise=None, flux_samples=101):
    """Assemble, solve, and measure one reconstruction: a sweep group of one cell.

    noise is an optional NoiseSpec; beta = 0 selects the direct solve and
    beta > 0 the Tikhonov-damped solve on normalized coefficients.
    """
    group = _Group(problem, order, scheme, quadrature_order)
    dp, du, cond, res_norm, coeffs, system = group.evaluate(beta, noise)
    curve = flux_curve(coeffs, problem, group.basis, flux_samples)
    rhs_norm = float(np.linalg.norm(system.rhs))
    return SolveReport(tuple(float(c) for c in coeffs), group.scheme, float(beta), cond, res_norm,
                       res_norm / rhs_norm if rhs_norm else float("inf"), dp, du,
                       float(max(row[3] for row in curve)), tuple(curve))


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
        object.__setattr__(self, "seeds", tuple(check_seed(s) for s in self.seeds))
        object.__setattr__(self, "horizons", tuple(float(t) for t in self.horizons))
        object.__setattr__(self, "benchmark", BenchmarkId(self.benchmark))
        for name in ("orders", "betas", "noise_levels", "seeds", "horizons"):
            if not getattr(self, name):
                raise DomainError(f"{name} must be non-empty")
        if any(n < 2 for n in self.orders):
            raise DomainError("orders below 2 cannot carry all three condition families")
        if not all(np.isfinite(b) and b >= 0 for b in self.betas):
            raise DomainError("betas must be finite and >= 0")
        if not all(np.isfinite(e) and e >= 0 for e in self.noise_levels):
            raise DomainError("noise levels must be finite and >= 0")
        if not all(np.isfinite(t) and t > 0 for t in self.horizons):
            raise DomainError("horizons must be positive and finite")
        if self.noise_mode not in MODES:
            raise DomainError(f"noise_mode must be one of {MODES}, got {self.noise_mode!r}")

    def cells(self):
        """Cell tuples in the fixed deterministic emission order."""
        return list(itertools.product(self.horizons, self.orders, self.betas,
                                      self.noise_levels, self.seeds))


@dataclass(frozen=True, slots=True)
class CellRecord:
    """Outcome of one grid cell; error is None on success.  Slotted: callers keep many."""

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


# Typed failures only: a stray numpy ValueError inside a cell is a defect and propagates.
_CELL_ERRORS = (DomainError, NumericalError, FloatingPointError, OverflowError)


def _evaluate_group(task):
    """(delta_p, delta_u, condition number, residual norm, wall time, error) per cell."""
    grid, cells = task
    horizon, order = cells[0][:2]
    start = time.perf_counter()
    try:
        group, failure = _Group(benchmark_problem(grid.benchmark, horizon), order,
                                grid.scheme_override, grid.quadrature_order), None
    except _CELL_ERRORS as exc:
        group, failure = None, _error_tag(exc)
    share = (time.perf_counter() - start) / len(cells)
    results = []
    for _, _, beta, level, seed in cells:
        start = time.perf_counter()
        values, error = (float("nan"),) * 4, failure
        if group is not None:
            try:
                noise = NoiseSpec(level, seed, grid.noise_mode) if level > 0.0 else None
                values = group.evaluate(beta, noise)[:4]
            except _CELL_ERRORS as exc:
                error = _error_tag(exc)
        results.append((*values, time.perf_counter() - start + share, error))
    return results


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
    """Run every cell of the grid group by group, optionally spreading groups on a process pool."""
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    tasks = [(grid, list(cells))
             for _, cells in itertools.groupby(grid.cells(), key=lambda cell: cell[:2])]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: concurrent.futures.process adds start-up cost to every serial run.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_evaluate_group, tasks))
    else:
        results = [_evaluate_group(task) for task in tasks]
    # Records are built here, so they share the grid's floats whichever process ran them.
    return SweepResult(grid=grid, records=[
        CellRecord(grid.benchmark.value, order, beta, level, seed, horizon, *values)
        for (_, cells), group in zip(tasks, results)
        for (horizon, order, beta, level, seed), values in zip(cells, group)])


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
