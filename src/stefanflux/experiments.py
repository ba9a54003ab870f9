"""Parameter sweeps over order, damping, noise level, seed, and horizon.

A sweep runs one group at a time: the cells sharing (horizon, order), which
the grid emits contiguously.  A group builds its problem, basis, scheme, clean
system and one Factorization of its matrix once; the noise of all its seeds in
one block at its first noisy cell, and at each level's first cell the block of
all seeds' energy-balance right sides; its error grids at its first solve.  A
cell copies its seed's row into the right side, solves on the shared factors
and sums.  Memory holds one group; run_case is a group of one cell.

Failures become records with an error tag and nan metrics: all cells of a
group that fails to build, or one cell, as when its seed's row is not finite;
a group whose draws fail tags its noisy cells only.  wall_time is a cell's own
time (the first solved cell's includes the grids, the first noisy cell's the
draws, the first cell at each level its block) plus an equal share of its
group's build.  Groups run one after another in the calling process, and
cells come in a fixed order, so reruns give identical results.
"""

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .assembly import (CollocationScheme, _require_finite, assemble, check_quadrature_order,
                       panel_sums, preset_scheme, stefan_nodes)
from .basis import HeatPolynomialBasis
from .errors import (DomainError, NumericalError, SingularMatrixError, check_integer,
                     check_real)
from .metrics import _delta_p_on, _delta_u_on, flux_curve
from .noise import MODES, NoiseSpec, check_seed, scale_draws, standard_draws
from .problem import BenchmarkId, benchmark_problem
from .solver import Factorization

__all__ = ["SolveReport", "SweepGrid", "CellRecord", "AggregateRow", "SweepResult",
           "run_case", "run_sweep"]


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
    """What the cells of one (problem, order, scheme) share, built once.

    seeds, the noise seeds of its cells, are drawn in one block at the first noisy cell.
    A cached property that raises caches nothing, so its next cell tries again.
    """

    def __init__(self, problem, order, scheme=None, quadrature_order=16, seeds=()):
        self.problem = problem
        self.basis = HeatPolynomialBasis(problem.diffusivity, order)
        self.scheme = scheme if scheme is not None else preset_scheme(order, quadrature_order)
        self.system = assemble(problem, self.basis, self.scheme)
        self.factors = Factorization(self.system.matrix)
        self.seeds = seeds
        self._blocks = {}  # (level, mode) -> the energy-balance right sides, one row per seed

    @cached_property
    def _noise(self):
        """The energy-balance weights, clean data at the nodes, and the seeds' draws there."""
        ts, weights = stefan_nodes(self.problem, self.scheme)
        # Draws depend on the seed and the time alone, so every level and beta shares them.
        with np.errstate(over="ignore", invalid="ignore"):
            return weights, self.problem.interface_flux(ts), standard_draws(self.seeds, ts)

    def _noisy_rhs(self, noise):
        """noise's right side, its row of the block that its level and mode's first cell builds."""
        key = (noise.level, noise.mode)
        if key not in self._blocks:
            weights, clean, draws = self._noise
            with np.errstate(over="ignore", invalid="ignore"):
                data = scale_draws(noise, clean, draws, self.problem.conductivity)
                self._blocks[key] = panel_sums(weights * data, self.scheme.quadrature_order)
        stefan = self._blocks[key][self.seeds.index(noise.seed)]
        _require_finite(None, stefan, "stefan")  # the matrix rows passed at assembly
        rhs = self.system.rhs.copy()
        rhs[self.scheme.n_dirichlet:self.scheme.n_dirichlet + self.scheme.n_stefan] = stefan
        return rhs

    @cached_property
    def _errors(self):
        """The delta_p and delta_u closures, built at the first solve: a failed solve costs none."""
        return _delta_p_on(self.problem, self.basis), _delta_u_on(self.problem, self.basis)

    def evaluate(self, beta, noise=None):
        """A cell's delta_p, delta_u, condition number, residual norm, coefficients, right side."""
        rhs = self._noisy_rhs(noise) if noise is not None and noise.level > 0.0 else self.system.rhs
        # Noisy data changes only the right side, so the matrix's factors serve every cell.
        coeffs = self.factors.solve(rhs, beta)
        res_norm = float(np.linalg.norm(self.system.matrix @ coeffs - rhs))
        delta_p, delta_u = self._errors
        return (delta_p(coeffs), delta_u(coeffs), self.factors.condition_number(beta), res_norm,
                coeffs, rhs)


def run_case(problem, order, beta=0.0, scheme=None, noise=None, flux_samples=101):
    """Assemble, solve, and measure one reconstruction: a sweep group of one cell.

    noise is an optional NoiseSpec; beta = 0 selects the direct solve and
    beta > 0 the Tikhonov-damped solve on normalized coefficients.
    """
    group = _Group(problem, order, scheme, seeds=() if noise is None else (noise.seed,))
    dp, du, cond, res_norm, coeffs, rhs = group.evaluate(beta, noise)
    curve = flux_curve(coeffs, problem, group.basis, flux_samples)
    rhs_norm = float(np.linalg.norm(rhs))
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
        # Orders below 2 cannot carry all three condition families.
        orders = tuple(check_integer(n, "orders", 2) for n in self.orders)
        object.__setattr__(self, "orders", orders)
        for name, positive in (("betas", False), ("noise_levels", False), ("horizons", True)):
            object.__setattr__(self, name, tuple(check_real(v, name, positive)
                                                 for v in getattr(self, name)))
        object.__setattr__(self, "seeds", tuple(check_seed(s) for s in self.seeds))
        object.__setattr__(self, "benchmark", BenchmarkId(self.benchmark))
        object.__setattr__(self, "quadrature_order", check_quadrature_order(self.quadrature_order))
        for name in ("orders", "betas", "noise_levels", "seeds", "horizons"):
            if not getattr(self, name):
                raise DomainError(f"{name} must be non-empty")
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


def _evaluate_group(grid, cells):
    """Yield the CellRecord of each cell of one (horizon, order) group."""
    horizon, order = cells[0][:2]
    start = time.perf_counter()
    try:
        group, failure = _Group(benchmark_problem(grid.benchmark, horizon), order,
                                grid.scheme_override, grid.quadrature_order, grid.seeds), None
    except _CELL_ERRORS as exc:
        group, failure = None, _error_tag(exc)
    share = (time.perf_counter() - start) / len(cells)
    for _, _, beta, level, seed in cells:
        start = time.perf_counter()
        values, error = (float("nan"),) * 4, failure
        if group is not None:
            try:
                values = group.evaluate(beta, NoiseSpec(level, seed, grid.noise_mode))[:4]
            except _CELL_ERRORS as exc:
                error = _error_tag(exc)
        yield CellRecord(grid.benchmark.value, order, beta, level, seed, horizon, *values,
                         time.perf_counter() - start + share, error)


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
    """Run every cell of the grid group by group in this process.

    jobs must be an integer in [1, 2**63) and has no effect; it stays for callers that pass it.
    """
    check_integer(jobs, "jobs", 1)
    return SweepResult(grid=grid, records=[
        record for _, cells in itertools.groupby(grid.cells(), key=lambda cell: cell[:2])
        for record in _evaluate_group(grid, list(cells))])
