"""Parameter sweeps over order, damping, noise level, seed, and horizon.

A sweep builds every horizon's problem, grid.benchmark(horizon), before its first cell,
then runs one horizon at a time: each order's scheme and one RowTable of all its node
sets (delta_p's, delta_u's and every scheme's interface nodes) are built once, and the
first group's build fills the table up to the largest order.  A group, the cells sharing
(horizon, order), which the grid emits contiguously, builds its clean system and one
Factorization of its matrix once, its seeds' noise in one block, and each level's right
sides in one block.  Then, 32 cells at a time, _Group.run takes one try: it copies
their right sides into one block, solves it in one Factorization.solve_rows call (a
gemv per row, so each cell's bits are its own), checks their residual norms, taken
as stacked dots, measures the block and takes each distinct beta's condition number once.
Memory holds one horizon's table and one group; run_case is a horizon of one order, whose
table also holds the flux samples, and a group of one cell run as a block of one.

Failures become records with an error tag and nan metrics: all cells of a
group that fails to build, or one cell, as when its seed's row, solution,
residual norm or error is not finite (a block whose try fails runs again cell
by cell, the one retry); a group whose draws fail tags its noisy cells only.
wall_time is a cell's share of its group's build plus an equal share of its
block's solve and measure time.  Groups run one after another, and cells come
in a fixed order, so reruns give identical results.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .assembly import (CollocationScheme, assemble, check_quadrature_order, check_scheme_size,
                       interface_nodes, panel_sums, preset_scheme)
from .basis import ORDER_BOUND, HeatPolynomialBasis, RowTable
from .errors import (DomainError, NumericalError, SingularMatrixError, check_integer,
                     check_real)
from .metrics import _delta_p_grid, _delta_u_grid, _error, _flux_nodes, flux_curve
from .noise import MODES, NoiseSpec, check_seed, scale_draws, standard_draws
from .problem import BenchmarkId
from .solver import Factorization, _gemvs

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


def _norms(rows):
    """The 2-norm of each row of an (h, n) block, h = 1 included, as a stacked dot, which rounds
    as np.linalg.norm does, and of a row whose squares alone overflow as scale * norm(row / scale),
    scale = max |row|."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]
        for i in np.flatnonzero(np.isinf(norms)):  # a non-finite row comes out nan
            scale = np.abs(rows[i]).max()
            norms[i] = scale * np.linalg.norm(rows[i] / scale)
    return norms


class _Horizon:
    """A horizon's problem, each order's scheme (or the DomainError of its preset or size), and
    one RowTable of all its node sets: delta_p's and delta_u's, run_case's flux samples and
    each scheme's interface nodes.  The oracle values of both errors come at the first
    measured block (a build that raises caches nothing)."""

    def __init__(self, problem, orders, scheme=None, quadrature_order=16, flux_samples=None):
        self.problem, self.basis = problem, HeatPolynomialBasis(problem.diffusivity, max(orders))
        self.schemes, self.nodes = {}, {}  # order -> scheme; scheme -> (first set, nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            self.errors = _delta_p_grid(problem), _delta_u_grid(problem)  # (nodes, oracle) each
            sets = [nodes for nodes, _ in self.errors]
            sets += [] if flux_samples is None else [_flux_nodes(problem, flux_samples)]
            for order in orders:
                try:
                    self.schemes[order] = key = check_scheme_size(
                        preset_scheme(order, quadrature_order) if scheme is None else scheme,
                        order + 1)
                except DomainError as exc:
                    self.schemes[order] = exc
                    continue
                if key not in self.nodes:
                    self.nodes[key] = len(sets), interface_nodes(problem, key)
                    (t, _, s), (ts, _, ss) = self.nodes[key][1]
                    sets += [(s, t, "value"), (ss, ts, "dx")]
        self.table = RowTable(*sets)

    @cached_property
    def oracles(self):
        """The arguments of metrics._error after rows for delta_p and for delta_u."""
        return tuple(oracle() for _, oracle in self.errors)


class _Group:
    """What the cells of one (horizon, order, scheme) share, built once.

    seeds, the noise seeds of its cells, are drawn in one block at the first noisy cell.
    A cached property that raises caches nothing, so its next block tries again.
    """

    def __init__(self, shared, order, seeds=(), mode="relative"):
        self.shared, self.problem = shared, shared.problem
        self.basis = HeatPolynomialBasis(self.problem.diffusivity, order)
        self.scheme = shared.schemes[order]
        if isinstance(self.scheme, DomainError):
            raise self.scheme
        first, self.nodes = shared.nodes[self.scheme]
        with np.errstate(over="ignore", invalid="ignore"):  # rows above order may overflow
            rows = shared.basis.rows(shared.table, order, first, first + 1)
        self.system = assemble(self.problem, self.basis, self.scheme, self.nodes, rows)
        self.factors = Factorization(self.system.matrix)
        self.seeds, self.mode = seeds, mode
        self._rows = {seed: row for row, seed in enumerate(seeds)}
        # level -> (right sides, one per seed; each one's first non-finite stefan row or 0)
        self._blocks = {0.0: (self.system.rhs[None], (0,))}

    @cached_property
    def _noise(self):
        """The energy-balance weights, clean data at the nodes, and the seeds' draws there."""
        ts, weights, _ = self.nodes[1]
        # Draws depend on the seed and the time alone, so every level and beta shares them.
        return weights, self.problem.interface_flux(ts), standard_draws(self.seeds, ts)

    def _rhs(self, level, seed):
        """A cell's right side.  Its level's block, one row per seed, is built at the level's first
        cell from all the seeds' panel sums; a seed whose sums are not finite raises at each cell."""
        if level not in self._blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                weights, clean, draws = self._noise
                data = scale_draws(NoiseSpec(level, mode=self.mode), clean, draws,
                                   self.problem.conductivity)
                sums = panel_sums(weights * data, self.scheme.quadrature_order)
            block = self.system.rhs[None].repeat(len(sums), axis=0)
            block[:, self.scheme.n_dirichlet:self.scheme.n_dirichlet + self.scheme.n_stefan] = sums
            finite = np.isfinite(sums)
            self._blocks[level] = block, np.where(finite.all(axis=1), 0, finite.argmin(axis=1) + 1)
        block, bad = self._blocks[level]
        row = self._rows[seed] if level else 0
        if bad[row]:
            raise NumericalError(f"non-finite value while assembling stefan row {bad[row]}")
        return block[row]

    @cached_property
    def _errors(self):
        """The delta_p and delta_u closures, on the horizon's rows and oracle values from the first
        measured block on."""
        oracles = self.shared.oracles
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self.shared.basis.rows(self.shared.table, self.basis.max_order, 0, 1)
        return tuple(_error(self.basis, r, *oracle) for r, oracle in zip(rows, oracles))

    def run(self, cells):
        """Each (beta, level, seed) cell's coefficients, condition number, residual norm, right
        side, delta_p and delta_u, or its typed error.  One try builds the block's right sides,
        solves them on the shared factors, checks their residual norms and measures the block;
        if it fails, each cell goes alone, so that only failing cells fail (a rank-deficient
        matrix fails its beta = 0 cells only)."""
        betas = [beta for beta, _, _ in cells]
        try:
            rhs = np.array([self._rhs(level, seed) for _, level, seed in cells])
            coeffs = self.factors.solve_rows(rhs, betas)
            with np.errstate(over="ignore", invalid="ignore"):
                norms = _norms(_gemvs(self.system.matrix, coeffs) - rhs).tolist()
            if not all(map(math.isfinite, norms)):
                raise NumericalError("residual norm is not finite")
            deltas_p, deltas_u = (error(coeffs) for error in self._errors)
        except _CELL_ERRORS as exc:
            return [exc] if len(cells) == 1 else [self.run([cell])[0] for cell in cells]
        conds = {beta: self.factors.condition_number(beta) for beta in dict.fromkeys(betas)}
        return [(c, conds[beta], norm, b, dp, du)
                for beta, c, norm, b, dp, du in zip(betas, coeffs, norms, rhs, deltas_p, deltas_u)]


def run_case(problem, order, beta=0.0, scheme=None, noise=None, flux_samples=101):
    """Assemble, solve, and measure one reconstruction: a sweep group of one cell.

    noise is None or a NoiseSpec; beta = 0 selects the direct solve and
    beta > 0 the Tikhonov-damped solve on normalized coefficients.
    """
    if not isinstance(noise, (NoiseSpec, type(None))):
        raise DomainError(f"noise must be a NoiseSpec or None, got {noise!r}")
    level, seed, mode = (noise.level, noise.seed, noise.mode) if noise else (0.0, 0, "relative")
    shared = _Horizon(problem, (order,), scheme, flux_samples=flux_samples)
    group = _Group(shared, order, seeds=(seed,), mode=mode)
    (outcome,) = group.run([(check_real(beta, "beta"), level, seed)])
    if not isinstance(outcome, tuple):
        raise outcome
    coeffs, cond, res_norm, rhs, dp, du = outcome
    with np.errstate(over="ignore", invalid="ignore"):
        flux_rows = shared.basis.rows(shared.table, order, 2)[0]
    curve = flux_curve(coeffs, problem, group.basis, flux_samples, flux_rows)
    rhs_norm = float(_norms(rhs[None])[0])
    return SolveReport(tuple(coeffs.tolist()), group.scheme, float(beta), cond, res_norm,
                       res_norm / rhs_norm if rhs_norm else float("inf"), dp, du,
                       max(curve, key=itemgetter(3))[3], tuple(curve))


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian cell grid over orders x betas x noise levels x seeds x horizons.  benchmark is
    a preset (a BenchmarkId or its name) or any function horizon -> StefanProblem."""

    orders: tuple
    betas: tuple = (0.0,)
    noise_levels: tuple = (0.0,)
    seeds: tuple = (0,)
    horizons: tuple = (1.0,)
    benchmark: Callable = BenchmarkId.EXAMPLE1
    scheme_override: Optional[CollocationScheme] = None
    noise_mode: str = "relative"
    quadrature_order: int = 16

    def __post_init__(self):
        # Orders below 2 cannot carry all three condition families.
        for name, check in (("orders", lambda n: check_integer(n, "orders", 2, ORDER_BOUND)),
                            ("betas", lambda v: check_real(v, "betas")),
                            ("noise_levels", lambda v: check_real(v, "noise_levels")),
                            ("horizons", lambda v: check_real(v, "horizons", positive=True)),
                            ("seeds", check_seed)):
            axis = getattr(self, name)
            try:
                values = iter(axis)
            except TypeError:
                raise DomainError(f"{name} must be a sequence, got {axis!r}") from None
            object.__setattr__(self, name, tuple(map(check, values)))
        if not callable(self.benchmark):
            object.__setattr__(self, "benchmark", BenchmarkId(self.benchmark))
        object.__setattr__(self, "quadrature_order", check_quadrature_order(self.quadrature_order))
        if not isinstance(self.scheme_override, (CollocationScheme, type(None))):
            raise DomainError(f"scheme_override must be a CollocationScheme or None, "
                              f"got {self.scheme_override!r}")
        for name in ("orders", "betas", "noise_levels", "seeds", "horizons"):
            if not (values := getattr(self, name)):
                raise DomainError(f"{name} must be non-empty")
            for i, value in enumerate(values):  # a repeat would run its cells twice
                if value in values[:i]:
                    raise DomainError(f"{name} must hold distinct values, {value!r} repeats")
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
    return ("singular_matrix" if isinstance(exc, SingularMatrixError) else
            "numerical_error" if isinstance(exc, NumericalError) else "domain_error")


# Typed failures only: a stray numpy ValueError inside a cell is a defect and propagates.
_CELL_ERRORS = (DomainError, NumericalError, FloatingPointError, OverflowError)


# Cells solved and measured as one block: delta_u's block holds 32 x 4,096 floats (1 MB).
_BLOCK = 32


def _evaluate_group(grid, shared, cells):
    """Yield the CellRecord of each cell of one (horizon, order) group."""
    horizon, order = cells[0][:2]
    start = time.perf_counter()
    try:
        group = _Group(shared, order, grid.seeds, grid.noise_mode)
    except _CELL_ERRORS as exc:
        group, failure = None, exc
    share = (time.perf_counter() - start) / len(cells)
    for first in range(0, len(cells), _BLOCK):
        block, start = cells[first:first + _BLOCK], time.perf_counter()
        outcomes = group.run([cell[2:] for cell in block]) if group else [failure] * len(block)
        seconds = share + (time.perf_counter() - start) / len(block)
        for cell, out in zip(block, outcomes):
            solved = type(out) is tuple
            values = (*out[4:], *out[1:3]) if solved else [math.nan] * 4
            yield CellRecord(shared.problem.label, order, *cell[2:], horizon, *values, seconds,
                             None if solved else _error_tag(out))


@dataclass
class SweepResult:
    """Cell records in grid order plus aggregation helpers."""

    grid: SweepGrid
    records: list

    def aggregate(self):
        """Medians and IQR across seeds per (order, beta, level, horizon) cell group."""
        groups = {}  # in first-seen order
        for rec in self.records:
            groups.setdefault((rec.order, rec.beta, rec.noise_level, rec.horizon), []).append(rec)
        rows = []
        for key, recs in groups.items():
            ok = [r for r in recs if r.error is None]
            rows.append(AggregateRow(
                benchmark=recs[0].benchmark,
                order=key[0], beta=key[1], noise_level=key[2], horizon=key[3],
                seed_count=len(recs),
                delta_p_median=float(np.median([r.delta_p for r in ok])) if ok else math.nan,
                delta_p_iqr=float(np.subtract(*np.percentile(
                    [r.delta_p for r in ok], [75, 25]))) if ok else math.nan,
                delta_u_median=float(np.median([r.delta_u for r in ok])) if ok else math.nan,
                condition_number=float(np.median(
                    [r.condition_number for r in ok])) if ok else math.nan,
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
    """Run every cell of the grid horizon by horizon and group by group in this process.

    jobs must be an integer in [1, 2**63) and has no effect; it stays for callers that pass it.
    """
    check_integer(jobs, "jobs", 1)
    problems = {horizon: grid.benchmark(horizon) for horizon in grid.horizons}  # before any cell
    for horizon, problem in problems.items():
        if problem.horizon != horizon:  # its records would carry the grid's horizon
            raise DomainError(f"benchmark({horizon}) built a problem of horizon {problem.horizon}")
    records = []
    for h, cells in itertools.groupby(grid.cells(), key=lambda cell: cell[0]):
        shared = _Horizon(problems[h], grid.orders, grid.scheme_override, grid.quadrature_order)
        for _, group in itertools.groupby(cells, key=lambda cell: cell[1]):
            records.extend(_evaluate_group(grid, shared, list(group)))
    return SweepResult(grid=grid, records=records)
