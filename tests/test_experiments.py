"""Sweep orchestration: determinism, aggregation, failure handling, windows."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanflux import (
    BenchmarkId,
    CollocationScheme,
    DomainError,
    HeatPolynomialBasis,
    NoiseSpec,
    NumericalError,
    SingularMatrixError,
    SweepGrid,
    assemble,
    benchmark_problem,
    condition_number,
    delta_p,
    delta_u,
    example1,
    example2,
    linear_boundary_problem,
    preset_scheme,
    run_case,
    run_sweep,
    solve,
    solve_direct,
    sqrt_boundary_problem,
)
from stefanflux import experiments
from stefanflux.assembly import check_quadrature_order, panel_sums, stefan_nodes
from stefanflux.basis import ORDER_BOUND
from stefanflux.errors import check_integer
from stefanflux.experiments import _error_tag
from stefanflux.noise import scale_draws, standard_draws

# An integer that float() cannot convert; the checks raised a bare OverflowError on it.
HUGE = 10 ** 400


def test_run_case_matches_manual_pipeline():
    prob = example1()
    report = run_case(prob, 8)
    basis = HeatPolynomialBasis(1.0, 8)
    system = assemble(prob, basis, preset_scheme(8))
    coeffs = solve_direct(system)
    assert report.coefficients == tuple(float(c) for c in coeffs)
    assert report.delta_p == delta_p(coeffs, prob, basis)
    assert report.delta_u == delta_u(coeffs, prob, basis)
    assert report.condition_number == condition_number(system)
    res = system.matrix @ coeffs - system.rhs
    assert report.residual_norm == pytest.approx(float(np.linalg.norm(res)), rel=1e-15)
    assert report.relative_residual == pytest.approx(
        report.residual_norm / float(np.linalg.norm(system.rhs)), rel=1e-15)
    assert report.relative_residual <= 1e-8
    assert report.scheme == preset_scheme(8)
    assert len(report.flux_curve) == 101


@pytest.mark.parametrize("mode", ["relative", "constant"])
def test_noisy_run_case_matches_manual_pipeline(mode):
    prob = example2()
    spec = NoiseSpec(0.01, seed=7, mode=mode)
    report = run_case(prob, 8, beta=1e-5, noise=spec)
    basis = HeatPolynomialBasis(prob.diffusivity, 8)
    scheme = preset_scheme(8)
    t_nodes, t_weights = stefan_nodes(prob, scheme)
    data = scale_draws(spec, prob.interface_flux(t_nodes), standard_draws(spec.seed, t_nodes),
                       prob.conductivity)
    system = assemble(prob, basis, scheme)
    system.rhs[scheme.n_dirichlet:scheme.n_dirichlet + scheme.n_stefan] = panel_sums(
        t_weights * data, scheme.quadrature_order)
    coeffs = solve(system, 1e-5)
    assert report.coefficients == tuple(float(c) for c in coeffs)
    assert report.delta_p == delta_p(coeffs, prob, basis)
    assert report.delta_u == delta_u(coeffs, prob, basis)
    assert report.condition_number == condition_number(system, 1e-5)
    assert report.residual_norm == float(np.linalg.norm(system.matrix @ coeffs - system.rhs))
    assert report.delta_p != run_case(prob, 8, beta=1e-5).delta_p


def test_zero_noise_spec_equals_no_noise():
    prob = example1()
    assert run_case(prob, 8, noise=NoiseSpec(0.0, seed=5)) == run_case(prob, 8)


def test_single_cell_sweep_matches_run_case():
    result = run_sweep(SweepGrid(orders=(8,)))
    assert len(result.records) == 1
    rec = result.records[0]
    report = run_case(example1(), 8)
    assert rec.delta_p == report.delta_p
    assert rec.delta_u == report.delta_u
    assert rec.condition_number == report.condition_number
    assert rec.error is None
    assert rec.benchmark == "example1"


def test_cell_emission_order():
    grid = SweepGrid(orders=(4, 6), betas=(0.0, 1e-3), noise_levels=(0.0, 0.01),
                     seeds=(0, 1), horizons=(1.0, 2.0))
    cells = grid.cells()
    assert len(cells) == 32
    assert cells[0] == (1.0, 4, 0.0, 0.0, 0)
    assert cells[1] == (1.0, 4, 0.0, 0.0, 1)
    assert cells[2] == (1.0, 4, 0.0, 0.01, 0)
    assert cells[16] == (2.0, 4, 0.0, 0.0, 0)
    # Horizon is the outermost axis, seed the innermost.
    assert [c[0] for c in cells] == sorted(c[0] for c in cells)


def test_orders_are_bounded_before_anything_is_allocated():
    # Order N fills N + 1 rows over every node set, whose count grows with N: order
    # 100,000 used to ask numpy for 1.17 TiB.  N = 400 stays legal.
    for build in (preset_scheme, lambda n: HeatPolynomialBasis(1.0, n),
                  lambda n: SweepGrid(orders=(8, n))):
        build(400), build(ORDER_BOUND - 1)
        for bad in (ORDER_BOUND, 100000):
            with pytest.raises(DomainError, match=rf"must be an integer in \[\d, 1000\), got {bad}$"):
                build(bad)


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(orders=())
    with pytest.raises(ValueError):
        SweepGrid(orders=(1,))
    with pytest.raises(ValueError):
        SweepGrid(orders=(8,), betas=(-1e-3,))
    with pytest.raises(ValueError):
        SweepGrid(orders=(8,), noise_levels=(-0.01,))
    with pytest.raises(ValueError):
        SweepGrid(orders=(8,), horizons=(0.0,))
    # Strings and None raised a bare TypeError.
    for bad in ({"betas": (math.nan,)}, {"noise_levels": (0.01, math.nan)},
                {"horizons": (math.nan,)}, {"horizons": (math.inf,)}, {"betas": (0.0, HUGE)},
                {"noise_levels": (0.01, HUGE)}, {"horizons": (1.0, HUGE)}, {"betas": ("1e-7",)},
                {"horizons": (None,)}, {"noise_levels": (0.01, "1")}):
        with pytest.raises(DomainError, match=f"^{next(iter(bad))} must be finite"):
            SweepGrid(orders=(8,), **bad)
    with pytest.raises(ValueError):
        SweepGrid(orders=(8,), benchmark="example9")
    # A function whose problem ignores the horizon it is given would mislabel its records.
    with pytest.raises(DomainError, match=r"^benchmark\(2.0\) built a problem of horizon 1.0$"):
        run_sweep(SweepGrid(orders=(8,), horizons=(2.0,), benchmark=lambda horizon: example1()))
    with pytest.raises(ValueError, match="noise_mode"):
        SweepGrid(orders=(8,), noise_levels=(0.0, 0.01), noise_mode="bogus")
    # Seeds outside [0, 2**64) used to alias: 2**64 drew seed 0's noise.
    for seed in (-1, 2 ** 64, 0.5):
        with pytest.raises(DomainError, match="seed"):
            SweepGrid(orders=(8,), noise_levels=(0.01,), seeds=(0, seed))
    assert SweepGrid(orders=(8,), seeds=(2 ** 64 - 1,)).seeds == (2 ** 64 - 1,)
    # A repeated value used to run its cells twice and count one seed as two.
    for name, values, repeated in (("orders", (8, 12, 8), "8"), ("betas", (0.0, -0.0), "-0.0"),
                                   ("noise_levels", (0.01, 0.01), "0.01"),
                                   ("seeds", (3, 3), "3"), ("horizons", (1, 1.0), "1.0")):
        with pytest.raises(DomainError, match=fr"^{name} must hold distinct values, {repeated} "):
            SweepGrid(**{"orders": (8,), name: values})
    # Checked as CollocationScheme checks it; a bad order used to fail every group.
    for quad in (5, 16.5, math.nan, HUGE):
        with pytest.raises(DomainError, match="quadrature_order"):
            SweepGrid(orders=(8,), quadrature_order=quad)
        with pytest.raises(DomainError, match="quadrature_order"):
            check_quadrature_order(quad)
    grid = SweepGrid(orders=[8], benchmark="example2", quadrature_order=32.0)
    assert grid.benchmark is BenchmarkId.EXAMPLE2
    assert grid.orders == (8,)
    assert type(grid.quadrature_order) is int


def test_sweep_determinism_and_worker_invariance():
    grid = SweepGrid(orders=(4, 6), betas=(0.0, 1e-6), noise_levels=(0.0, 0.01),
                     seeds=(0, 1))
    serial = run_sweep(grid)
    again = run_sweep(grid)
    assert serial.records == again.records  # wall_time is excluded from equality
    parallel = run_sweep(grid, jobs=2)
    assert parallel.records == serial.records


def test_jobs_must_be_positive():
    grid = SweepGrid(orders=(4,))
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(grid, jobs=jobs)


def test_orders_and_jobs_must_be_integers():
    # A fractional order used to truncate in SweepGrid and a fractional jobs
    # to fail inside the pool set-up; both match run_case's DomainError now.
    for bad in (8.5, math.nan, math.inf, HUGE):
        with pytest.raises(DomainError, match="orders"):
            SweepGrid(orders=(8, bad))
    with pytest.raises(DomainError, match="max_order"):
        run_case(example1(), 8.5)
    assert SweepGrid(orders=(8.0, np.int64(6))).orders == (8, 6)
    grid = SweepGrid(orders=(4, 6))
    # 10**400 used to raise a bare OverflowError from float(jobs).
    for jobs in (1.5, math.nan, math.inf, 2 ** 63, 10 ** 400):
        with pytest.raises(DomainError, match="jobs"):
            run_sweep(grid, jobs=jobs)
    assert run_sweep(grid, jobs=2.0).records == run_sweep(grid).records


def test_integer_check_bounds():
    assert check_integer(2 ** 63 - 1, "n", 0) == 2 ** 63 - 1
    assert type(check_integer(np.float64(8.0), "n", 8)) is int
    for bad in (2 ** 63, -1, -HUGE, HUGE, 8.5, math.nan, math.inf, "8", None):
        with pytest.raises(DomainError, match=r"^n must be an integer in \[0, 2\*\*63\), got "):
            check_integer(bad, "n", 0)
    with pytest.raises(DomainError, match=r"in \[1, 5\), got 5$"):
        check_integer(5, "n", 1, 5)


def _case_key(grid, cell):
    # What a sweep record should hold for one cell, from a run_case call of its own.
    horizon, order, beta, level, seed = cell
    spec = NoiseSpec(level, seed, grid.noise_mode) if level > 0.0 else None
    try:
        rep = run_case(grid.benchmark(horizon), order, beta=beta, noise=spec)
    except (NumericalError, ValueError) as exc:
        return cell, _error_tag(exc)
    return cell, (rep.delta_p, rep.delta_u, rep.condition_number, rep.residual_norm)


def _record_key(rec):
    cell = (rec.horizon, rec.order, rec.beta, rec.noise_level, rec.seed)
    if rec.error is not None:
        assert all(math.isnan(v) for v in (rec.delta_p, rec.delta_u,
                                           rec.condition_number, rec.residual_norm))
        return cell, rec.error
    return cell, (rec.delta_p, rec.delta_u, rec.condition_number, rec.residual_norm)


# Family members that a grid sweeps through a function horizon -> StefanProblem.
FAMILY_MEMBERS = {"linear": lambda horizon: linear_boundary_problem(0.4, 0.7, horizon=horizon),
                  "sqrt": lambda horizon: sqrt_boundary_problem(0.6, 0.16, horizon=horizon)}


@pytest.mark.parametrize("problem_id", ["example1", "example2", *FAMILY_MEMBERS])
@pytest.mark.parametrize("mode", ["relative", "constant"])
def test_grouped_sweep_matches_per_cell_run_case(problem_id, mode):
    # Cells share their (horizon, order) group's matrix, error grids and noise
    # draws; each record must still equal an independent run_case, field by
    # field.  N=20 at T=1.5 and beta=0 has full rank once its columns are
    # scaled, so every cell solves.
    # The order groups of a horizon measure on the first N + 1 design rows of
    # its grids, built at the largest order, whichever order comes first.
    # A family sweeps as a preset does, and its records carry the family's label.
    for orders in ((4, 12, 20), (12, 4, 20)):
        grid = SweepGrid(orders=orders, betas=(0.0, 1e-7), noise_levels=(0.0, 0.01),
                         seeds=(0, 1), horizons=(0.5, 1.5),
                         benchmark=FAMILY_MEMBERS.get(problem_id, problem_id), noise_mode=mode)
        expected = [_case_key(grid, cell) for cell in grid.cells()]
        assert sum(key[1] == "singular_matrix" for key in expected) == 0
        for jobs in (1, 2):
            records = run_sweep(grid, jobs=jobs).records
            assert [_record_key(rec) for rec in records] == expected
            assert all(rec.wall_time > 0.0 for rec in records)
            assert {rec.benchmark for rec in records} == {problem_id}


def _count_fills(monkeypatch):
    """(table, order) of each recurrence HeatPolynomialBasis.rows runs over a RowTable, in order:
    one, up to the basis's max_order, at a table's first request.  The rows are then read-only,
    so a later request that filled them again, in place or in a new buffer, would fail here."""
    fills, rows = [], HeatPolynomialBasis.rows

    def counted(basis, table, order, *which):
        buffer = table.buffer
        if buffer is None:
            fills.append((table, basis.max_order))
        got = rows(basis, table, order, *which)
        assert buffer is None or table.buffer is buffer
        table.buffer.flags.writeable = False
        return got

    monkeypatch.setattr(HeatPolynomialBasis, "rows", counted)
    return fills


def test_problem_and_error_grids_are_built_once_per_horizon(monkeypatch):
    # A horizon's order groups share its problem, the oracle values of delta_p and
    # delta_u, and one row table of all its node sets (delta_p's, delta_u's and
    # every group's interface nodes), so the recurrence runs once per horizon, up
    # to its largest order.  run_case is a horizon of one order whose table also
    # holds the flux samples, and a horizon whose groups all fail to build fills
    # no table and builds no oracle values.
    builds, problems = [], []
    for name in ("_delta_p_grid", "_delta_u_grid"):
        def counted(problem, name=name, build=getattr(experiments, name)):
            nodes, oracle = build(problem)
            return nodes, lambda: builds.append(name) or oracle()
        monkeypatch.setattr(experiments, name, counted)
    fills = _count_fills(monkeypatch)
    grid = SweepGrid(orders=(4, 12, 8), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01),
                     horizons=(0.5, 1.5),
                     benchmark=lambda horizon: problems.append(horizon) or example1(horizon))
    assert all(rec.error is None for rec in run_sweep(grid).records)
    assert (builds, problems) == (["_delta_p_grid", "_delta_u_grid"] * 2, [0.5, 1.5])
    # Per horizon: delta_p's and delta_u's sets, then each order's temperature and
    # energy-balance sets.
    assert [(len(table.bounds), order) for table, order in fills] == [(8, 12)] * 2
    assert fills[0][0] is not fills[1][0]
    builds.clear()
    fills.clear()
    run_case(example1(), 8)
    assert builds == ["_delta_p_grid", "_delta_u_grid"]
    assert [(len(table.bounds), order) for table, order in fills] == [(5, 8)]
    builds.clear()
    fills.clear()
    grid = SweepGrid(orders=(6, 8), horizons=(0.5, 1.5), scheme_override=preset_scheme(12))
    assert {rec.error for rec in run_sweep(grid).records} == {"domain_error"}
    assert (builds, fills) == ([], [])


def test_rows_are_filled_once_to_the_largest_order(monkeypatch):
    # Each horizon's table runs the recurrence once, up to N=400, whichever order
    # comes first.  The N=400 groups fail in assembly on their temperature rows,
    # and both orders of the grid give equal records.
    fills, records = _count_fills(monkeypatch), []
    for orders in ((8, 12, 400), (400, 8, 12)):
        fills.clear()
        grid = SweepGrid(orders=orders, horizons=(1.0, 3.0))
        result = run_sweep(grid).records
        assert [rec.error for rec in result] == [None if cell[1] < 400 else "numerical_error"
                                                 for cell in grid.cells()]
        records.append(dict(map(_record_key, result)))
        assert [(len(table.bounds), order) for table, order in fills] == [(8, 400)] * 2
    assert records[0] == records[1]


def test_rows_above_a_group_order_may_overflow():
    # The horizon's grids hold design rows up to N=400, which overflow where
    # those of N=8 and N=12 do not.  Under warnings-as-errors N=8 and N=12
    # still measure, and N=400 fails typed, each as run_case does alone.
    grid = SweepGrid(orders=(8, 12, 400), horizons=(1.0, 3.0))
    records = run_sweep(grid).records
    assert [rec.error for rec in records] == [None, None, "numerical_error"] * 2
    assert [_record_key(rec) for rec in records] == [_case_key(grid, cell)
                                                     for cell in grid.cells()]


def test_rank_deficient_group_tags_direct_cells_singular(monkeypatch):
    # Two equal columns make the group's matrix rank deficient: its direct
    # cells fail with a typed singular_matrix tag, its damped cells still solve.
    def assemble_with_repeated_column(*args, **kwargs):
        system = assemble(*args, **kwargs)
        matrix = system.matrix.copy()
        matrix[:, 1] = matrix[:, 0]
        return dataclasses.replace(system, matrix=matrix)

    monkeypatch.setattr(experiments, "assemble", assemble_with_repeated_column)
    grid = SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01))
    records = run_sweep(grid).records
    assert [rec.error for rec in records] == ["singular_matrix"] * 2 + [None] * 2
    assert all(math.isnan(rec.delta_p) for rec in records[:2])


def test_only_domain_errors_become_domain_error_records(monkeypatch):
    # A bare ValueError inside a cell (a numpy broadcast mismatch, say) is a
    # defect and propagates; the library's own DomainError is a tagged outcome.
    def solve_raising(exc_type):
        def solve_rows(factors, rhs, betas):
            raise exc_type("stage failed")
        return solve_rows

    grid = SweepGrid(orders=(6,), betas=(0.0, 1e-7))
    monkeypatch.setattr(experiments.Factorization, "solve_rows", solve_raising(ValueError))
    with pytest.raises(ValueError, match="stage failed") as info:
        run_sweep(grid)
    assert type(info.value) is ValueError
    monkeypatch.setattr(experiments.Factorization, "solve_rows", solve_raising(DomainError))
    records = run_sweep(grid).records
    assert [rec.error for rec in records] == ["domain_error"] * 2
    assert all(math.isnan(rec.delta_p) for rec in records)


def test_group_build_failure_tags_every_cell():
    grid = SweepGrid(orders=(8,), betas=(0.0, 1e-3), noise_levels=(0.0, 0.01),
                     scheme_override=preset_scheme(12))
    assert [rec.error for rec in run_sweep(grid).records] == ["domain_error"] * 4
    # The error grids are built at a group's first solve; one that cannot be
    # built (no temperature oracle) fails every cell that reaches it alike.
    grid = SweepGrid(orders=(6,), betas=(0.0, 1e-3), benchmark=lambda horizon: dataclasses.replace(
        example1(horizon), exact_solution=None))
    assert [rec.error for rec in run_sweep(grid).records] == ["domain_error"] * 2


def test_every_horizon_problem_is_built_before_the_first_group(monkeypatch):
    # A front s = 0.4 - 0.7 t stays positive at horizon 0.5 but not at 1, and a problem
    # function that ignores its horizon fails the check at 1: either way the sweep fails
    # before it builds any group, not after horizon 0.5's cells have run.
    groups, group = [], experiments._Group
    monkeypatch.setattr(experiments, "_Group", lambda *args: groups.append(args) or group(*args))
    grid = SweepGrid(orders=range(4, 21, 4), betas=(0.0, 1e-7), horizons=(0.5, 1.0),
                     benchmark=lambda horizon: linear_boundary_problem(0.4, -0.7, horizon=horizon))
    with pytest.raises(DomainError, match="boundary must stay positive over the horizon"):
        run_sweep(grid)
    with pytest.raises(DomainError, match=r"^benchmark\(1.0\) built a problem of horizon 0.5$"):
        run_sweep(dataclasses.replace(grid, benchmark=lambda horizon: example1(0.5)))
    assert groups == []
    assert all(rec.error is None for rec in run_sweep(dataclasses.replace(grid, horizons=(0.5,)))
               .records)
    assert len(groups) == 5


def test_noise_draws_are_shared_across_levels_and_betas(monkeypatch):
    # Draws depend on (seed, time) alone: a group draws its seeds in one block
    # and scales the draws per level, instead of drawing again for every cell.
    # The count is the number of (seed, time) pairs passed to standard_draws.
    sizes = []
    draws = experiments.standard_draws
    monkeypatch.setattr(experiments, "standard_draws",
                        lambda seeds, ts: sizes.append(np.size(seeds) * np.size(ts))
                        or draws(seeds, ts))
    grid = SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.01, 0.05), seeds=(0, 1))
    result = run_sweep(grid)
    assert all(rec.error is None for rec in result.records)
    scheme = preset_scheme(8)
    assert sum(sizes) == len(grid.seeds) * scheme.n_stefan * scheme.quadrature_order
    assert len(sizes) == 1


def test_panel_sums_run_once_per_group_and_level(monkeypatch):
    # A group sums the energy-balance panels of all its seeds at a noise level
    # in one call, and every beta of that level reuses the block.
    shapes = []
    sums = experiments.panel_sums
    monkeypatch.setattr(experiments, "panel_sums",
                        lambda weighted, q: shapes.append(weighted.shape) or sums(weighted, q))
    grid = SweepGrid(orders=(6, 8), betas=(0.0, 1e-7, 1e-3), noise_levels=(0.0, 0.01, 0.05),
                     seeds=(0, 1, 2))
    records = run_sweep(grid).records
    assert all(rec.error is None for rec in records)
    nodes = [preset_scheme(order).n_stefan * preset_scheme(order).quadrature_order
             for order in grid.orders]
    assert shapes == [(3, n) for n in nodes for _ in (0.01, 0.05)]
    shapes.clear()
    run_case(example1(), 8, beta=1e-7, noise=NoiseSpec(0.01, seed=4))
    assert shapes == [(1, nodes[1])]


def test_overflowing_seeds_fail_only_their_own_cells():
    # At a constant level of 7e307, the data of seeds 0, 3 and 5 overflow at
    # some node and the others stay finite.  Each overflowing seed's cells fail
    # with its first non-finite energy-balance row named, as a system built for
    # the cell alone fails; the finite huge data fail later, in the solve.
    # Every record equals an independent run_case, and the other levels all
    # solve.
    prob = example1()
    nodes = stefan_nodes(prob, preset_scheme(8))[0]
    spec = NoiseSpec(7e307, mode="constant")
    grid = SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01, 7e307),
                     seeds=range(8), noise_mode="constant")
    with np.errstate(all="ignore"):
        data = scale_draws(spec, prob.interface_flux(nodes), standard_draws(grid.seeds, nodes),
                           prob.conductivity)
        overflows = [not np.isfinite(row).all() for row in data]
        assert overflows == [True, False, False, True, False, True, False, False]
        expected = [_case_key(grid, cell) for cell in grid.cells()]
        records = run_sweep(grid).records
        messages = []
        for seed in grid.seeds:
            with pytest.raises((NumericalError, DomainError)) as info:
                run_case(prob, 8, noise=dataclasses.replace(spec, seed=seed))
            messages.append(str(info.value))
    rows = [f"non-finite value while assembling stefan row {row}" for row in (2, 1, 1)]
    assert [message for message, bad in zip(messages, overflows) if bad] == rows
    assert not any("stefan" in message for message, bad in zip(messages, overflows) if not bad)
    assert [_record_key(rec) for rec in records] == expected
    for rec in records:
        if rec.noise_level < 1.0:
            assert rec.error is None
        elif overflows[rec.seed]:
            assert rec.error == "numerical_error"
        else:
            assert rec.error is not None
    # One block that mixes seeds whose data overflow (0, 3), seeds whose
    # solution overflows (1, 4, 7) and healthy cells, at both kinds of beta:
    # each cell fails or solves as run_case does alone, with its message.
    cells = [(0.0, 7e307, 0), (0.0, 7e307, 1), (0.0, 0.01, 2), (1e-7, 7e307, 3),
             (1e-7, 7e307, 4), (1e-7, 0.01, 5), (0.0, 0.0, 6), (1e-7, 7e307, 7)]
    group = experiments._Group(experiments._Horizon(prob, (8,)), 8, seeds=tuple(grid.seeds),
                               mode="constant")
    outcomes = group.run(cells)
    expected = []
    for beta, level, seed in cells:
        try:
            with np.errstate(all="ignore"):
                expected.append(run_case(prob, 8, beta, noise=dataclasses.replace(
                    spec, level=level, seed=seed) if level else None))
        except NumericalError as exc:
            expected.append(exc)
    assert [str(out) for out in outcomes if not isinstance(out, tuple)] == [
        rows[0], "solution contains non-finite entries", rows[1],
        "solution contains non-finite entries", "solution contains non-finite entries"]
    for out, want in zip(outcomes, expected):
        if isinstance(want, Exception):
            assert (type(out), str(out)) == (type(want), str(want))
        else:
            coeffs, cond, res_norm, _, dp, du = out
            assert (tuple(coeffs.tolist()), cond, res_norm, dp, du) == (
                want.coefficients, want.condition_number, want.residual_norm, want.delta_p,
                want.delta_u)


def test_overflowing_solves_are_numerical_errors_without_errstate():
    # The same grid outside np.errstate, where warnings are errors: the finite
    # but huge data of seeds 1, 2, 4, 6 and 7 overflow the solve at 7e307, and
    # each raises a typed error, not a RuntimeWarning or a misnamed failure of
    # the metrics.  At 1e300 every seed solves, and its residual, whose squares
    # alone overflow, is measured as scale * norm(d / scale), scale = max |d|.
    grid = SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01, 1e300, 7e307),
                     seeds=range(8), noise_mode="constant")
    records = run_sweep(grid).records
    assert len(records) == 64
    for rec in records:
        assert rec.error == (None if rec.noise_level < 7e307 else "numerical_error")
    for seed in (1, 2, 4, 6, 7):
        with pytest.raises(NumericalError, match="^solution contains non-finite entries$"):
            run_case(example1(), 8, noise=NoiseSpec(7e307, seed, "constant"))
    group = experiments._Group(experiments._Horizon(example1(), (8,)), 8, seeds=tuple(grid.seeds),
                               mode="constant")
    for seed, beta in itertools.product(range(8), (0.0, 1e-7)):
        report = run_case(example1(), 8, beta, noise=NoiseSpec(1e300, seed, "constant"))
        assert all(math.isfinite(value) for value in (
            report.residual_norm, report.relative_residual, report.delta_p, report.delta_u))
        d = group.system.matrix @ np.array(report.coefficients) - group._rhs(1e300, seed)
        with np.errstate(over="ignore"):
            assert math.isinf(d @ d)
        scale = np.abs(d).max()
        assert report.residual_norm == scale * np.linalg.norm(d / scale)


def test_cells_are_solved_then_measured_in_blocks_of_eight(monkeypatch):
    # A group solves, checks and measures up to eight cells in one try, and a
    # block that fails goes again cell by cell; the records equal run_case's.
    # Each group's 18 cells make blocks of 8, 8 and 2 cells, and the 7e307
    # cells fail every block here.  At N=6 each block reaches one
    # Factorization.solve_rows call (the second mixes betas, so it solves its
    # beta = 0 row on its own factors first, height 1, and fails there), then
    # a height-1 call per cell.  At N=8 seed 0's right side is not finite at
    # 7e307, so the first two blocks fail before their solve, and only the
    # seven cells of each with a finite right side reach a call of their own.
    heights = []
    solve_rows = experiments.Factorization.solve_rows
    monkeypatch.setattr(experiments.Factorization, "solve_rows",
                        lambda factors, rhs, *args: heights.append(len(rhs))
                        or solve_rows(factors, rhs, *args))
    grid = SweepGrid(orders=(6, 8), betas=(0.0, 1e-7), noise_levels=(0.01, 0.05, 7e307),
                     seeds=range(3), noise_mode="constant")
    records = run_sweep(grid).records
    solved = [rec.error is None for rec in records]
    assert solved == ([True] * 6 + [False] * 3) * 4
    assert heights == ([8] + [1] * 8 + [8, 1] + [1] * 8 + [2] + [1] * 2
                       + [1] * 7 + [1] * 7 + [2] + [1] * 2)
    assert [_record_key(rec) for rec in records] == [_case_key(grid, cell)
                                                     for cell in grid.cells()]


def test_one_bad_row_fails_only_its_own_cell(monkeypatch):
    # Finite coefficients whose differences overflow in delta_p (c_3 = 4e307,
    # whose flux 6 t c_3 overflows) or in delta_u alone (a huge c_2, whose flux
    # at x = 0 vanishes), each with a finite residual norm, or whose residual
    # overflows (c_3 = 1e308): the block that holds them raises, and each cell
    # goes alone, so only those cells fail.  (A huge c_1 whose squares alone
    # overflow is measured finite: test_metrics.)
    grid = SweepGrid(orders=(8,), betas=(0.0,), noise_levels=(0.01,), seeds=range(10))
    clean = run_sweep(grid).records
    group = experiments._Group(experiments._Horizon(example1(), (8,)), 8, seeds=tuple(grid.seeds))
    rhs = np.array([group._rhs(0.01, seed) for seed in grid.seeds])
    seeds = {b.tobytes(): seed for seed, b in zip(grid.seeds, rhs)}
    huge = {2: (3, 4e307), 5: (2, 1e308), 7: (3, 1e308), 9: (2, 1e308)}  # seed: (column, value)
    solve_rows = experiments.Factorization.solve_rows

    def injected(factors, block, *args):
        coeffs = solve_rows(factors, block, *args)
        for c, b in zip(coeffs, block):
            if (seed := seeds[b.tobytes()]) in huge:
                column, value = huge[seed]
                c[column] = value
        return coeffs

    monkeypatch.setattr(experiments.Factorization, "solve_rows", injected)
    records = run_sweep(grid).records
    for rec, expected in zip(records, clean):
        if rec.seed in huge:
            assert rec.error == "numerical_error"
            assert all(math.isnan(v) for v in (rec.delta_p, rec.delta_u,
                                               rec.condition_number, rec.residual_norm))
        else:
            assert _record_key(rec) == _record_key(expected)
    block = group.factors.solve_rows(rhs, [0.0] * len(rhs))
    delta_p_on, delta_u_on = group._errors
    with pytest.raises(NumericalError, match="^delta_p is not finite$"):
        delta_p_on(block)
    with pytest.raises(NumericalError, match="^delta_u is not finite$"):
        delta_u_on(block[5:6])
    outcomes = group.run([(0.0, 0.01, seed) for seed in grid.seeds])
    failures = {seed: (_error_tag(out), str(out))
                for seed, out in zip(grid.seeds, outcomes) if type(out) is not tuple}
    assert failures == {2: ("numerical_error", "delta_p is not finite"),
                        5: ("numerical_error", "delta_u is not finite"),
                        7: ("numerical_error", "residual norm is not finite"),
                        9: ("numerical_error", "delta_u is not finite")}
    assert [out[4:] for out in outcomes if type(out) is tuple] == [
        (rec.delta_p, rec.delta_u) for rec in clean if rec.seed not in huge]


def test_group_records_share_one_condition_number():
    # Factorization.condition_number keeps one float per beta for all the cells.
    records = run_sweep(SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01),
                                  seeds=(0, 1))).records
    for beta in (0.0, 1e-7):
        conds = [rec.condition_number for rec in records if rec.beta == beta]
        assert len(conds) == 4 and all(cond is conds[0] for cond in conds)


def test_draw_failure_tags_only_noisy_cells(monkeypatch):
    # The group's block of draws fails once; its clean cells still solve.
    def draws_raising(seeds, ts):
        raise DomainError("noise times must be finite")

    monkeypatch.setattr(experiments, "standard_draws", draws_raising)
    grid = SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01))
    records = run_sweep(grid).records
    assert [rec.error for rec in records] == [None, "domain_error"] * 2
    clean = run_sweep(SweepGrid(orders=(8,), betas=(0.0, 1e-7))).records
    assert [rec.delta_p for rec in records[::2]] == [rec.delta_p for rec in clean]


def test_one_factorisation_per_group(monkeypatch):
    # A group's cells share at most three SVDs whatever their betas: the
    # equilibrated one for beta = 0, that of A diag(1/n!) for every beta > 0,
    # and the singular values of A for the beta = 0 condition number.
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    grid = SweepGrid(orders=range(4, 21, 2),
                     betas=(0.0,) + tuple(float(f"1e-{k}") for k in range(13, 2, -1)),
                     benchmark="example1")
    assert all(rec.error is None for rec in run_sweep(grid).records)
    assert len(calls) <= 3 * len(grid.orders)
    for beta, count in ((0.0, 2), (1e-7, 1)):
        calls.clear()
        run_case(example1(), 12, beta=beta)
        assert len(calls) == count


def test_overflowing_oracles_raise_numerical_error():
    # A steep linear family overflows its exact oracles; the metrics raise a
    # typed error instead of returning nan and inf.
    with pytest.raises(NumericalError):
        run_case(linear_boundary_problem(0.5, 30.0), 8)
    grid = SweepGrid(orders=(8,), benchmark=lambda horizon: linear_boundary_problem(
        0.5, 30.0, horizon=horizon))
    assert run_sweep(grid).records[0].error == "numerical_error"


def test_zero_level_is_seed_invariant():
    result = run_sweep(SweepGrid(orders=(6,), noise_levels=(0.0,), seeds=(0, 1, 2)))
    values = {rec.delta_p for rec in result.records}
    assert len(values) == 1


def test_aggregate_medians_and_lookup():
    result = run_sweep(SweepGrid(orders=(6,), noise_levels=(0.01,), seeds=(0, 1, 2)))
    row = result.lookup(6, noise_level=0.01)
    dps = [rec.delta_p for rec in result.records]
    assert row.seed_count == 3
    assert row.failures == 0
    assert row.delta_p_median == float(np.median(dps))
    assert row.delta_p_iqr == pytest.approx(
        float(np.percentile(dps, 75) - np.percentile(dps, 25)), rel=1e-12)
    assert row.delta_u_median == float(np.median([r.delta_u for r in result.records]))
    with pytest.raises(KeyError):
        result.lookup(6, noise_level=0.05)


def test_failures_become_tagged_records():
    # A scheme override whose size cannot match the basis turns every cell
    # into a domain_error record without aborting the sweep.
    grid = SweepGrid(orders=(8,), scheme_override=preset_scheme(12))
    result = run_sweep(grid)
    rec = result.records[0]
    assert rec.error == "domain_error"
    assert math.isnan(rec.delta_p) and math.isnan(rec.condition_number)
    row = result.aggregate()[0]
    assert row.failures == 1
    assert math.isnan(row.delta_p_median)

    assert _error_tag(SingularMatrixError(0)) == "singular_matrix"
    assert _error_tag(NumericalError("x")) == "numerical_error"
    assert _error_tag(ValueError("x")) == "domain_error"


def test_reference_error_windows():
    # Order 4 clean reconstruction sits near the reference 1.8e-2; stretching
    # the horizon to 5 degrades it to order one.
    short = run_case(example1(), 4)
    assert 0.018 / 3 <= short.delta_p <= 0.018 * 3
    long = run_case(benchmark_problem(BenchmarkId.EXAMPLE1, horizon=5.0), 4)
    assert 1.04 / 3 <= long.delta_p <= 1.04 * 3


def test_horizon_growth_ratios():
    result = run_sweep(SweepGrid(orders=(8,), horizons=(1.0, 2.0)))
    reference = result.lookup(8, horizon=1.0).delta_p_median
    assert 0.0 < reference < math.inf
    assert 3.0 <= result.lookup(8, horizon=2.0).delta_p_median / reference <= 100.0


def test_square_root_benchmark_long_horizon_blowup():
    # The square-root benchmark over five time units is strongly ill-posed:
    # the reconstruction stays finite but the error explodes.
    prob = benchmark_problem(BenchmarkId.EXAMPLE2, horizon=5.0)
    report = run_case(prob, 12, scheme=CollocationScheme(4, 4, 5))
    assert math.isfinite(report.delta_p)
    assert report.delta_p > 10.0


def test_noise_damping_regime():
    # With beta = 1e-3 at order 6 the flux error is pinned near 0.10 across
    # noise levels up to 5 percent.
    result = run_sweep(SweepGrid(orders=(6,), betas=(1e-3,), noise_levels=(0.0, 0.01, 0.05),
                                 seeds=tuple(range(8))))
    for level in (0.0, 0.01, 0.05):
        row = result.lookup(6, beta=1e-3, noise_level=level)
        assert 0.10 / 2 <= row.delta_p_median <= 0.10 * 2

    clean = run_sweep(SweepGrid(orders=(6,), betas=(1e-3,)))
    zero_row = result.lookup(6, beta=1e-3, noise_level=0.0)
    assert zero_row.delta_p_median == clean.records[0].delta_p


# (factory, p0, p1) for s = p0 + p1 t, or (factory, alpha, t0) for s = 2 alpha sqrt(t + t0).
FAMILIES = st.one_of(
    st.tuples(st.just(linear_boundary_problem), st.floats(0.1, 2.0), st.floats(-0.5, 2.0)),
    st.tuples(st.just(sqrt_boundary_problem), st.floats(0.1, 2.0), st.floats(0.05, 1.0)))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(family=FAMILIES, order=st.integers(3, 16), horizon=st.floats(0.2, 2.0),
       beta=st.sampled_from([0.0, 1e-6, 1e-3]), level=st.sampled_from([0.0, 0.01]),
       seed=st.integers(0, 99))
def test_run_case_is_finite_or_fails_typed(family, order, horizon, beta, level, seed):
    # Random members of both families either reconstruct with finite metrics
    # or raise a typed error; no other exception and no silent nan.
    factory, first, second = family
    try:
        report = run_case(factory(first, second, horizon=horizon), order, beta=beta,
                          noise=NoiseSpec(level, seed) if level else None)
    except (NumericalError, ValueError):
        return
    values = [report.delta_p, report.delta_u, report.condition_number,
              report.residual_norm, report.relative_residual, report.max_abs_flux_error,
              *report.coefficients]
    assert np.all(np.isfinite(values))
