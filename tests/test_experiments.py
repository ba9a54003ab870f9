"""Sweep orchestration: determinism, aggregation, failure handling, windows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanflux import (
    BenchmarkId,
    CollocationScheme,
    HeatPolynomialBasis,
    NoiseSpec,
    NumericalError,
    SingularMatrixError,
    SweepGrid,
    assemble,
    benchmark_problem,
    condition_number,
    degradation_ratios,
    delta_p,
    delta_u,
    example1,
    horizon_study,
    linear_boundary_problem,
    noise_study,
    preset_scheme,
    run_case,
    run_sweep,
    solve_direct,
    sqrt_boundary_problem,
)
from stefanflux.experiments import _error_tag


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
    with pytest.raises(ValueError):
        SweepGrid(orders=(8,), benchmark="example9")
    grid = SweepGrid(orders=[8], benchmark="example2")
    assert grid.benchmark is BenchmarkId.EXAMPLE2
    assert grid.orders == (8,)


def test_sweep_determinism_and_worker_invariance():
    grid = SweepGrid(orders=(4, 6), betas=(0.0, 1e-6), noise_levels=(0.0, 0.01),
                     seeds=(0, 1))
    serial = run_sweep(grid)
    again = run_sweep(grid)
    assert serial.records == again.records  # wall_time is excluded from equality
    parallel = run_sweep(grid, jobs=2)
    assert parallel.records == serial.records


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
    result = horizon_study(BenchmarkId.EXAMPLE1, horizons=(1.0, 2.0), orders=(8,))
    ratios = degradation_ratios(result)
    assert ratios[(8, 1.0)] == 1.0
    assert 3.0 <= ratios[(8, 2.0)] <= 100.0


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
    result = noise_study(BenchmarkId.EXAMPLE1, orders=(6,), betas=(1e-3,),
                         levels=(0.0, 0.01, 0.05), seeds=tuple(range(8)))
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
