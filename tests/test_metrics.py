"""Error functionals: exact-fit sanity, analytic identities, invariances."""

import dataclasses
import math

import numpy as np
import pytest

from stefanflux import (
    DomainError,
    HeatPolynomialBasis,
    NoiseSpec,
    NumericalError,
    assemble,
    benchmark_problem,
    delta_p,
    delta_u,
    example1,
    example2,
    flux_curve,
    preset_scheme,
    run_case,
    solve_direct,
    solve_tikhonov,
)
from stefanflux.metrics import _delta_p_grid, _delta_u_grid, _error
from stefanflux.quadrature import panel_nodes, subdivided_nodes


def _block_errors(prob, basis):
    """delta_p's and delta_u's (h, K) block closures on design rows of their own."""
    return [_error(basis, basis.design(*nodes), *oracle())
            for nodes, oracle in (_delta_p_grid(prob), _delta_u_grid(prob))]


def _fit_exact_solution(prob, order, nt=40, nx=12):
    """Least-squares heat-polynomial fit of the exact temperature field."""
    basis = HeatPolynomialBasis(prob.diffusivity, order)
    rows, vals = [], []
    for t in np.linspace(0.0, prob.horizon, nt):
        s = prob.boundary(float(t))
        for x in np.linspace(0.0, s, nx):
            rows.append([basis.eval(n, float(x), float(t)) for n in range(order + 1)])
            vals.append(prob.exact_solution(float(x), float(t)))
    matrix = np.array(rows)
    weights = np.array([1.0 / math.factorial(n) for n in range(order + 1)])
    scaled, *_ = np.linalg.lstsq(matrix * weights, np.array(vals), rcond=None)
    return scaled * weights, basis


def _order12_solution():
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 12)
    system = assemble(prob, basis, preset_scheme(12))
    return prob, basis, solve_direct(system)


def test_exact_fit_drives_both_metrics_to_zero():
    # Fitting the exact solution itself must make both functionals vanish to
    # numerical precision (they are zero iff the residual vanishes).
    prob = example1()
    coeffs, basis = _fit_exact_solution(prob, 16)
    assert delta_p(coeffs, prob, basis) <= 1e-8
    assert delta_u(coeffs, prob, basis) <= 1e-8


def test_constant_gradient_offset_identity():
    # Adding delta to c_1 shifts the reconstructed gradient by exactly delta,
    # so delta_p moves to |delta| / sqrt(int P^2 dt) with
    # int_0^1 P^2 dt = (1/2) e^(2 - sqrt(2)) (e - 1) for the linear benchmark.
    prob, basis, coeffs = _order12_solution()
    denom_sq = 0.5 * math.exp(2.0 - math.sqrt(2.0)) * (math.e - 1.0)
    offset = 0.01
    shifted = coeffs.copy()
    shifted[1] += offset
    assert delta_p(shifted, prob, basis) == pytest.approx(
        offset / math.sqrt(denom_sq), rel=1e-3)

    # The closed form itself cross-checks the quadrature of the denominator.
    nodes, weights = subdivided_nodes(0.0, prob.horizon, 16, 16)
    flux = np.array([-prob.conductivity * prob.exact_flux_gradient(float(t))
                     for t in nodes])
    assert float(weights @ (flux * flux)) == pytest.approx(denom_sq, rel=1e-12)


def test_quadrature_doubling_invariance():
    prob, basis, coeffs = _order12_solution()
    dp = delta_p(coeffs, prob, basis)
    assert abs(delta_p(coeffs, prob, basis, quad_points=512) - dp) <= 1e-10 * dp
    du = delta_u(coeffs, prob, basis)
    assert abs(delta_u(coeffs, prob, basis, 128, 128) - du) <= 1e-10 * du


def test_delta_p_scale_awareness():
    prob, basis, coeffs = _order12_solution()
    dp = delta_p(coeffs, prob, basis)
    k = 3.7
    scaled_prob = dataclasses.replace(
        prob, exact_flux_gradient=lambda t: k * prob.exact_flux_gradient(t))
    assert delta_p(k * coeffs, scaled_prob, basis) == pytest.approx(dp, rel=1e-12)


def test_flux_curve_structure():
    prob, basis, coeffs = _order12_solution()
    two = flux_curve(coeffs, prob, basis, samples=2)
    assert len(two) == 2
    assert two[0][0] == 0.0 and two[1][0] == prob.horizon
    curve = flux_curve(coeffs, prob, basis, samples=11)
    assert len(curve) == 11
    ts = [row[0] for row in curve]
    assert ts == sorted(ts)
    for t, rec, ref, err in curve:
        assert err == pytest.approx(abs(rec - ref), rel=1e-15, abs=1e-300)
        assert ref == pytest.approx(prob.exact_flux_gradient(t), rel=1e-13)
    with pytest.raises(ValueError):
        flux_curve(coeffs, prob, basis, samples=1)


def test_flux_curve_gradient_of_single_modes():
    # d/dx of the order-1 function is 1; of order 2 it vanishes at x = 0; of
    # order 3 it is 6 a^2 t.  Only odd orders contribute on the axis.
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 3)
    e = np.eye(4)
    ts = np.linspace(0.0, 1.0, 5)
    for t, rec, _, _ in flux_curve(e[1], prob, basis, samples=5):
        assert rec == 1.0
    for t, rec, _, _ in flux_curve(e[2], prob, basis, samples=5):
        assert rec == 0.0
    for t, rec, _, _ in flux_curve(e[3], prob, basis, samples=5):
        assert rec == pytest.approx(6.0 * t, rel=1e-14, abs=1e-300)


def test_max_abs_flux_error_scale():
    # Clean order-12 reconstruction keeps the pointwise gradient error at the
    # 1e-6 scale everywhere (regression snapshot).
    prob, basis, coeffs = _order12_solution()
    curve = flux_curve(coeffs, prob, basis)
    assert max(row[3] for row in curve) <= 2e-6


def test_missing_oracles_are_reported():
    prob, basis, coeffs = _order12_solution()
    no_flux = dataclasses.replace(prob, exact_flux_gradient=None)
    with pytest.raises(ValueError, match="exact_flux_gradient"):
        delta_p(coeffs, no_flux, basis)
    no_field = dataclasses.replace(prob, exact_solution=None)
    with pytest.raises(ValueError, match="exact_solution"):
        delta_u(coeffs, no_field, basis)
    curve = flux_curve(coeffs, no_flux, basis, samples=5)
    assert all(math.isnan(row[2]) and math.isnan(row[3]) for row in curve)
    with pytest.raises(ValueError):
        delta_p(coeffs, prob, basis, quad_points=0)
    with pytest.raises(ValueError):
        delta_u(coeffs, prob, basis, quad_points_t=0)
    zero_flux = dataclasses.replace(prob, exact_flux_gradient=lambda t: 0.0)
    with pytest.raises(ValueError, match="identically zero"):
        delta_p(coeffs, zero_flux, basis)


@pytest.mark.parametrize("name", ["quad_points", "quad_points_t", "quad_points_x"])
@pytest.mark.parametrize("bad", [0, -1, 2.5, math.nan, math.inf, "16", 10**12])
def test_quadrature_counts_must_be_positive_integers(name, bad):
    # A count that is not an integer >= 1 is refused by name: not floored, not
    # an overflow, and not an error from inside numpy.  Nor is one past its
    # upper bound, which used to raise numpy's MemoryError.
    prob, basis, coeffs = _order12_solution()
    measure = delta_p if name == "quad_points" else delta_u
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        measure(coeffs, prob, basis, **{name: bad})


def test_published_temperature_error_window():
    # Order 8 on the square-root benchmark lands near the reference 9.6e-3.
    prob = example2()
    basis = HeatPolynomialBasis(1.0, 8)
    coeffs = solve_direct(assemble(prob, basis, preset_scheme(8)))
    du = delta_u(coeffs, prob, basis)
    assert 9.6e-3 / 3 <= du <= 9.6e-3 * 3


@pytest.mark.parametrize("order", [4, 12, 20])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_blocks_equal_rows_alone_and_the_one_row_formulas(name, order):
    # The closures measure an (h, K) block with one gemv per row, so every
    # row equals the row measured alone and the 1-D formulas on the same grids.
    prob = benchmark_problem(name)
    basis = HeatPolynomialBasis(prob.diffusivity, order)
    coeffs = solve_tikhonov(assemble(prob, basis, preset_scheme(order)), 1e-7)
    noise = np.random.default_rng(order).standard_normal((17, order + 1))
    block = coeffs * (1.0 + 1e-3 * noise)
    nodes, weights = subdivided_nodes(0.0, prob.horizon, 16, 16)
    lam = prob.conductivity
    rows_p = basis.design(0.0, nodes, "dx")
    ref_p = -lam * prob.exact_flux_gradient(nodes)
    t_nodes, t_weights = panel_nodes(0.0, prob.horizon, 64)
    s_vals = prob.boundary(t_nodes)
    unit, unit_w = panel_nodes(0.0, 1.0, 64)
    x_grid = np.outer(s_vals, unit)
    t_grid = np.broadcast_to(t_nodes[:, None], x_grid.shape)
    w = np.outer(t_weights * s_vals, unit_w).reshape(-1)
    rows_u = basis.design(x_grid, t_grid).reshape(order + 1, -1)
    ref_u = prob.exact_solution(x_grid, t_grid).reshape(-1)
    denom_p, denom_u = float(weights @ (ref_p * ref_p)), float(np.sum(w * ref_u * ref_u))
    dp_on, du_on = _block_errors(prob, basis)
    alone_p = [dp_on(c[None])[0] for c in block]
    alone_u = [du_on(c[None])[0] for c in block]
    for c, dp, du in zip(block, alone_p, alone_u):
        assert dp == float(np.sqrt(float(weights @ (-lam * (c @ rows_p) - ref_p) ** 2) / denom_p))
        assert du == float(np.sqrt(float(np.sum(w * (c @ rows_u - ref_u) ** 2)) / denom_u))
        assert (dp, du) == (delta_p(c, prob, basis), delta_u(c, prob, basis))
    for h in (1, 2, 7, 8, 9, 17):
        assert dp_on(block[:h]) == alone_p[:h]
        assert du_on(block[:h]) == alone_u[:h]
    for error in (dp_on, du_on):
        for bad in (block[0], block[:, :-1], block[None], np.ones((2, order + 2))):
            with pytest.raises(DomainError, match="coefficients"):
                error(bad)
    for bad in (block[0, :-1], block[:2]):
        with pytest.raises(DomainError, match="coefficients"):
            delta_p(bad, prob, basis)
        with pytest.raises(DomainError, match="coefficients"):
            delta_u(bad, prob, basis)


def test_errors_whose_squares_alone_overflow_are_rescaled():
    # At a constant level of 1e155 the flux differences are finite but their
    # squares overflow; delta_p and delta_u are measured as scale * sqrt(sum
    # w (d / scale)^2), 1e5 times their values at 1e150, and not an overflow.
    # A row that does not overflow keeps its bits beside one that does, and a
    # row whose differences themselves overflow still raises.
    reports = {level: run_case(example1(), 8, noise=NoiseSpec(level, 1, "constant"))
               for level in (1e150, 1e155)}
    for name in ("delta_p", "delta_u"):
        value = getattr(reports[1e155], name)
        assert math.isfinite(value)
        assert value == pytest.approx(1e5 * getattr(reports[1e150], name), rel=1e-6)
    # Past 1e156 the right side's own norm overflows too; the relative residual
    # is then taken on the right side scaled by its largest entry.
    for level in (1e156, 1e160, 1e165):
        report = run_case(example1(), 8, noise=NoiseSpec(level, 1, "constant"))
        assert report.delta_p == pytest.approx(level / 1e150 * reports[1e150].delta_p, rel=1e-6)
        assert 0.0 < report.relative_residual < 1e-12
    prob, basis = example1(), HeatPolynomialBasis(1.0, 8)
    healthy = solve_direct(assemble(prob, basis, preset_scheme(8)))
    huge = np.array(reports[1e155].coefficients)
    for error in _block_errors(prob, basis):
        alone = error(healthy[None])[0]
        assert error(np.array([healthy, huge, healthy])) == [alone, error(huge[None])[0], alone]
        overflowing = healthy.copy()
        overflowing[3] = 1e308  # its flux 6 t c_3 and its values overflow
        with pytest.raises(NumericalError, match="is not finite$"):
            error(np.array([healthy, overflowing]))
