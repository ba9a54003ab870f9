"""Error functionals: exact-fit sanity, analytic identities, invariances."""

import dataclasses
import math

import numpy as np
import pytest

from stefanflux import (
    HeatPolynomialBasis,
    assemble,
    delta_p,
    delta_u,
    example1,
    example2,
    flux_curve,
    preset_scheme,
    solve_direct,
)
from stefanflux.quadrature import composite_nodes


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
    nodes, weights = composite_nodes(0.0, prob.horizon, 256)
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


def test_published_temperature_error_window():
    # Order 8 on the square-root benchmark lands near the reference 9.6e-3.
    prob = example2()
    basis = HeatPolynomialBasis(1.0, 8)
    coeffs = solve_direct(assemble(prob, basis, preset_scheme(8)))
    du = delta_u(coeffs, prob, basis)
    assert 9.6e-3 / 3 <= du <= 9.6e-3 * 3
