"""Relative error functionals for reconstructed solutions.

delta_p compares boundary fluxes in a relative L2 sense over [0, T]:

    delta_p = sqrt( int (-lam u_N_x(0,t) + lam u_x(0,t))^2 dt
                    / int (lam u_x(0,t))^2 dt )

delta_u does the same for the temperature over the curvilinear domain
0 <= x <= s(t), 0 <= t <= T.  Both need the problem's exact oracles.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature

__all__ = ["ErrorReport", "delta_p", "delta_u", "flux_curve", "coefficient_decay",
           "error_report"]


@dataclass(frozen=True)
class ErrorReport:
    """Bundle of the error functionals plus the sampled flux curve."""

    delta_p: float
    delta_u: float
    max_abs_flux_error: float
    flux_curve: tuple


def _require_oracle(problem, attr):
    f = getattr(problem, attr)
    if f is None:
        raise ValueError(f"problem has no {attr} oracle; errors are undefined without it")
    return f


def delta_p(coeffs, problem, basis, quad_points=256):
    """Relative L2 flux error against the exact boundary gradient oracle."""
    exact_ux0 = _require_oracle(problem, "exact_flux_gradient")
    if quad_points < 1:
        raise ValueError(f"quad_points must be >= 1, got {quad_points}")
    nodes, weights = quadrature.composite_nodes(0.0, problem.horizon, quad_points)
    lam = problem.conductivity
    rec = -lam * basis.eval_combination(coeffs, 0.0, nodes, deriv="dx")
    ref = -lam * exact_ux0(nodes)
    denom = float(weights @ (ref * ref))
    if denom == 0.0:
        raise ValueError("exact flux is identically zero on the quadrature grid")
    num = float(weights @ ((rec - ref) ** 2))
    return float(np.sqrt(num / denom))


def delta_u(coeffs, problem, basis, quad_points_t=64, quad_points_x=64):
    """Relative L2 temperature error over the curvilinear domain."""
    exact = _require_oracle(problem, "exact_solution")
    if quad_points_t < 1 or quad_points_x < 1:
        raise ValueError("quadrature point counts must be >= 1")
    t_nodes, t_weights = quadrature.panel_nodes(0.0, problem.horizon, quad_points_t)
    s_vals = problem.boundary(t_nodes)
    unit, unit_w = quadrature.panel_nodes(0.0, 1.0, quad_points_x)
    x_grid = np.outer(s_vals, unit)
    t_grid = np.broadcast_to(t_nodes[:, None], x_grid.shape)
    # Jacobian of x = s(t) * xi maps the inner weights onto [0, s(t)].
    w_grid = np.outer(t_weights * s_vals, unit_w)
    ref = exact(x_grid, t_grid)
    rec = basis.eval_combination(coeffs, x_grid, t_grid)
    denom = float(np.sum(w_grid * ref * ref))
    if denom == 0.0:
        raise ValueError("exact solution is identically zero on the quadrature grid")
    num = float(np.sum(w_grid * (rec - ref) ** 2))
    return float(np.sqrt(num / denom))


def flux_curve(coeffs, problem, basis, samples=101):
    """Sampled boundary gradient curve on a uniform time grid.

    Returns a list of (t, ux0_reconstructed, ux0_exact, abs_error) tuples;
    the exact columns are nan when the problem has no flux oracle.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    ts = np.linspace(0.0, problem.horizon, samples)
    rec = basis.eval_combination(coeffs, 0.0, ts, deriv="dx")
    if problem.exact_flux_gradient is not None:
        ref = problem.exact_flux_gradient(ts)
        err = np.abs(rec - ref)
    else:
        ref = np.full_like(ts, np.nan)
        err = np.full_like(ts, np.nan)
    return [(float(a), float(b), float(c), float(d))
            for a, b, c, d in zip(ts, rec, ref, err)]


def coefficient_decay(coeffs, t_ref, horizon=0.0):
    """Coefficient magnitudes against the reference envelope C (e / (2 n t_ref))^(n/2).

    Valid for t_ref beyond the time horizon the coefficients were fit on.
    C is chosen so the envelope touches the largest ratio |c_n| / shape_n,
    making the returned bounds tight from above.  Diagnostic only.
    """
    t_ref = float(t_ref)
    if t_ref <= horizon:
        raise ValueError(f"t_ref must exceed the horizon {horizon}, got {t_ref}")
    coeffs = np.asarray(coeffs, dtype=float)
    shapes = np.empty(coeffs.shape)
    shapes[0] = 1.0
    for n in range(1, coeffs.size):
        shapes[n] = (np.e / (2.0 * n * t_ref)) ** (n / 2.0)
    scale = float(np.max(np.abs(coeffs) / shapes))
    return [(n, float(abs(coeffs[n])), float(scale * shapes[n]))
            for n in range(coeffs.size)]


def error_report(coeffs, problem, basis, samples=101, quad_points=256,
                 quad_points_t=64, quad_points_x=64):
    """Evaluate both error functionals and the flux curve in one pass."""
    curve = flux_curve(coeffs, problem, basis, samples)
    return ErrorReport(
        delta_p=delta_p(coeffs, problem, basis, quad_points),
        delta_u=delta_u(coeffs, problem, basis, quad_points_t, quad_points_x),
        max_abs_flux_error=float(max(row[3] for row in curve)),
        flux_curve=tuple(curve))
