"""Relative error functionals for reconstructed solutions.

delta_p compares boundary fluxes in a relative L2 sense over [0, T]:

    delta_p = sqrt( int (-lam u_N_x(0,t) + lam u_x(0,t))^2 dt
                    / int (lam u_x(0,t))^2 dt )

delta_u does the same for the temperature over the curvilinear domain
0 <= x <= s(t), 0 <= t <= T.  Both need the problem's exact oracles, and an
oracle or a result that is not finite (say, on overflow) raises NumericalError.
"""

import numpy as np

from . import quadrature
from .errors import DomainError, NumericalError

__all__ = ["delta_p", "delta_u", "flux_curve"]


def _require_oracle(problem, attr):
    f = getattr(problem, attr)
    if f is None:
        raise DomainError(f"problem has no {attr} oracle; errors are undefined without it")
    return f


def _require_finite(value, what):
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} is not finite")
    return value


def _delta_p_on(problem, basis, quad_points=256):
    """delta_p as a function of the coefficients, its grid built once for many solves."""
    exact_ux0 = _require_oracle(problem, "exact_flux_gradient")
    if quad_points < 1:
        raise DomainError(f"quad_points must be >= 1, got {quad_points}")
    nodes, weights = quadrature.composite_nodes(0.0, problem.horizon, quad_points)
    lam = problem.conductivity
    rows = basis.design(0.0, nodes, "dx")
    with np.errstate(over="ignore", invalid="ignore"):
        ref = -lam * exact_ux0(nodes)
        # The weights are positive, so the norm is finite only if ref is.
        denom = _require_finite(float(weights @ (ref * ref)), "exact flux norm")
    if denom == 0.0:
        raise DomainError("exact flux is identically zero on the quadrature grid")

    def error(coeffs):
        with np.errstate(over="ignore", invalid="ignore"):
            num = float(weights @ ((-lam * basis.combine(coeffs, rows) - ref) ** 2))
            return _require_finite(float(np.sqrt(num / denom)), "delta_p")

    return error


def _delta_u_on(problem, basis, quad_points_t=64, quad_points_x=64):
    """delta_u as a function of the coefficients, its grid built once for many solves."""
    exact = _require_oracle(problem, "exact_solution")
    if quad_points_t < 1 or quad_points_x < 1:
        raise DomainError("quadrature point counts must be >= 1")
    t_nodes, t_weights = quadrature.panel_nodes(0.0, problem.horizon, quad_points_t)
    s_vals = problem.boundary(t_nodes)
    unit, unit_w = quadrature.panel_nodes(0.0, 1.0, quad_points_x)
    x_grid = np.outer(s_vals, unit)
    t_grid = np.broadcast_to(t_nodes[:, None], x_grid.shape)
    # Jacobian of x = s(t) * xi maps the inner weights onto [0, s(t)].
    w_grid = np.outer(t_weights * s_vals, unit_w)
    rows = basis.design(x_grid, t_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = exact(x_grid, t_grid)
        denom = _require_finite(float(np.sum(w_grid * ref * ref)), "exact solution norm")
    if denom == 0.0:
        raise DomainError("exact solution is identically zero on the quadrature grid")

    def error(coeffs):
        with np.errstate(over="ignore", invalid="ignore"):
            num = float(np.sum(w_grid * (basis.combine(coeffs, rows) - ref) ** 2))
            return _require_finite(float(np.sqrt(num / denom)), "delta_u")

    return error


def delta_p(coeffs, problem, basis, quad_points=256):
    """Relative L2 flux error against the exact boundary gradient oracle."""
    return _delta_p_on(problem, basis, quad_points)(coeffs)


def delta_u(coeffs, problem, basis, quad_points_t=64, quad_points_x=64):
    """Relative L2 temperature error over the curvilinear domain."""
    return _delta_u_on(problem, basis, quad_points_t, quad_points_x)(coeffs)


def flux_curve(coeffs, problem, basis, samples=101):
    """Sampled boundary gradient curve on a uniform time grid.

    Returns a list of (t, ux0_reconstructed, ux0_exact, abs_error) tuples;
    the exact columns are nan when the problem has no flux oracle.
    """
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    ts = np.linspace(0.0, problem.horizon, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = basis.eval_combination(coeffs, 0.0, ts, deriv="dx")
        if problem.exact_flux_gradient is not None:
            ref = np.asarray(problem.exact_flux_gradient(ts), dtype=float)
            err = _require_finite(np.abs(rec - ref), "flux error")
        else:
            ref = np.full_like(ts, np.nan)
            err = np.full_like(ts, np.nan)
    return list(zip(ts.tolist(), rec.tolist(), ref.tolist(), err.tolist()))
