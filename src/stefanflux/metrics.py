"""Relative error functionals for reconstructed solutions.

delta_p compares boundary fluxes in a relative L2 sense over [0, T]:

    delta_p = sqrt( int (-lam u_N_x(0,t) + lam u_x(0,t))^2 dt
                    / int (lam u_x(0,t))^2 dt )

delta_u does the same for the temperature over the curvilinear domain
0 <= x <= s(t), 0 <= t <= T.  Both need the problem's exact oracles; an oracle,
difference or result that is not finite raises NumericalError (errors.check_finite), while a
row whose squares alone overflow is summed again scaled by its largest difference.

_delta_p_grid and _delta_u_grid give a functional's node set and a function that
evaluates its oracle once.  _error maps an (h, K) block of coefficients to h values
on the K design rows at those nodes, each rounded as its row alone; delta_p and delta_u
are a block of one on design rows of their own.
"""

import numpy as np

from . import quadrature
from .errors import DomainError, check_finite, check_integer

__all__ = ["delta_p", "delta_u", "flux_curve"]


def _require_oracle(problem, attr):
    f = getattr(problem, attr)
    if f is None:
        raise DomainError(f"problem has no {attr} oracle; errors are undefined without it")
    return f


def _error(basis, rows, factor, ref, squares, denom, what):
    """Blocks to sqrt(squares(d) / denom) per row, d = factor * combine_rows(block, rows) - ref
    (no factor if None), squares summing w d^2 in place.  A row whose squares alone overflow is
    measured as scale * sqrt(squares(d / scale) / denom), scale = max |d|."""
    def diffs(block):
        d = basis.combine_rows(block, rows)
        if factor is not None:
            d *= factor
        d -= ref
        return d

    def error(block):
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.sqrt(squares(diffs(block)) / denom)
            if not np.isfinite(values).all():  # non-finite differences make nan, which raises
                huge = np.isinf(values)
                d = diffs(np.asarray(block)[huge])
                scale = np.abs(d).max(axis=1)
                values[huge] = scale * np.sqrt(squares(d / scale[:, None]) / denom)
                check_finite(values, f"{what} is not finite")  # finite values pass the test above
        return values.tolist()

    return error


def _delta_p_grid(problem, quad_points=256):
    """delta_p's (x, t, deriv) node set, ceil(quad_points / 16) panels of 16 nodes, and a function
    of no arguments that gives the arguments of _error after rows there from the flux oracle.
    1 <= quad_points < 1e5, as flux_curve's samples."""
    quad_points = check_integer(quad_points, "quad_points", 1, 10**5)
    nodes, weights = quadrature.subdivided_nodes(0.0, problem.horizon, -(-quad_points // 16), 16)

    def oracle():
        lam, exact_ux0 = problem.conductivity, _require_oracle(problem, "exact_flux_gradient")
        with np.errstate(over="ignore", invalid="ignore"):
            ref = -lam * exact_ux0(nodes)
            # The weights are positive, so the norm is finite only if ref is.
            denom = check_finite(float(weights @ (ref * ref)), "exact flux norm is not finite")
        if denom == 0.0:
            raise DomainError("exact flux is identically zero on the quadrature grid")
        return (-lam, ref, lambda d: (np.square(d, out=d)[:, None, :] @ weights)[:, 0], denom,
                "delta_p")

    return (0.0, nodes, "dx"), oracle


def _delta_u_grid(problem, quad_points_t=64, quad_points_x=64):
    """delta_u's (x, t, deriv) node set over 0 <= x <= s(t), and a function of no arguments that
    gives the arguments of _error after rows there from the temperature oracle.  Each count lies
    in [1, 1000), as a scheme's quadrature order does."""
    quad_points_t = check_integer(quad_points_t, "quad_points_t", 1, 1000)
    quad_points_x = check_integer(quad_points_x, "quad_points_x", 1, 1000)
    t_nodes, t_weights = quadrature.panel_nodes(0.0, problem.horizon, quad_points_t)
    s_vals = problem.boundary(t_nodes)
    unit, unit_w = quadrature.panel_nodes(0.0, 1.0, quad_points_x)
    x_grid = s_vals[:, None] * unit
    t_grid = t_nodes[:, None].repeat(quad_points_x, axis=1)
    # Jacobian of x = s(t) * xi maps the inner weights onto [0, s(t)].
    w_grid = ((t_weights * s_vals)[:, None] * unit_w).reshape(-1)

    def oracle():
        exact = _require_oracle(problem, "exact_solution")
        with np.errstate(over="ignore", invalid="ignore"):
            ref = exact(x_grid, t_grid).reshape(-1)
            denom = check_finite(float(np.sum(w_grid * ref * ref)),
                                 "exact solution norm is not finite")
        if denom == 0.0:
            raise DomainError("exact solution is identically zero on the quadrature grid")
        return (None, ref, lambda d: np.multiply(np.square(d, out=d), w_grid, out=d).sum(axis=1),
                denom, "delta_u")

    return (x_grid, t_grid, "value"), oracle


def _measure(coeffs, basis, nodes, oracle):
    """The error of one coefficient vector on a (nodes, oracle) grid, on design rows of its own."""
    return _error(basis, basis.design(*nodes), *oracle())([coeffs])[0]


def delta_p(coeffs, problem, basis, quad_points=256):
    """Relative L2 flux error against the exact boundary gradient oracle."""
    return _measure(coeffs, basis, *_delta_p_grid(problem, quad_points))


def delta_u(coeffs, problem, basis, quad_points_t=64, quad_points_x=64):
    """Relative L2 temperature error over the curvilinear domain."""
    return _measure(coeffs, basis, *_delta_u_grid(problem, quad_points_t, quad_points_x))


def _flux_nodes(problem, samples=101):
    """flux_curve's (x, t, deriv) node set: samples uniform times at x = 0, 2 <= samples < 1e5."""
    samples = check_integer(samples, "samples", 2, 10**5)
    return 0.0, quadrature.uniform(0.0, problem.horizon, samples), "dx"


def flux_curve(coeffs, problem, basis, samples=101, rows=None):
    """Sampled boundary gradient curve on a uniform time grid.

    Returns a list of (t, ux0_reconstructed, ux0_exact, abs_error) tuples;
    the exact columns are nan when the problem has no flux oracle.  rows, the
    dx rows at _flux_nodes, are evaluated here unless a caller has them.
    """
    nodes = _flux_nodes(problem, samples)
    ts = nodes[1]
    with np.errstate(over="ignore", invalid="ignore"):
        rec = basis.combine(coeffs, basis.design(*nodes) if rows is None else rows)
        if problem.exact_flux_gradient is not None:
            ref = np.asarray(problem.exact_flux_gradient(ts), dtype=float)
            err = check_finite(np.abs(rec - ref), "flux error is not finite")
        else:
            ref = np.full_like(ts, np.nan)
            err = np.full_like(ts, np.nan)
    return list(zip(ts.tolist(), rec.tolist(), ref.tolist(), err.tolist()))
