"""Square collocation system built from integrated residuals.

Each unknown coefficient vector c of a truncated combination
u_N = sum(c_n v_n) is pinned down by integrating the three residuals over
equal subintervals:

  * interface temperature rows, i = 1..n_dirichlet over [0, T]:
      int v_n(s(t), t) dt = u_star * dt
  * interface energy-balance rows, i = 1..n_stefan over [0, T]:
      int -conductivity * d/dx v_n(s(t), t) dt = int data(t) dt
  * initial rows, j = 1..n_initial over [0, s(0)]:
      int x^n dx = int f(x) dx

which yields an (N+1) x (N+1) LinearSystem, a matrix and its rhs with rows ordered
temperature, energy balance, initial, when the three counts sum to N + 1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .basis import ORDER_BOUND, RowTable
from .errors import DomainError, NumericalError, check_integer

__all__ = ["CollocationScheme", "LinearSystem", "preset_scheme", "assemble", "stefan_nodes",
           "interface_nodes", "panel_sums"]


def check_quadrature_order(order):
    """order as an int; DomainError unless it is an integer in [8, 1000)."""
    return check_integer(order, "quadrature_order", 8, 1000)


@dataclass(frozen=True)
class CollocationScheme:
    """Partition counts for the three condition families plus quadrature order.

    n_dirichlet + n_stefan + n_initial must equal the basis size N + 1 at
    assembly time; n_dirichlet >= n_stefan mirrors the partition strategy the
    benchmark tables were generated with.
    """

    n_dirichlet: int
    n_stefan: int
    n_initial: int
    quadrature_order: int = 16

    def __post_init__(self):
        for name in ("n_dirichlet", "n_stefan", "n_initial"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, 1))
        if self.n_dirichlet < self.n_stefan:
            raise DomainError(
                f"n_dirichlet ({self.n_dirichlet}) must be >= n_stefan ({self.n_stefan})")
        object.__setattr__(self, "quadrature_order", check_quadrature_order(self.quadrature_order))

    @property
    def size(self):
        return self.n_dirichlet + self.n_stefan + self.n_initial


def preset_scheme(order, quadrature_order=16):
    """Default partition counts for a given basis order, 3 <= order < basis.ORDER_BOUND.

    One initial subinterval up to system size 11, two beyond; the remainder
    is split so the temperature count strictly exceeds the energy-balance
    count.  Reproduces the published pairings (6, 5, 2) at order 12 and
    (6, 4, 1) at order 10.
    """
    size = check_integer(order, "order", 3, ORDER_BOUND) + 1  # a preset needs order >= 3
    n_initial = 1 if size <= 11 else 2
    rem = size - n_initial
    n_stefan = (rem - 1) // 2
    n_dirichlet = rem - n_stefan
    return _preset(n_dirichlet, n_stefan, n_initial, check_quadrature_order(quadrature_order))


_preset = lru_cache(maxsize=None)(CollocationScheme)  # on checked counts: one scheme per preset


@dataclass(frozen=True)
class LinearSystem:
    """Assembled square system: rows temperature, energy balance, initial."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DomainError(f"matrix must be square, got shape {self.matrix.shape}")
        if self.rhs.shape != (self.matrix.shape[0],):
            raise DomainError("rhs length must match matrix size")

    @property
    def size(self):
        return self.matrix.shape[0]


def _require_finite(matrix, rhs, family):
    if not abs(matrix.sum() + rhs.sum()) < np.inf:  # one pass; finite sums may overflow here
        bad = np.flatnonzero(~(np.isfinite(matrix).all(axis=1) & np.isfinite(rhs)))
        if bad.size:
            raise NumericalError(f"non-finite value while assembling {family} row {bad[0] + 1}")


def panel_sums(weighted, q):
    """Sums of each panel's q nodes on the last axis; every row rounds as it does alone."""
    return weighted.reshape(weighted.shape[:-1] + (-1, q)).sum(axis=-1)


def stefan_nodes(problem, scheme):
    """Quadrature times and weights of the energy-balance rows, panel by panel."""
    return quadrature.subdivided_nodes(0.0, problem.horizon, scheme.n_stefan, scheme.quadrature_order)


def interface_nodes(problem, scheme):
    """(times, weights, s(times)) of the temperature rows' and of the energy-balance rows'
    quadrature nodes."""
    return tuple((t, w, problem.boundary(t)) for t, w in (
        quadrature.subdivided_nodes(0.0, problem.horizon, scheme.n_dirichlet,
                                    scheme.quadrature_order), stefan_nodes(problem, scheme)))


def assemble(problem, basis, scheme, nodes=None, rows=None):
    """Build the collocation system for the given problem and basis from clean data.

    nodes, the interface_nodes, and rows, which maps 0 to the value rows at the temperature
    nodes and 1 to the dx rows at the energy-balance nodes (the latter only once the former are
    finite), are evaluated here unless a caller has them.  The
    energy-balance right side uses the closed form latent_heat * density * (s(t_i) - s(t_{i-1})).
    Measured or noisy data, sampled at stefan_nodes, replaces it by the panel_sums of the
    weighted data.
    """
    size = basis.size
    if scheme.size != size:
        raise DomainError(
            f"scheme rows ({scheme.size}) must equal basis size ({size}); "
            f"adjust the partition counts to sum to max_order + 1")
    horizon = problem.horizon
    q = scheme.quadrature_order

    with np.errstate(over="ignore", invalid="ignore"):
        (t_nodes, t_weights, s_nodes), (ts_nodes, ts_weights, ss_nodes) = (
            nodes or interface_nodes(problem, scheme))
        if rows is None:
            table = RowTable((s_nodes, t_nodes, "value"), (ss_nodes, ts_nodes, "dx"))
            rows = lambda family: basis.rows(table, basis.max_order, family)[0]
        # Interface temperature rows.
        dirichlet = panel_sums(t_weights * rows(0), q).T
        dirichlet_rhs = np.full(scheme.n_dirichlet,
                                problem.melt_temperature * (horizon / scheme.n_dirichlet))
        _require_finite(dirichlet, dirichlet_rhs, "dirichlet")

        # Interface energy-balance rows.
        stefan = panel_sums(ts_weights * (-problem.conductivity) * rows(1), q).T
        s_edges = problem.boundary(quadrature.uniform(0.0, horizon, scheme.n_stefan + 1))
        stefan_rhs = problem.latent_heat * problem.density * (s_edges[1:] - s_edges[:-1])
        _require_finite(stefan, stefan_rhs, "stefan")

        # Initial rows; the matrix entries have the closed form
        # (x_j^(n+1) - x_{j-1}^(n+1)) / (n + 1).
        s0 = float(s_edges[0])
        x_edges = quadrature.uniform(0.0, s0, scheme.n_initial + 1)
        powers = x_edges ** (exponents := np.arange(1, size + 1)[:, None])
        initial = ((powers[:, 1:] - powers[:, :-1]) / exponents).T
        x_nodes, x_weights = quadrature.subdivided_nodes(0.0, s0, scheme.n_initial, q)
        f_vals = problem.initial_profile(x_nodes)
        initial_rhs = panel_sums(x_weights * f_vals, q)
        _require_finite(initial, initial_rhs, "initial")

    # The blocks are transposed views; products with a transposed matrix round
    # differently, so the system keeps C order.
    matrix = np.ascontiguousarray(np.concatenate([dirichlet, stefan, initial]))
    rhs = np.concatenate([dirichlet_rhs, stefan_rhs, initial_rhs])
    return LinearSystem(matrix=matrix, rhs=rhs)
