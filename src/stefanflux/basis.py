"""Polynomial solutions of the one-dimensional heat equation.

The functions

    v_n(x, t) = sum_{m=0}^{floor(n/2)} a^(2m) * n! / (m! (n-2m)!) * x^(n-2m) t^m

satisfy v_t = a^2 v_xx exactly for every order n, reduce to the monomials
x^n at t = 0, and obey the three-term recurrence and ladder identities

    v_{n+1} = x v_n + 2 a^2 n t v_{n-1}     (Rosenbloom & Widder, 1959),
    d/dx v_n = n v_{n-1},        d/dt v_n = a^2 n (n-1) v_{n-2}.

Truncated combinations sum(c_n v_n) therefore solve the heat equation
identically, which is what makes them usable as trial functions for
boundary-data fitting.
"""

import itertools
import math

import numpy as np

from .errors import DomainError, check_integer

__all__ = ["HeatPolynomialBasis", "RowTable"]
ORDER_BOUND = 1000  # orders lie below it: order N fills N + 1 rows per node, and nodes grow with N


class RowTable:
    """(x, t, deriv) node sets on one point axis and, once filled, the basis rows there."""

    def __init__(self, *sets):
        if not sets:
            raise DomainError("a RowTable needs at least one node set")
        for *_, deriv in sets:
            if deriv not in ("value", "dx", "dt"):
                raise DomainError(f"deriv must be 'value', 'dx' or 'dt', got {deriv!r}")
        shapes = [np.broadcast(x, t).shape for x, t, _ in sets]
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        self.bounds, self.derivs = list(zip([0] + ends[:-1], ends)), [d for *_, d in sets]
        self.x, self.t = np.empty(ends[-1]), np.empty(ends[-1])
        for (x, t, _), (a, b), shape in zip(sets, self.bounds, shapes):
            self.x[a:b].reshape(shape)[...], self.t[a:b].reshape(shape)[...] = x, t
        self.basis = self.buffer = None


class HeatPolynomialBasis:
    """Evaluates v_0 .. v_N and their first derivatives.

    Parameters
    ----------
    diffusivity : float
        Thermal diffusivity a > 0 of the underlying heat equation.
    max_order : int
        Largest usable order N, 0 <= N < ORDER_BOUND.

    Notes
    -----
    Evaluation runs the three-term recurrence from v_0 = 1 and v_1 = x, one
    row update per order, with rounding errors of a few eps * sum |terms| of
    the monomial sum; at t = 0 it forms x^n by repeated products.  Monomial
    coefficients are built separately by

        K_0 = 1,   K_{m+1} = K_m * a^2 (n - 2m)(n - 2m - 1) / (m + 1),

    which avoids explicit factorials and is exact for small integer data.
    """

    def __init__(self, diffusivity, max_order):
        diffusivity = float(diffusivity)
        if not 0.0 < diffusivity < math.inf:  # nan fails it
            raise DomainError(f"diffusivity must be a positive finite number, got {diffusivity}")
        self.diffusivity = diffusivity
        self.max_order = check_integer(max_order, "max_order", 0, ORDER_BOUND)

    def __repr__(self):
        return f"HeatPolynomialBasis(diffusivity={self.diffusivity!r}, max_order={self.max_order})"

    @property
    def size(self):
        """Number of basis functions, N + 1."""
        return self.max_order + 1

    def _check_order(self, n):
        return check_integer(n, "order", 0, self.max_order + 1)

    def coefficients(self, n):
        """Coefficients K_m of the monomials x^(n-2m) t^m for m = 0 .. floor(n/2).

        Returns
        -------
        list of float
            [K_0, K_1, ...] with K_m = a^(2m) n! / (m! (n-2m)!).
        """
        n = self._check_order(n)
        a2 = self.diffusivity * self.diffusivity
        coeffs = [1.0]
        k = 1.0
        for m in range(n // 2):
            k *= a2 * (n - 2 * m) * (n - 2 * m - 1) / (m + 1)
            coeffs.append(k)
        return coeffs

    def rows(self, table, order, *which):
        """Rows 0 .. order of the named sets of a RowTable, each (order + 1, points): value rows
        are views of the table, dx and dt rows new arrays from the ladder identities (orders as
        floats: the same bits).  The first call fills the table, one recurrence over all its
        points up to max_order; row n + 1 is x v_n + 2 a^2 n t v_{n-1}, from rows n and n - 1
        alone, so rows do not depend on N."""
        order = self._check_order(order)
        if table.basis is None:
            table.basis, table.buffer = self, np.empty((max(self.size, 2), table.x.size))
            rows, xs, term = table.buffer, table.x, np.empty_like(table.x)
            st = (2.0 * self.diffusivity * self.diffusivity) * table.t
            rows[0], rows[1] = 1.0, xs
            for n in range(1, self.max_order):
                np.multiply(st, rows[n - 1], term)
                term *= n
                np.multiply(xs, rows[n], rows[n + 1])
                rows[n + 1] += term
        elif table.basis is not self:
            raise DomainError("a RowTable is filled by the basis that filled it first")
        return [self._ladder(table, i, order) for i in which]

    def _ladder(self, table, i, order):
        """Set i's rows 0 .. order: value rows as a view of the table, d/dx v_n = n v_{n-1} and
        d/dt v_n = a^2 n (n-1) v_{n-2} as a new array."""
        rows, deriv = table.buffer[:order + 1, slice(*table.bounds[i])], table.derivs[i]
        if deriv == "value":
            return rows
        lag, out = 1 + (deriv == "dt"), np.empty(rows.shape)
        n, out[:lag] = np.arange(float(len(rows)))[lag:, None], 0.0
        np.multiply(n if lag == 1 else self.diffusivity * self.diffusivity * n * (n - 1.0),
                    rows[:len(rows) - lag], out=out[lag:])
        return out

    def design(self, x, t, deriv="value"):
        """Evaluate v_0 .. v_N, or their first derivative in x or t, at once: the rows of a
        one-set RowTable, shaped (N + 1,) + broadcast(x, t).shape."""
        (rows,) = self.rows(RowTable((x, t, deriv)), self.max_order, 0)
        return rows.reshape((self.size,) + np.broadcast_shapes(np.shape(x), np.shape(t)))

    def _row(self, n, x, t, deriv):
        n = self._check_order(n)
        row = self.design(x, t, deriv)[n]
        return float(row) if row.ndim == 0 else row

    def eval(self, n, x, t):
        """Evaluate v_n at (x, t).  Accepts scalars or broadcastable arrays."""
        return self._row(n, x, t, "value")

    def eval_dx(self, n, x, t):
        """Evaluate d/dx v_n at (x, t) via the ladder identity n v_{n-1}."""
        return self._row(n, x, t, "dx")

    def eval_combination(self, coeffs, x, t, deriv="value"):
        """Evaluate sum(c_n * v_n) or its first derivative in x or t.

        Parameters
        ----------
        coeffs : sequence of float
            Exactly N + 1 finite coefficients, index = order.
        x, t : scalars or broadcastable arrays
        deriv : {"value", "dx", "dt"}
        """
        return self.combine(coeffs, self.design(x, t, deriv))

    def combine(self, coeffs, rows):
        """Sum c_n * rows[n] over a design() block as one BLAS vector-matrix
        product, which rounds within a few eps * sum |c_n rows[n]|."""
        acc = self.combine_rows([coeffs], rows)[0].reshape(rows.shape[1:])
        return float(acc) if acc.ndim == 0 else acc

    def combine_rows(self, block, rows):
        """combine for each row of an (h, N + 1) block, flat: one gemv per row, so
        each row rounds as it does alone (a gemm over the block would not)."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.size:
            raise DomainError(f"expected {self.size} coefficients for max_order "
                              f"{self.max_order}, got shape {block.shape[1:]}")
        if not np.isfinite(block).all():
            raise DomainError("coefficients must be finite")
        return (block[:, None, :] @ rows.reshape(self.size, -1))[:, 0, :]
