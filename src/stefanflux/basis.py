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

import numpy as np

from .errors import DomainError, check_integer

__all__ = ["HeatPolynomialBasis"]


class HeatPolynomialBasis:
    """Evaluates v_0 .. v_N and their first derivatives.

    Parameters
    ----------
    diffusivity : float
        Thermal diffusivity a > 0 of the underlying heat equation.
    max_order : int
        Largest usable order N >= 0.

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
        if not np.isfinite(diffusivity) or diffusivity <= 0.0:
            raise DomainError(f"diffusivity must be a positive finite number, got {diffusivity}")
        self.diffusivity = diffusivity
        self.max_order = check_integer(max_order, "max_order", 0)

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

    def design(self, x, t, deriv="value"):
        """Evaluate v_0 .. v_N, or their first derivative in x or t, at once.

        Returns an array of shape (N + 1,) + broadcast(x, t).shape whose row n
        is the order-n function.  Row n + 1 is x v_n + 2 a^2 n t v_{n-1},
        computed from rows n and n - 1 alone, so rows do not depend on N.
        """
        if deriv not in ("value", "dx", "dt"):
            raise DomainError(f"deriv must be 'value', 'dx' or 'dt', got {deriv!r}")
        xb, tb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        # Flat rows, so that rows[n] is a writable view even for scalar input.
        xs = xb.reshape(-1)
        st = (2.0 * self.diffusivity * self.diffusivity) * tb.reshape(-1)
        rows = np.empty((self.size, xs.size))
        rows[0] = 1.0
        rows[1:2] = xs
        term = np.empty_like(st)
        for n in range(1, self.max_order):
            np.multiply(st, rows[n - 1], out=term)
            term *= n
            np.multiply(xs, rows[n], out=rows[n + 1])
            rows[n + 1] += term
        rows = rows.reshape((self.size,) + xb.shape)
        if deriv == "value":
            return rows
        # Ladder identities: d/dx v_n = n v_{n-1}, d/dt v_n = a^2 n (n-1) v_{n-2}.
        column = (slice(None),) + (None,) * xb.ndim
        out = np.zeros_like(rows)
        if deriv == "dx":
            np.multiply(np.arange(1, self.size)[column], rows[:-1], out=out[1:])
        else:
            a2 = self.diffusivity * self.diffusivity
            scale = np.array([a2 * n * (n - 1) for n in range(2, self.size)])
            np.multiply(scale[column], rows[:-2], out=out[2:])
        return out

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
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise DomainError(
                f"expected {self.size} coefficients for max_order {self.max_order}, "
                f"got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("coefficients must be finite")
        acc = (coeffs @ rows.reshape(self.size, -1)).reshape(rows.shape[1:])
        return float(acc) if acc.ndim == 0 else acc
