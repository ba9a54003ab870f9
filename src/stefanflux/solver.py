"""Direct and Tikhonov solves and condition numbers from at most three SVDs per matrix.

A Factorization checks its matrix once and computes each SVD at its first
use: that of the column-equilibrated A for the beta = 0 rank test and solve,
that of B = A diag(1/n!) for every beta > 0 solve and condition number, and
the singular values of A for the beta = 0 condition number.  The functions
below factor their system's matrix for one use; a sweep group keeps one
Factorization for all its cells, since noisy data changes only the right side.
"""

from functools import cached_property

import numpy as np

from .errors import NumericalError, SingularMatrixError, check_real

__all__ = [
    "Factorization",
    "condition_number",
    "penalty_weights",
    "solve",
    "solve_direct",
    "solve_tikhonov",
]

# Singular values of the column-equilibrated matrix at or below this times the
# largest count as zero; the count of those above it is the numerical rank.
PIVOT_RTOL = 1e-14


def _check_finite(values, name="matrix"):
    if not np.isfinite(values).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return values


def penalty_weights(size):
    """Per-column weights 1/n! mapping raw coefficients to normalized ones.

    Column n of the collocation matrix carries the order-n basis function,
    whose natural magnitude grows like n!.  Damping is applied to the
    coefficients of the unit-normalized family (order-n function divided by
    n!), so that a single beta acts evenly across orders.  Weights are built
    multiplicatively; no factorial overflow for sizes up to 31.
    """
    weights = np.empty(size)
    weights[0] = 1.0
    for n in range(1, size):
        weights[n] = weights[n - 1] / n
    return weights


class Factorization:
    """The SVDs of one finite square matrix A that solves and condition numbers need."""

    def __init__(self, matrix):
        _check_finite(matrix)
        self.matrix = matrix
        self._conds = {}  # beta -> condition number: a sweep group's records share one float

    @cached_property
    def _equilibrated(self):
        """U, sigma, V^T of A D and the column norms 1/D (van der Sluis scaling)."""
        norms = np.linalg.norm(self.matrix, axis=0)
        norms[norms == 0.0] = 1.0  # a zero column stays zero and fails the rank test
        return (*np.linalg.svd(self.matrix / norms), norms)

    @cached_property
    def _normalized(self):
        """U, sigma, V^T of B = A diag(1/n!) and the weights 1/n!."""
        weights = penalty_weights(self.matrix.shape[1])
        return (*np.linalg.svd(self.matrix * weights), weights)

    @cached_property
    def _sigma(self):
        return np.linalg.svd(self.matrix, compute_uv=False)

    def solve(self, rhs, beta=0.0):
        """The direct solve of A c = rhs at beta = 0, the Tikhonov-damped solve at beta > 0.

        At beta > 0, y = V diag(sigma / (sigma^2 + beta)) U^T b for the SVD of B
        minimizes ||A c - b||^2 + beta ||y||^2 over y = n! c.  That solves
        (B^T B + beta I) y = B^T b without forming it, so the condition number
        is not squared.  Finite data so large that the solution overflows raise
        NumericalError.
        """
        beta = check_real(beta, "beta")
        if not beta:
            return self._direct(rhs, "matrix is")
        _check_finite(rhs, "right-hand side")
        u, sigma, vt, weights = self._normalized
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = vt.T @ ((u.T @ rhs) * (sigma / (sigma * sigma + beta))) * weights
        return _check_finite(coeffs, "solution")

    def _direct(self, rhs, subject):
        """c = D V diag(1/sigma) U^T b for the SVD of A D, D the inverse column norms.

        Column scaling removes the spread of column magnitudes, so only a real
        loss of rank remains.  Raises SingularMatrixError with the numerical rank,
        the count of scaled singular values above PIVOT_RTOL times the largest.
        """
        _check_finite(rhs, "right-hand side")
        u, sigma, vt, norms = self._equilibrated
        rank = int(np.count_nonzero(sigma > PIVOT_RTOL * sigma[0]))
        if rank < sigma.size:
            raise SingularMatrixError(
                rank, f"{subject} numerically singular at pivot {rank} (rank {rank} of {sigma.size})")
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_finite(vt.T @ ((u.T @ rhs) / sigma) / norms, "solution")

    def condition_number(self, beta=0.0):
        """sigma_max / sigma_min of A at beta = 0; at beta > 0 the condition
        number (sigma_max^2 + beta) / (sigma_min^2 + beta) of B^T B + beta I."""
        beta = check_real(beta, "beta")
        if beta not in self._conds:
            sigma = self._normalized[1] if beta else self._sigma
            self._conds[beta] = float((sigma[0] ** 2 + beta) / (sigma[-1] ** 2 + beta) if beta
                                      else sigma[0] / sigma[-1] if sigma[-1] else np.inf)
        return self._conds[beta]


def solve(system, beta=0.0):
    """The direct solve at beta = 0, the Tikhonov-damped solve at beta > 0."""
    return Factorization(system.matrix).solve(system.rhs, beta)


def solve_direct(system):
    """Solve A c = b through the SVD of A with its columns scaled to unit 2-norm."""
    return Factorization(system.matrix).solve(system.rhs)


def solve_tikhonov(system, beta):
    """The damped solve; at beta = 0 a rank loss is reported as singular normal equations."""
    beta = check_real(beta, "beta")
    factors = Factorization(system.matrix)
    return factors.solve(system.rhs, beta) if beta else factors._direct(
        system.rhs, "normal equations are")


def condition_number(system, beta=0.0):
    """Spectral condition number of the problem solve(system, beta) solves."""
    return Factorization(system.matrix).condition_number(beta)
