"""Direct and Tikhonov solves and condition numbers from at most three SVDs per matrix.

A Factorization checks once that its matrix is finite (errors.check_finite, as each block of
right sides and solutions is) and computes each SVD at its first use: that of the
column-equilibrated A for the beta = 0 rank test and solve, that of B = A diag(1/n!) for every
beta > 0 solve and condition number, and the singular values of A for the beta = 0 condition
number.  solve_rows solves a block of right sides of any height, a beta per row, in one pass:
a stacked product per kind of beta with a gemv per row, so each row equals its solve alone.
The functions below factor their system's matrix for one use; a sweep group keeps one
Factorization for all its cells, since noisy data changes only the right side.
"""

from functools import cached_property

import numpy as np

from .errors import DomainError, SingularMatrixError, check_finite, check_integer, check_real

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


def _gemvs(matrix, rows):
    """matrix @ row for each row of an (h, n) block: a gemv per row (a gemm rounds differently)."""
    return (matrix @ rows[:, :, None])[:, :, 0]


def penalty_weights(size):
    """Per-column weights 1/n! mapping raw coefficients to normalized ones.

    Column n of the collocation matrix carries the order-n basis function,
    whose natural magnitude grows like n!.  Damping is applied to the
    coefficients of the unit-normalized family (order-n function divided by
    n!), so that a single beta acts evenly across orders.  Weights are built
    multiplicatively; no factorial overflow for sizes up to 31.
    """
    size = check_integer(size, "size", 1)
    weights = np.empty(size)
    weights[0] = 1.0
    for n in range(1, size):
        weights[n] = weights[n - 1] / n
    return weights


class Factorization:
    """The SVDs of one finite, square, non-empty matrix A that solves and condition numbers need."""

    def __init__(self, matrix):
        shape = np.shape(matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError(f"matrix must be square, got shape {shape}")
        if not shape[0]:  # its SVDs have no largest or smallest singular value
            raise DomainError(f"matrix must have at least one row, got shape {shape}")
        check_finite(matrix, "matrix contains non-finite entries")
        self.matrix = matrix
        self._conds = {}  # beta -> condition number: a sweep group's records share one float

    @cached_property
    def _equilibrated(self):
        """U, sigma, V^T of A D, the column norms 1/D (van der Sluis scaling) and the numerical
        rank, the count of singular values above PIVOT_RTOL times the largest."""
        norms = np.linalg.norm(self.matrix, axis=0)
        norms[norms == 0.0] = 1.0  # a zero column stays zero and fails the rank test
        u, sigma, vt = np.linalg.svd(self.matrix / norms)
        return u, sigma, vt, norms, int(np.count_nonzero(sigma > PIVOT_RTOL * sigma[0]))

    @cached_property
    def _normalized(self):
        """U, sigma, V^T of B = A diag(1/n!) and the weights 1/n!."""
        weights = penalty_weights(self.matrix.shape[1])
        return (*np.linalg.svd(self.matrix * weights), weights)

    @cached_property
    def _sigma(self):
        return np.linalg.svd(self.matrix, compute_uv=False)

    def solve(self, rhs, beta=0.0):
        """The direct solve of A c = rhs at beta = 0, the Tikhonov-damped solve at beta > 0."""
        return self.solve_rows(np.asarray(rhs)[None], [check_real(beta, "beta")])[0]

    def solve_rows(self, rhs, betas, subject="matrix is"):
        """The (h, K) coefficients of an (h, n) block of right sides, row i at betas[i].

        At beta = 0, c = D V diag(1/sigma) U^T b for the SVD of A D, D the inverse column
        norms; a loss of rank raises SingularMatrixError with the count of scaled singular
        values above PIVOT_RTOL times the largest.  At beta > 0, y = n! c = V diag(sigma /
        (sigma^2 + beta)) U^T b for the SVD of B minimizes ||A c - b||^2 + beta ||y||^2.
        Each mat-vec is a gemv per row, so a row rounds as it does alone, at any height h and in
        any mix of betas; the beta = 0 rows go first, so their rank test raises first, and an
        empty block tests nothing.  A non-finite right side or solution raises NumericalError.
        """
        rhs, betas = np.asarray(rhs, dtype=float), np.asarray(betas, dtype=float)
        listed = betas.tolist()
        if (betas.ndim != 1 or rhs.shape != (len(betas), len(self.matrix))
                or not all(0.0 <= beta < np.inf for beta in listed)):
            raise DomainError(f"expected an (h, {len(self.matrix)}) block of right sides and h "
                              f"finite betas >= 0, got shape {rhs.shape} and {listed}")
        check_finite(rhs, "right-hand side contains non-finite entries")
        zero, damped = ((betas == 0.0, betas > 0.0) if 0.0 in listed and any(listed)
                        else (slice(None), slice(None)))  # one kind: the whole block, unmasked
        coeffs = np.empty((len(rhs), self.matrix.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            if 0.0 in listed:
                u, sigma, vt, norms, rank = self._equilibrated
                if rank < sigma.size:
                    raise SingularMatrixError(rank, f"{subject} numerically singular at pivot "
                                                    f"{rank} (rank {rank} of {sigma.size})")
                coeffs[zero] = _gemvs(vt.T, _gemvs(u.T, rhs[zero]) / sigma) / norms
            if any(listed):
                u, sigma, vt, weights = self._normalized
                filters = sigma / (sigma * sigma + betas[damped, None])
                coeffs[damped] = _gemvs(vt.T, _gemvs(u.T, rhs[damped]) * filters) * weights
        return check_finite(coeffs, "solution contains non-finite entries")

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
    return Factorization(system.matrix).solve_rows(system.rhs[None], [check_real(beta, "beta")],
                                                   "normal equations are")[0]


def condition_number(system, beta=0.0):
    """Spectral condition number of the problem solve(system, beta) solves."""
    return Factorization(system.matrix).condition_number(beta)
