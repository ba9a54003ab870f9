"""Direct and Tikhonov solvers plus condition numbers, each from one numpy SVD."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SingularMatrixError

__all__ = [
    "SolveConfig",
    "condition_number",
    "penalty_weights",
    "solve",
    "solve_direct",
    "solve_tikhonov",
]

# Singular values of the column-equilibrated matrix at or below this times the
# largest count as zero; the count of those above it is the numerical rank.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class SolveConfig:
    """Solver selection: direct solve at beta = 0, ridge damping otherwise."""

    beta: float = 0.0
    method: str = "direct"

    def __post_init__(self):
        if self.method not in ("direct", "tikhonov"):
            raise DomainError(f"method must be 'direct' or 'tikhonov', got {self.method!r}")
        _check_beta(self.beta)
        if self.method == "direct" and self.beta != 0.0:
            raise DomainError("direct solves require beta = 0")


def solve(system, config):
    """Dispatch on a SolveConfig."""
    if config.method == "direct":
        return solve_direct(system)
    return solve_tikhonov(system, config.beta)


def _check_finite(*arrays):
    for values in arrays:
        if not np.all(np.isfinite(values)):
            raise NumericalError("matrix contains non-finite entries")


def _check_beta(beta):
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    return beta


def solve_direct(system):
    """Solve A c = b through the SVD of A with its columns scaled to unit 2-norm.

    Column scaling (van der Sluis) removes the spread of column magnitudes, so
    only a genuine loss of rank remains.  Raises SingularMatrixError carrying
    the numerical rank, the count of scaled singular values above
    PIVOT_RTOL times the largest, when it is below the size.
    """
    _check_finite(system.matrix, system.rhs)
    return _svd_solve(system.matrix, system.rhs)


def _svd_solve(matrix, rhs, subject="matrix is"):
    """c = D V diag(1/sigma) U^T b for the SVD of A D, D the inverse column norms."""
    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0.0] = 1.0  # a zero column stays zero and fails the rank test
    u, sigma, vt = np.linalg.svd(matrix / norms)
    rank = int(np.count_nonzero(sigma > PIVOT_RTOL * sigma[0]))
    if rank < sigma.size:
        raise SingularMatrixError(
            rank, f"{subject} numerically singular at pivot {rank} (rank {rank} of {sigma.size})")
    return vt.T @ ((u.T @ rhs) / sigma) / norms


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


def solve_tikhonov(system, beta):
    """Minimize ||A c - b||^2 + beta ||y||^2 over the normalized coefficients y = n! c.

    With B = A diag(1/n!) and its SVD B = U diag(sigma) V^T, the minimizer is
    y = V diag(sigma / (sigma^2 + beta)) U^T b, mapped back to c = y / n!.  This
    is the solution of the shifted normal equations (B^T B + beta I) y = B^T b
    without forming them, so the condition number is not squared.  At beta = 0
    the problem is the plain solve of A c = b, which takes the direct path and
    reports a rank loss as singular normal equations.
    """
    beta = _check_beta(beta)
    _check_finite(system.matrix, system.rhs)
    if not beta:
        return _svd_solve(system.matrix, system.rhs, "normal equations are")
    weights = penalty_weights(system.size)
    u, sigma, vt = np.linalg.svd(system.matrix * weights)
    return vt.T @ ((u.T @ system.rhs) * (sigma / (sigma * sigma + beta))) * weights


def condition_number(system, beta=0.0):
    """Spectral condition number of the problem the chosen path solves.

    At beta = 0 that is sigma_max(A) / sigma_min(A).  At beta > 0 it is the
    condition number (sigma_max^2 + beta) / (sigma_min^2 + beta) of the shifted
    normal matrix B^T B + beta I of the column-normalized B = A diag(1/n!),
    from the singular values of B.
    """
    beta = _check_beta(beta)
    _check_finite(system.matrix)
    if beta:
        sigma = np.linalg.svd(system.matrix * penalty_weights(system.size), compute_uv=False)
        return float((sigma[0] ** 2 + beta) / (sigma[-1] ** 2 + beta))
    sigma = np.linalg.svd(system.matrix, compute_uv=False)
    if sigma[-1] == 0.0:
        return float("inf")
    return float(sigma[0] / sigma[-1])
