"""Direct and regularized solvers plus conditioning diagnostics."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, SingularMatrixError

__all__ = [
    "SolveConfig",
    "condition_number",
    "penalty_weights",
    "solve",
    "solve_direct",
    "solve_tikhonov",
]

# Pivot smaller than this times max|A| counts as numerically singular.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class SolveConfig:
    """Solver selection: direct elimination at beta = 0, ridge damping otherwise."""

    beta: float = 0.0
    method: str = "direct"

    def __post_init__(self):
        if self.method not in ("direct", "tikhonov"):
            raise ValueError(f"method must be 'direct' or 'tikhonov', got {self.method!r}")
        _check_beta(self.beta)
        if self.method == "direct" and self.beta != 0.0:
            raise ValueError("direct solves require beta = 0")


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
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return beta


def solve_direct(system):
    """Solve A c = b by pivoted LU elimination.

    Raises SingularMatrixError naming the offending pivot when any pivot
    falls below PIVOT_RTOL * max|A|.
    """
    _check_finite(system.matrix, system.rhs)
    return _lu_solve(system.matrix, system.rhs)


def _lu_solve(matrix, rhs, subject="matrix is"):
    """Pivoted LU solve; a pivot at or below PIVOT_RTOL * max|matrix| is singular."""
    # Singularity is detected from the pivots and raised as a typed error;
    # scipy's advisory warning would just duplicate it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    bad = np.nonzero(np.abs(np.diag(lu)) <= PIVOT_RTOL * np.abs(matrix).max())[0]
    if bad.size:
        raise SingularMatrixError(
            int(bad[0]), f"{subject} numerically singular at pivot {int(bad[0])}")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


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


def _shifted_gram(matrix, beta):
    """Column-normalized B = A diag(1/n!) and B^T B + beta I (no shift at beta = 0)."""
    scaled = matrix * penalty_weights(matrix.shape[1])
    gram = scaled.T @ scaled
    if beta:
        gram = gram + beta * np.eye(matrix.shape[1])
    return scaled, gram


def solve_tikhonov(system, beta):
    """Solve the damped normal equations with the penalty on normalized coefficients.

    Columns are rescaled by 1/n! first, the shifted normal equations
    (B^T B + beta I) y = B^T b are solved for the normalized coefficients y,
    and the result is mapped back to raw coefficients c = y / n!.  At beta = 0
    the rescaling cancels exactly and this reduces to the plain normal
    equations for A c = b.

    Uses a Cholesky factorization of the shifted normal matrix.  When beta is
    so small that rounding makes the shifted matrix numerically indefinite,
    falls back to pivoted LU on the same equations, which is also the beta = 0
    path.
    """
    beta = _check_beta(beta)
    _check_finite(system.matrix, system.rhs)
    scaled, gram = _shifted_gram(system.matrix, beta)
    weights = penalty_weights(system.size)
    rhs = scaled.T @ system.rhs
    if beta:
        try:
            factor = scipy.linalg.cho_factor(gram, check_finite=False)
            return scipy.linalg.cho_solve(factor, rhs, check_finite=False) * weights
        except scipy.linalg.LinAlgError:
            pass
    return _lu_solve(gram, rhs, "normal equations are") * weights


def condition_number(system, beta=0.0):
    """Spectral condition number of the matrix the chosen path actually inverts.

    At beta = 0 that is A itself (the direct elimination target); at beta > 0
    it is the shifted normal matrix of the column-normalized system that the
    regularized solver factors.
    """
    beta = _check_beta(beta)
    matrix = system.matrix
    _check_finite(matrix)
    if beta:
        matrix = _shifted_gram(matrix, beta)[1]
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[-1] == 0.0:
        return float("inf")
    return float(sigma[0] / sigma[-1])
