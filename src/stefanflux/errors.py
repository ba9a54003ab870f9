"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument or input lies outside the domain the library accepts."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values or an unusable factorization."""


class SingularMatrixError(NumericalError):
    """A matrix failed the rank test of the direct solve.

    pivot_index is the numerical rank: the count of singular values of the
    column-equilibrated matrix above the singularity tolerance.
    """

    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(message or f"matrix is numerically singular at pivot {pivot_index}")
