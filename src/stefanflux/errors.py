"""Exception types shared across the package, and its integer, real and finite checks."""

import sys

import numpy as np


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


def check_integer(value, name, low, high=1 << 63):
    """value as an int; DomainError unless it is an integer in [low, high)."""
    try:
        if int(value) == value and low <= value < high:  # not float(value): it overflows
            return int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf
        pass
    bound = f"2**{high.bit_length() - 1}" if high in (1 << 63, 1 << 64) else high
    raise DomainError(f"{name} must be an integer in [{low}, {bound}), got {value}")


def check_real(value, name, positive=False):
    """value as a float; DomainError unless it is finite and >= 0, or > 0 if positive."""
    # Comparisons, not float(value), which overflows on an integer beyond 1e308; nan fails them.
    try:
        if (0.0 < value if positive else 0.0 <= value) and value <= sys.float_info.max:
            return float(value)
    except (TypeError, ValueError):  # a string or None; an array's truth value is ambiguous
        pass
    raise DomainError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def check_finite(values, message):
    """values; NumericalError(message) unless every entry is finite."""
    if not np.isfinite(values).all():
        raise NumericalError(message)
    return values
