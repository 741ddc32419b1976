"""Exception hierarchy shared across the package, and the two argument
checks every entry point uses: counts and positive reals.

Numerical failure modes are deliberately loud: a caller always learns
whether a value is trustworthy, partially converged, or undefined.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "RecinaccError",
    "DomainError",
    "ParameterError",
    "ConsistencyError",
    "QuadratureError",
    "IntegrandError",
    "NonConvergenceError",
    "DivergenceError",
    "SupportError",
    "StreamCapError",
    "ContaminationError",
    "UnsupportedMethodError",
]


class RecinaccError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RecinaccError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class ParameterError(RecinaccError, ValueError):
    """A distribution or configuration parameter is invalid."""


class ConsistencyError(RecinaccError):
    """A user-supplied distribution failed an internal consistency probe."""


class QuadratureError(RecinaccError):
    """Base class for numerical integration failures."""


class IntegrandError(QuadratureError):
    """The integrand returned a non-finite value at a quadrature node."""

    def __init__(self, message: str, abscissa: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa


class NonConvergenceError(QuadratureError):
    """Adaptive refinement exhausted its subdivision budget.

    Carries the partially converged value and its error estimate so the
    caller can decide whether the result is still usable.
    """

    def __init__(self, message: str, partial_value: float, abs_error_estimate: float):
        super().__init__(message)
        self.partial_value = partial_value
        self.abs_error_estimate = abs_error_estimate


class DivergenceError(RecinaccError):
    """The requested measure diverges (or could not be certified finite)."""

    def __init__(self, message: str, partial_value: float | None = None):
        super().__init__(message)
        self.partial_value = partial_value


class SupportError(DivergenceError):
    """The second distribution cannot explain the first one's support.

    A special case of divergence: the defining integral is infinite on a
    set of positive measure, so it is detected before any quadrature runs.
    """


class StreamCapError(RecinaccError):
    """Stream-based record extraction hit the draw cap before finishing."""

    def __init__(self, message: str, records_found: int):
        super().__init__(message)
        self.records_found = records_found


class ContaminationError(RecinaccError):
    """Too many non-finite values contaminated a Monte Carlo estimate."""


class UnsupportedMethodError(RecinaccError, ValueError):
    """The requested evaluation method is not available for this input."""


def check_integer(value, what: str, least: int = 1, error: type = ParameterError):
    """``value`` if it is an integer of at least ``least``, else ``error``.
    A bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def check_positive(value, what: str) -> float:
    """``value`` as a float if it is a positive, finite real (not a bool),
    else ParameterError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value > 0 and math.isfinite(value))):
        raise ParameterError(f"{what} must be positive and finite, got {value!r}")
    return float(value)
