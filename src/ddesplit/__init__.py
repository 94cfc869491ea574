"""Splitting and implicit-Euler time steppers for linear delay equations.

The package covers the scalar model u' = a(t) u + b u(t + tau), its 1-D
reaction-diffusion extension, ring-buffer history transport with a
resolvent-form kernel, finite-dimensional stability diagnostics, a
semi-analytic benchmark solution, and experiment drivers with a CLI.
The top-level package exports only the error types and ``__version__``;
everything else is imported from its submodule (``ddesplit.pde``, ...).
"""

from .errors import (
    DivergenceError,
    FitError,
    InsufficientHistoryError,
    NumericalError,
    ParameterError,
    RootConvergenceError,
    SingularStepError,
    SingularSystemError,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "FitError",
    "InsufficientHistoryError",
    "NumericalError",
    "ParameterError",
    "RootConvergenceError",
    "SingularStepError",
    "SingularSystemError",
]
