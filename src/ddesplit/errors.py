"""Exception types shared across the package, and the finiteness check."""

import math


class ParameterError(ValueError):
    """Invalid argument or configuration (bad sign, empty range, mismatch)."""


def require_finite(**values: float) -> None:
    """Raise ``ParameterError`` naming the first non-finite value.

    A NaN passes every ordered comparison and an infinity overflows later
    arithmetic, so range checks alone would let either through.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


class InsufficientHistoryError(ParameterError):
    """Buffer too short for the requested delayed read."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerics themselves."""


class SingularStepError(NumericalError):
    """A one-step update denominator fell below the singularity guard."""


class SingularSystemError(NumericalError):
    """A linear solve hit a zero pivot."""


class DivergenceError(NumericalError):
    """A run produced a non-finite value.

    Attributes
    ----------
    step : int
        Index of the first offending step.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class RootConvergenceError(NumericalError):
    """Root iteration exhausted its sweep budget.

    Attributes
    ----------
    residual : float
        Largest polynomial residual at the final iterate.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class FitError(NumericalError):
    """Not enough usable samples for a least-squares fit."""
