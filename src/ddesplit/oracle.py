"""Semi-analytic benchmark for u'(t) = a t u(t) + b u(t + tau).

The Ohira-Ohira construction expresses one solution of this linear delay
equation as an inverse Fourier integral.  With a < 0 the integrand decays
like a Gaussian in omega, so a truncated composite-Simpson quadrature gives
reference values to near machine accuracy.  A degree-10 polynomial fit of
the solution on [-8, 0] serves as the matching smooth history for the time
steppers, and a finite-difference residual check closes the loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_finite

#: Degree-10 fit of the benchmark solution on [-8, 0], ascending powers.
POLY10_COEFFS = (
    0.14815,
    -0.00765,
    -0.01580,
    -0.00145,
    0.000035,
    -0.00011,
    -0.000039,
    -5.17e-06,
    -3.14e-07,
    -6.89e-09,
    3.76e-11,
)


@dataclass(frozen=True)
class OhiraParams:
    """Parameters of the benchmark solution and its quadrature.

    Parameters
    ----------
    a, b, tau : float
        Equation coefficients; ``a < 0`` drives the Gaussian decay of the
        integrand and ``tau < 0`` is the delay.
    omega_max : float
        Truncation radius of the half-line frequency integral.
    n_nodes : int
        Composite-Simpson node count on [0, omega_max]; must be odd.
    """

    a: float
    b: float
    tau: float
    omega_max: float = 4.0
    n_nodes: int = 2001

    def __post_init__(self):
        require_finite(a=self.a, b=self.b, tau=self.tau, omega_max=self.omega_max)
        if self.a >= 0:
            raise ParameterError(f"need a < 0 for integrand decay, got {self.a}")
        if self.tau >= 0:
            raise ParameterError(f"delay must be negative, got {self.tau}")
        if self.omega_max <= 0:
            raise ParameterError("truncation radius must be positive")
        if self.n_nodes < 3 or self.n_nodes % 2 == 0:
            raise ParameterError(f"Simpson needs an odd node count >= 3, got {self.n_nodes}")
        if self.exponent_bound > -40.0:
            raise ParameterError(
                "truncation criterion unmet: exponent bound at omega_max is "
                f"{self.exponent_bound:.3g}, needs <= -40; enlarge omega_max "
                "or reconsider the parameters"
            )

    @property
    def exponent_bound(self) -> float:
        """Upper bound on the log-amplitude of the integrand at omega_max."""
        return self.omega_max ** 2 / (2.0 * self.a) + abs(self.b / (self.a * self.tau))


def oo_integrand(omega, t, p: OhiraParams):
    """Frequency-domain integrand; even in omega, broadcasts over inputs."""
    w = np.asarray(omega, dtype=float)
    at = p.a * p.tau
    amp = np.exp(w ** 2 / (2.0 * p.a) + p.b * np.cos(w * p.tau) / at)
    out = amp * np.cos(p.b * np.sin(w * p.tau) / at + w * np.asarray(t, dtype=float))
    if np.ndim(omega) == 0 and np.ndim(t) == 0:
        return float(out)
    return out


def oo_solution(t, p: OhiraParams):
    """Benchmark solution u(t) by truncated quadrature.

    Evenness of the integrand folds the full-line Fourier integral onto
    [0, omega_max]; composite Simpson on the fixed node grid makes the
    value deterministic for a given parameter set.  Accepts scalar or
    array ``t``.
    """
    # Imported here: scipy.integrate costs about 0.8 s to load, and only
    # this quadrature uses it.
    from scipy.integrate import simpson

    grid = np.linspace(0.0, p.omega_max, p.n_nodes)
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = oo_integrand(grid[None, :], tarr[:, None], p)
    out = simpson(vals, x=grid, axis=-1) / math.pi
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def oo_residual(t: float, p: OhiraParams, dt: float = 1e-3) -> float:
    """Defect of the quadrature solution in the delay equation at time t.

    Approximates u'(t) by a central difference of width ``dt`` and returns
    |u'(t) - a t u(t) - b u(t + tau)|.  The result carries an O(dt^2)
    differencing error on top of the quadrature error.
    """
    if dt <= 0:
        raise ParameterError(f"difference width must be positive, got {dt}")
    pts = oo_solution(np.array([t - dt, t, t + dt, t + p.tau]), p)
    du = (pts[2] - pts[0]) / (2.0 * dt)
    return abs(du - p.a * t * pts[1] - p.b * pts[3])


def poly_history(t):
    """Polynomial history fit evaluated by Horner's rule.

    The fit is valid on [-8, 0]; evaluation outside that range is allowed
    but warns, since the polynomial diverges quickly from the solution.
    Accepts scalar or array ``t``.  A Python number is evaluated in Python
    floats, which round exactly as the float64 array arithmetic does.
    """
    if isinstance(t, (int, float)):
        x = float(t)
        outside = x < -8.0 or x > 0.0
    else:
        x = np.asarray(t, dtype=float)
        outside = np.any(x < -8.0) or np.any(x > 0.0)
    if outside:
        warnings.warn("polynomial history evaluated outside its fit range [-8, 0]",
                      stacklevel=2)
    acc = POLY10_COEFFS[-1]
    for c in POLY10_COEFFS[-2::-1]:
        acc = acc * x + c
    if isinstance(acc, np.ndarray) and acc.ndim:
        return acc
    return float(acc)
