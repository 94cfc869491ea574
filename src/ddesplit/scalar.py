"""One-step maps and run loops for the scalar delay equation.

The model is u'(t) = a(t) u(t) + b u(t + tau) with tau < 0.  Two one-step
maps are provided in two realizations each:

* grid mode: the delayed value is an exact ring-buffer read.  Both schemes
  take one step at the time level ``SchemeConfig.level``: implicit Euler (1)
  reads the post-shift oldest entry (index n+1-m) and a(.) at the new time,
  Lie-Trotter (0) the pre-shift oldest entry (index n-m) and a(.) at the old.
* kernel mode: the history is carried as a sampled segment and advanced by
  the closed-form transport resolvent; the delayed coupling enters through
  an exponentially weighted integral of the previous segment.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (
    DivergenceError,
    ParameterError,
    SingularStepError,
    require_finite,
)
from .history import (
    SNAP_RTOL,
    DelayGrid,
    delay_kernel_integral,
    delayed_value,
    init_from_history,
    segment_from_history,
    transport_resolvent_apply,
)

# Guard for one-step denominators.
EPS_DEN = 1e-12


@dataclass
class ScalarDelayProblem:
    """Coefficients, delay, and history of the scalar model.

    ``a_mode`` selects between a constant coefficient and the linear-in-time
    law a(t) = a * t.
    """

    a: float
    b: float
    tau: float
    history: Callable[[float], float]
    a_mode: str = "constant"

    def __post_init__(self):
        require_finite(a=self.a, b=self.b, tau=self.tau)
        if self.tau >= 0:
            raise ParameterError(f"delay must be negative, got {self.tau}")
        if self.a_mode not in ("constant", "linear"):
            raise ParameterError(f"unknown a_mode {self.a_mode!r}")

    def a_of(self, t: float) -> float:
        return self.a * t if self.a_mode == "linear" else self.a


@dataclass
class SchemeConfig:
    h: float
    T: float
    scheme: str = "ie"
    delay_mode: str = "grid"

    def __post_init__(self):
        require_finite(h=self.h, T=self.T)
        if self.h <= 0 or self.T <= 0 or self.h > self.T:
            raise ParameterError(f"need 0 < h <= T, got h={self.h}, T={self.T}")
        if self.scheme not in ("ie", "lt"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.delay_mode not in ("grid", "kernel"):
            raise ParameterError(f"unknown delay_mode {self.delay_mode!r}")
        # A step that does not divide the horizon would end the run short of T.
        ratio = self.T / self.h
        if abs(ratio - round(ratio)) > SNAP_RTOL * ratio:
            raise ParameterError(
                f"h = {self.h} does not divide T = {self.T} (T/h = {ratio!r})")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.h))

    @property
    def level(self) -> int:
        """1 (new) for ie, 0 (old) for lt: the time level of a(.) and, in grid
        mode, of the delayed read (ie pushes u_n before it, lt after)."""
        return 1 if self.scheme == "ie" else 0


@dataclass
class StepCoefficients:
    """alpha = 1/(1 - h a), beta = h b/(1 - h a) of the one-step recurrences."""

    alpha: float
    beta: float

    @classmethod
    def from_params(cls, a_frozen: float, b: float, h: float) -> "StepCoefficients":
        den = 1.0 - h * a_frozen
        if abs(den) <= EPS_DEN:
            raise SingularStepError(f"1 - h*a = {den} below guard")
        return cls(alpha=1.0 / den, beta=h * b / den)


@dataclass
class RunResult:
    times: np.ndarray
    values: np.ndarray
    scheme: str
    wall_clock: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ParameterError("times and values must have equal length")


def ie_step(u_n: float, u_delay: float, a_frozen: float, b: float, h: float) -> float:
    """Grid-mode update (u_n + h b u_delay)/(1 - h a_frozen) of both schemes.

    Implicit Euler passes the post-shift oldest entry (index n+1-m) and a(.)
    at the new time level; Lie-Trotter (``lt_step``) passes the pre-shift
    oldest entry (index n-m) and a(.) at the old level.
    """
    den = 1.0 - h * a_frozen
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"1 - h*a = {den} below guard")
    return (u_n + h * b * u_delay) / den


lt_step = ie_step


def ie_step_kernel(u_prev: float, rho_prev: np.ndarray, a_at_new: float,
                   b: float, grid: DelayGrid) -> Tuple[float, np.ndarray]:
    """Implicit Euler step with the delayed trace resolved through the kernel.

    The new value solves (1 - h a - h b e^{tau/h}) u = u_prev + b * I with
    I the exponentially weighted integral of the previous segment; the new
    segment is the transport resolvent applied to (u, rho_prev).
    """
    h = grid.h
    den = 1.0 - h * a_at_new - h * b * math.exp(grid.tau / h)
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"kernel step denominator {den} below guard")
    integral = delay_kernel_integral(rho_prev, h)
    u_new = (u_prev + b * integral) / den
    return u_new, transport_resolvent_apply(u_new, rho_prev)


def lt_step_kernel(u_prev: float, rho_prev: np.ndarray, a_frozen: float,
                   b: float, grid: DelayGrid) -> Tuple[float, np.ndarray]:
    """Sequential splitting step: transport/delay solve first, reaction second.

    The intermediate w = (u_prev + b*I)/(1 - h b e^{tau/h}) feeds the segment
    update; the returned value is w/(1 - h a_frozen).
    """
    h = grid.h
    den_delay = 1.0 - h * b * math.exp(grid.tau / h)
    den_react = 1.0 - h * a_frozen
    if abs(den_delay) <= EPS_DEN or abs(den_react) <= EPS_DEN:
        raise SingularStepError("kernel splitting denominator below guard")
    integral = delay_kernel_integral(rho_prev, h)
    w = (u_prev + b * integral) / den_delay
    u_new = w / den_react
    return u_new, transport_resolvent_apply(w, rho_prev)


def _diverged(step: int) -> DivergenceError:
    return DivergenceError(f"non-finite value at step {step}", step=step)


def _run_grid(problem: ScalarDelayProblem, config: SchemeConfig) -> np.ndarray:
    grid = DelayGrid(config.h, problem.tau)
    buffer = init_from_history(problem.history, grid)
    h, a, b = config.h, problem.a, problem.b
    linear = problem.a_mode == "linear"
    push, isfinite = buffer.push, math.isfinite
    level = config.level
    step = ie_step if level else lt_step
    u = float(problem.history(0.0))
    if not math.isfinite(u):
        raise _diverged(0)
    values = array("d", [u])
    for n in range(config.n_steps):
        if level:
            push(u)
        u_delay = delayed_value(buffer, grid)
        if not level:
            push(u)
        u = step(u, u_delay, a * ((n + level) * h) if linear else a, b, h)
        if not isfinite(u):
            raise _diverged(n + 1)
        values.append(u)
    return np.frombuffer(values)


def _run_kernel(problem: ScalarDelayProblem, config: SchemeConfig) -> np.ndarray:
    grid = DelayGrid(config.h, problem.tau)
    seg = segment_from_history(problem.history, grid)
    h, a, b = config.h, problem.a, problem.b
    linear = problem.a_mode == "linear"
    u = float(problem.history(0.0))
    if not math.isfinite(u):
        raise _diverged(0)
    values = array("d", [u])
    level = config.level
    step = ie_step_kernel if level else lt_step_kernel
    for n in range(config.n_steps):
        u, seg = step(u, seg, a * ((n + level) * h) if linear else a, b, grid)
        if not math.isfinite(u):
            raise _diverged(n + 1)
        values.append(u)
    return np.frombuffer(values)


def run(problem: ScalarDelayProblem, config: SchemeConfig) -> RunResult:
    """Advance the scalar problem to T and return the full time series."""
    start = time.perf_counter()
    if config.delay_mode == "grid":
        values = _run_grid(problem, config)
    else:
        values = _run_kernel(problem, config)
    wall = time.perf_counter() - start
    times = config.h * np.arange(config.n_steps + 1)
    tag = f"{config.scheme}-{config.delay_mode}"
    return RunResult(times=times, values=values, scheme=tag, wall_clock=wall)
