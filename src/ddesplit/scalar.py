"""One-step maps and run loops for the scalar delay equation.

The model is u'(t) = a(t) u(t) + b u(t + tau) with tau < 0.  Two one-step
maps are provided in two realizations each:

* grid mode: the delayed value is an exact ring-buffer read.  Both schemes
  take the same step; they differ only in ``SchemeConfig.level``.
* kernel mode: the history is carried as a sampled segment and advanced by
  the closed-form transport resolvent; the delayed coupling enters through
  an exponentially weighted integral of the previous segment.  ``lt`` is
  the reaction after the reaction-free ``ie`` kernel step.

Both run loops read the frozen coefficients a(t_{n+level}) from one stream,
built 4096 steps at a time.  The grid loop tests finiteness once per chunk,
on its last value, and scans a failed chunk for its first non-finite step;
the kernel loop tests every step.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Tuple

import numpy as np

from .errors import (
    DivergenceError,
    ParameterError,
    SingularStepError,
    require_finite,
)
from .history import (
    DelayGrid,
    RingBuffer,
    delay_kernel_integral,
    delayed_value,
    init_from_history,
    segment_from_history,
    snap_ratio,
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


@dataclass
class SchemeConfig:
    h: float
    T: float
    scheme: str = "ie"
    delay_mode: str = "grid"

    def __post_init__(self):
        require_finite(h=self.h, T=self.T)
        if self.h <= 0 or self.T <= 0:
            raise ParameterError(f"need h > 0 and T > 0, got h={self.h}, T={self.T}")
        if self.scheme not in ("ie", "lt"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.delay_mode not in ("grid", "kernel"):
            raise ParameterError(f"unknown delay_mode {self.delay_mode!r}")
        # A run must take a whole number n >= 1 of steps to reach T.
        ratio = self.T / self.h
        if not snap_ratio(ratio):
            raise ParameterError(
                f"h = {self.h} does not divide T = {self.T} (T/h = {ratio!r})")

    @property
    def n_steps(self) -> int:
        return snap_ratio(self.T / self.h)

    @property
    def level(self) -> int:
        """1 (new) for ie, 0 (old) for lt: the time level of the reaction
        coefficient.  In scalar grid runs it is also the level of the delayed
        read, which ie takes after the history shift, at t_{n+1} + tau, and lt
        before it, at t_n + tau; the buffer depth realizes it, as lt's buffer
        holds one entry more.  Field runs (``run_pde``) read the delay after
        the shift for both schemes, so there it sets only the level of lambda."""
        return 1 if self.scheme == "ie" else 0


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

    Each scheme takes u_delay and a_frozen at its ``SchemeConfig.level``.
    """
    den = 1.0 - h * a_frozen
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"1 - h*a = {den} below guard")
    return (u_n + h * b * u_delay) / den


lt_step = ie_step


def _ie_kernel(u_prev: float, rho_prev: np.ndarray, a: float, b: float,
               grid: DelayGrid) -> Tuple[float, np.ndarray]:
    """The ``ie`` kernel step, the one kernel solve of both schemes."""
    if not grid.is_integer_lag or len(rho_prev) != grid.m + 1:
        raise ParameterError(
            f"a kernel step needs an integer lag and m + 1 = {grid.m + 1} "
            f"segment samples, got {grid!r} and {len(rho_prev)} samples")
    h = grid.h
    den = 1.0 - h * a - h * b * math.exp(grid.tau / h)
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"kernel step denominator {den} below guard")
    integral = delay_kernel_integral(rho_prev, h)
    u_new = (u_prev + b * integral) / den
    return u_new, transport_resolvent_apply(u_new, rho_prev)


def ie_step_kernel(u_prev: float, rho_prev: np.ndarray, a_at_new: float,
                   b: float, grid: DelayGrid) -> Tuple[float, np.ndarray]:
    """Implicit Euler step with the delayed trace resolved through the kernel.

    The new value solves (1 - h a - h b e^{tau/h}) u = u_prev + b * I with
    I the exponentially weighted integral of the previous segment; the new
    segment is the transport resolvent applied to (u, rho_prev).
    """
    return _ie_kernel(u_prev, rho_prev, a_at_new, b, grid)


def lt_step_kernel(u_prev: float, rho_prev: np.ndarray, a_frozen: float,
                   b: float, grid: DelayGrid) -> Tuple[float, np.ndarray]:
    """Splitting step: the reaction after the reaction-free ``ie`` kernel step.

    The intermediate w, the ``ie`` kernel step with a = 0, feeds the segment
    update; the returned value is w/(1 - h a_frozen).  The product of the two
    denominators differs from ``ie``'s by h^2 a b e^{tau/h}, the splitting
    commutator.
    """
    den = 1.0 - grid.h * a_frozen
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"1 - h*a = {den} below guard")
    w, rho_new = _ie_kernel(u_prev, rho_prev, 0.0, b, grid)
    return w / den, rho_new


def _diverged(step: int) -> DivergenceError:
    return DivergenceError(f"non-finite value at step {step}", step=step)


# Steps per chunk of frozen coefficients.  It bounds the list a linear a(t)
# builds at once, and the grid loop tests finiteness once per chunk.
_CHUNK = 4096


def _frozen_coefficients(problem: ScalarDelayProblem,
                         config: SchemeConfig) -> Iterator[Iterable[float]]:
    """Yield a(t_{n+level}) for n < n_steps, in chunks of ``_CHUNK`` steps.

    This is the one place that sets the time level of the frozen coefficient.
    The linear law rounds exactly as the float expression a * ((n + level) * h)
    does: the integer step index converts to float64 exactly, and each
    product is one float64 multiply that may overflow to inf, as floats do.
    """
    a, h, level, n_steps = problem.a, config.h, config.level, config.n_steps
    for k0 in range(0, n_steps, _CHUNK):
        k1 = min(k0 + _CHUNK, n_steps)
        if problem.a_mode == "linear":
            with np.errstate(over="ignore"):
                chunk = (a * ((np.arange(k0, k1) + level) * h)).tolist()
            yield chunk
        else:
            yield itertools.repeat(a, k1 - k0)


def _run_grid(problem: ScalarDelayProblem, config: SchemeConfig) -> np.ndarray:
    grid = DelayGrid(config.h, problem.tau)
    buffer = init_from_history(problem.history, grid)
    h, b, level = config.h, problem.b, config.level
    if not level:
        # One entry deeper, so that after pushing u_n the oldest entries reach
        # back to t_n + tau; the first push drops the extra entry unread.
        buffer = RingBuffer([buffer[0], *buffer])
    push, isfinite = buffer.push, math.isfinite
    step = ie_step if level else lt_step
    u = float(problem.history(0.0))
    if not isfinite(u):
        raise _diverged(0)
    values = array("d", [u])
    append = values.append
    # The update (u + h b u_delay)/(1 - h a) maps a non-finite u to a
    # non-finite value, so a chunk whose last value is finite was finite
    # throughout, and a non-finite chunk is scanned for its first bad step.
    for coefficients in _frozen_coefficients(problem, config):
        start = len(values)
        try:
            for a_frozen in coefficients:
                push(u)
                u = step(u, delayed_value(buffer, grid), a_frozen, b, h)
                append(u)
        except SingularStepError:
            # A divergence earlier in the chunk came first: report that.
            if isfinite(u):
                raise
        if not isfinite(u):
            raise _diverged(next(k for k in range(start, len(values))
                                 if not isfinite(values[k])))
    return np.frombuffer(values)


def _run_kernel(problem: ScalarDelayProblem, config: SchemeConfig) -> np.ndarray:
    grid = DelayGrid(config.h, problem.tau)
    seg = segment_from_history(problem.history, grid)
    b = problem.b
    u = float(problem.history(0.0))
    if not math.isfinite(u):
        raise _diverged(0)
    values = array("d", [u])
    step = ie_step_kernel if config.level else lt_step_kernel
    for a_frozen in itertools.chain.from_iterable(_frozen_coefficients(problem, config)):
        u, seg = step(u, seg, a_frozen, b, grid)
        if not math.isfinite(u):
            raise _diverged(len(values))
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
    times = np.arange(config.n_steps + 1, dtype=float)
    times *= config.h
    tag = f"{config.scheme}-{config.delay_mode}"
    return RunResult(times=times, values=values, scheme=tag, wall_clock=wall)
