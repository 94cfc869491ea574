"""Delay-history storage and the transport-resolvent kernel.

Uniform-grid ring buffers realize the exact shift of the history segment;
fractional delays are served by linear interpolation between the two
bracketing entries.  The continuum transport resolvent

    rho(sigma) = e^{sigma/h} f + (1/h) * int_sigma^0 e^{(sigma-s)/h} g(s) ds

is evaluated in closed form against the piecewise-linear interpolant of ``g``
(the kernel decays like e^{-1} inside a single cell, so node sampling would
lose the very accuracy the formula is for).
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientHistoryError, ParameterError, require_finite

# Relative tolerance for snapping -tau/h to an integer lag.  Values such as
# 0.257/0.001 land at 256.99999999999997 in floating point.
SNAP_RTOL = 1e-9

# e^{-1}: the transport kernel's decay across one cell.
_E1 = float(np.exp(-1.0))


class DelayGrid:
    """Uniform step size paired with a (negative) delay.

    Parameters
    ----------
    h : float
        Step size, > 0.
    tau : float
        Delay, < 0.

    Attributes
    ----------
    m : int
        Integer delay depth, ``floor(-tau/h)`` after snapping; always >= 1.
    delta : float
        Fractional remainder ``-tau - m*h`` in ``[0, h)``; exactly 0 when the
        delay is an integer multiple of the step.
    """

    def __init__(self, h: float, tau: float):
        require_finite(h=h, tau=tau)
        if h <= 0:
            raise ParameterError(f"step size must be positive, got {h}")
        if tau >= 0:
            raise ParameterError(f"delay must be negative, got {tau}")
        ratio = -tau / h
        nearest = round(ratio)
        if nearest >= 1 and abs(ratio - nearest) <= SNAP_RTOL * max(1.0, ratio):
            m, delta = int(nearest), 0.0
        else:
            m, delta = int(np.floor(ratio)), -tau - np.floor(ratio) * h
        if m < 1:
            raise ParameterError(
                f"delay depth m = {m} < 1: |tau| = {-tau} smaller than h = {h}"
            )
        self.h = float(h)
        self.tau = float(tau)
        self.m = m
        self.delta = float(delta)

    @property
    def is_integer_lag(self) -> bool:
        return self.delta == 0.0

    def __repr__(self):
        return f"DelayGrid(h={self.h}, tau={self.tau}, m={self.m}, delta={self.delta})"


class RingBuffer:
    """Fixed-capacity FIFO over arbitrary state values (scalars or arrays).

    Push and oldest-read are O(1); the slot array never reallocates.
    """

    def __init__(self, values: Sequence):
        values = list(values)
        if not values:
            raise ParameterError("ring buffer needs at least one initial value")
        self._slots = values
        self._head = 0  # index of the oldest entry
        self.capacity = len(values)

    def push(self, value) -> None:
        """Discard the oldest entry and append ``value`` as the newest."""
        self._slots[self._head] = value
        self._head = (self._head + 1) % self.capacity

    def peek(self, age_from_oldest: int = 0):
        """Return the entry ``age_from_oldest`` positions newer than the oldest."""
        if not 0 <= age_from_oldest < self.capacity:
            raise ParameterError(
                f"peek index {age_from_oldest} outside capacity {self.capacity}"
            )
        return self._slots[(self._head + age_from_oldest) % self.capacity]

    @property
    def oldest(self):
        return self._slots[self._head]

    def contents(self) -> list:
        """Snapshot of the contents, oldest first."""
        return [self.peek(i) for i in range(self.capacity)]

    def __len__(self):
        return self.capacity


def init_from_history(history: Callable[[float], object], grid: DelayGrid,
                      capacity: int) -> RingBuffer:
    """Fill a buffer with samples ``history(tau + j*h)``, oldest first.

    Sample points must stay inside ``[tau, 0]``; a domain error is raised
    otherwise (the history mapping is only defined there).
    """
    # Absolute slack for endpoint rounding only.
    tol = 1e-12 * max(1.0, -grid.tau)
    samples = []
    for j in range(capacity):
        t = grid.tau + j * grid.h
        if t < grid.tau - tol or t > tol:
            raise ParameterError(
                f"history sample point {t} outside [{grid.tau}, 0]"
            )
        samples.append(history(min(t, 0.0)))
    return RingBuffer(samples)


def delayed_value(buffer: RingBuffer, grid: DelayGrid):
    """Value at lag ``m*h + delta`` read from the buffer.

    With ``delta == 0`` this is the oldest entry.  Otherwise the two oldest
    entries bracket the lag and the linear interpolant
    ``(delta/h)*older + (1 - delta/h)*newer`` is returned, which requires
    capacity at least ``m + 1``.
    """
    if grid.delta == 0.0:
        # ``buffer.oldest`` without the property call; this runs once per step.
        return buffer._slots[buffer._head]
    if buffer.capacity < grid.m + 1:
        raise InsufficientHistoryError(
            f"fractional delay needs capacity >= {grid.m + 1}, "
            f"buffer has {buffer.capacity}"
        )
    w = grid.delta / grid.h
    return w * buffer.peek(0) + (1.0 - w) * buffer.peek(1)


class HistorySegment:
    """Grid samples ``g_0..g_m`` of the history on ``sigma in {tau, ..., 0}``.

    The newest sample ``g_m`` doubles as the inflow value ``f`` (the
    compatibility condition rho(0) = u).
    """

    def __init__(self, values, h: float):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ParameterError("segment needs a 1-D array of at least 2 samples")
        if h <= 0:
            raise ParameterError(f"step size must be positive, got {h}")
        self.values = values
        self.h = float(h)

    @property
    def m(self) -> int:
        return self.values.size - 1

    @property
    def inflow(self) -> float:
        return float(self.values[-1])

    @classmethod
    def from_history(cls, history: Callable[[float], float],
                     grid: DelayGrid) -> "HistorySegment":
        if not grid.is_integer_lag:
            raise ParameterError("segment sampling requires an integer lag")
        sigma = grid.tau + grid.h * np.arange(grid.m + 1)
        sigma[-1] = 0.0
        return cls([history(s) for s in sigma], grid.h)


def _cell_integrals(g: np.ndarray) -> list:
    """Per-cell quadrature w_j = e^{-1} g_j + (1 - 2 e^{-1}) g_{j+1}, as floats.

    w_j is the exact integral of the exponential kernel against the linear
    interpolant on one cell; both weights are positive, so every suffix sum
    below is a convex combination (maximum principle comes for free).
    """
    return (_E1 * g[:-1] + (1.0 - 2.0 * _E1) * g[1:]).tolist()


@functools.lru_cache(maxsize=64)
def _e1_powers(m: int) -> np.ndarray:
    """Read-only ``e^{-1} ** (m, m-1, ..., 0)``, built once per delay depth."""
    powers = _E1 ** np.arange(m, -1, -1)
    powers.flags.writeable = False
    return powers


def _suffix_kernel_sums(g: np.ndarray) -> np.ndarray:
    """Suffix sums J_i = sum_{j>=i} e^{i-j} * w_j of the per-cell quadrature.

    Runs the recurrence J_i = w_i + e^{-1} J_{i+1} from J_m = 0 in Python
    floats, which round exactly as float64 array arithmetic does.
    """
    e1 = _E1
    acc = 0.0
    J = [acc]
    for w in reversed(_cell_integrals(g)):
        acc = w + e1 * acc
        J.append(acc)
    J.reverse()
    return np.array(J, dtype=float)


def transport_resolvent_apply(f: float, g, h: float) -> HistorySegment:
    """One application of the transport resolvent to inflow ``f`` and history ``g``.

    Parameters
    ----------
    f : float
        Inflow (the new present value).
    g : array_like or HistorySegment
        Previous history samples on the uniform sigma grid.
    h : float
        Step size, > 0.

    Returns
    -------
    HistorySegment
        Samples of rho(sigma) = e^{sigma/h} f + (1/h) int_sigma^0
        e^{(sigma-s)/h} g(s) ds, exact for the piecewise-linear interpolant
        of ``g``; rho(0) = f holds exactly.
    """
    if h <= 0:
        raise ParameterError(f"step size must be positive, got {h}")
    if isinstance(g, HistorySegment):
        g = g.values
    g = np.asarray(g, dtype=float)
    rho = _e1_powers(g.size - 1) * f + _suffix_kernel_sums(g)
    return HistorySegment(rho, h)


def trace_at_tau(rho: HistorySegment) -> float:
    """Evaluate the segment at sigma = tau (its oldest grid point)."""
    return float(rho.values[0])


def delay_kernel_integral(g, h: float) -> float:
    """Closed-form value of int_tau^0 e^{(tau-s)/h} g(s) ds for sampled ``g``."""
    if isinstance(g, HistorySegment):
        g = g.values
    g = np.asarray(g, dtype=float)
    if g.size == 0:
        raise ParameterError("kernel integral needs at least one sample")
    # Only J_0 is needed: one pass of the recurrence, no array.
    e1 = _E1
    acc = 0.0
    for w in reversed(_cell_integrals(g)):
        acc = w + e1 * acc
    return float(h * acc)


def l2_norm_trapezoid(g, h: float) -> float:
    """Trapezoidal L2 norm of the sampled segment on [tau, 0]."""
    if isinstance(g, HistorySegment):
        g = g.values
    g = np.asarray(g, dtype=float)
    sq = g * g
    return float(np.sqrt(h * (sq.sum() - 0.5 * (sq[0] + sq[-1]))))
