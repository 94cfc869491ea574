"""Delay-history storage and the transport-resolvent kernel.

Uniform-grid ring buffers realize the exact shift of the history segment.
Only they serve a fractional lag -tau/h, by linear interpolation between
the two bracketing entries; every other consumer (kernel segments, field
runs, the stability lab) calls ``DelayGrid.require_integer_lag``.  The
continuum transport resolvent

    rho(sigma) = e^{sigma/h} f + (1/h) * int_sigma^0 e^{(sigma-s)/h} g(s) ds

is evaluated in closed form against the piecewise-linear interpolant of ``g``
(the kernel decays like e^{-1} inside a single cell, so node sampling would
lose the very accuracy the formula is for).
"""

from __future__ import annotations

import collections
import functools
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InsufficientHistoryError, ParameterError, require_finite

# Relative tolerance for snapping a step ratio to an integer.  Values such
# as 0.257/0.001 land at 256.99999999999997 in floating point.
SNAP_RTOL = 1e-9

# e^{-1}: the transport kernel's decay across one cell.
_E1 = float(np.exp(-1.0))


def snap_ratio(x: float) -> Optional[int]:
    """``round(x)`` if x lies within ``SNAP_RTOL * max(1, x)`` of it, else None:
    the one snap rule for delay depths -tau/h, step counts T/h and the
    strides of an order study."""
    nearest = round(x)
    return nearest if abs(x - nearest) <= SNAP_RTOL * max(1.0, x) else None


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
        m, delta = snap_ratio(ratio), 0.0
        if m is None:
            m, delta = int(np.floor(ratio)), -tau - np.floor(ratio) * h
        if m < 1:
            raise ParameterError(f"delay depth m = {m} < 1: "
                                 f"|tau| = {-tau} smaller than h = {h}")
        self.h = float(h)
        self.tau = float(tau)
        self.m = m
        self.delta = float(delta)

    @property
    def is_integer_lag(self) -> bool:
        return self.delta == 0.0

    def require_integer_lag(self, what: str) -> None:
        """Raise ``ParameterError`` naming -tau/h: "``what`` need an integer lag"."""
        if not self.is_integer_lag:
            raise ParameterError(f"{what} need an integer lag, "
                                 f"got -tau/h = {-self.tau / self.h:.12g}")

    def __repr__(self):
        return f"DelayGrid(h={self.h}, tau={self.tau}, m={self.m}, delta={self.delta})"


class RingBuffer(collections.deque):
    """Fixed-capacity FIFO over arbitrary state values (scalars or arrays).

    A ``deque`` bounded at its initial length: ``push`` appends the newest
    entry and drops the oldest in one C call, and ``self[0]`` is the oldest.
    """

    def __init__(self, values: Sequence):
        values = list(values)
        if not values:
            raise ParameterError("ring buffer needs at least one initial value")
        super().__init__(values, len(values))

    # Discard the oldest entry and append the argument as the newest.
    push = collections.deque.append


def init_from_history(history: Callable[[float], object],
                      grid: DelayGrid) -> RingBuffer:
    """Fill a buffer with the history's grid samples, oldest first.

    The buffer holds what a delayed read needs.  An integer lag takes the m
    samples ``history(tau + j*h)``, j = 0..m-1.  A fractional lag takes the m
    grid samples at -m*h, ..., -h behind one more entry, the value at
    -(m+1)*h that makes the interpolated read at tau equal ``history(tau)``:
    ``(history(tau) - (1 - w) history(-m*h)) / w`` with w = delta/h.  So
    history-phase reads interpolate grid samples, as every later read does.
    Every sample time lies in [tau, 0): the value at 0 is the initial state,
    which the run loop pushes itself.
    """
    h, m = grid.h, grid.m
    if grid.is_integer_lag:
        return RingBuffer([history(grid.tau + j * h) for j in range(m)])
    w = grid.delta / h
    at_tau = history(grid.tau)
    samples = [history(-j * h) for j in range(m, 0, -1)]
    return RingBuffer([(at_tau - (1.0 - w) * samples[0]) / w, *samples])


def delayed_value(buffer: RingBuffer, grid: DelayGrid):
    """Value at lag ``m*h + delta`` read from the buffer.

    With ``delta == 0`` this is the oldest entry.  Otherwise the two oldest
    entries bracket the lag and the linear interpolant
    ``(delta/h)*older + (1 - delta/h)*newer`` is returned, which requires
    at least ``m + 1`` entries.
    """
    if grid.delta == 0.0:
        return buffer[0]
    if buffer.maxlen < grid.m + 1:
        raise InsufficientHistoryError(
            f"fractional delay needs {grid.m + 1} buffer entries, "
            f"buffer has {buffer.maxlen}"
        )
    w = grid.delta / grid.h
    return w * buffer[0] + (1.0 - w) * buffer[1]


def segment_from_history(history: Callable[[float], float],
                         grid: DelayGrid) -> np.ndarray:
    """Samples ``g_0..g_m`` of the history on ``sigma in {tau, ..., 0}``.

    The newest sample ``g_m = history(0.0)`` doubles as the inflow value
    ``f`` (the compatibility condition rho(0) = u).
    """
    grid.require_integer_lag("kernel segments")
    sigma = grid.tau + grid.h * np.arange(grid.m + 1)
    sigma[-1] = 0.0
    return np.array([history(s) for s in sigma], dtype=float)


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


def _as_segment(g) -> np.ndarray:
    """``g`` as a float array, checked to be 1-D with at least 2 samples."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ParameterError("segment needs a 1-D array of at least 2 samples")
    return g


def transport_resolvent_apply(f: float, g) -> np.ndarray:
    """One application of the transport resolvent to inflow ``f`` and history ``g``.

    Parameters
    ----------
    f : float
        Inflow (the new present value).
    g : array_like
        Previous history samples on the uniform sigma grid, at least 2.

    Returns
    -------
    np.ndarray
        Samples of rho(sigma) = e^{sigma/h} f + (1/h) int_sigma^0
        e^{(sigma-s)/h} g(s) ds, exact for the piecewise-linear interpolant
        of ``g``; rho(0) = f holds exactly and rho(tau) is the first entry.
    """
    g = _as_segment(g)
    return _e1_powers(g.size - 1) * f + _suffix_kernel_sums(g)


def delay_kernel_integral(g, h: float) -> float:
    """Closed-form value of int_tau^0 e^{(tau-s)/h} g(s) ds for sampled ``g``."""
    g = _as_segment(g)
    # Only J_0 is needed: one pass of the recurrence, no array.
    e1 = _E1
    acc = 0.0
    for w in reversed(_cell_integrals(g)):
        acc = w + e1 * acc
    return float(h * acc)
