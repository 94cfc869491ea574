"""Method-of-steps RK4 reference for the scalar delay equation.

Independent of the package's one-step schemes: classical RK4 on a fine grid
(the delay must be an integer multiple of the fine step), with the delayed
term treated as a known inhomogeneity read from already-computed samples.
Half-step stage values come from cubic Lagrange interpolation on the fine
grid.  Since the equation is linear, each RK4 step collapses to

    u_{n+1} = G u_n + W1 f(t_n) + Wm f(t_n + h/2) + W4 f(t_n + h)

with f(t) = b u(t + tau) and constant weights, which lets whole
delay-length blocks run through a linear recurrence filter instead of a
Python loop.

The trapezoidal segment norm of the transport trace bound lives here too.
"""

import warnings

import numpy as np
from scipy.signal import lfilter

# Cubic Lagrange weights at the midpoint of the central cell (nodes -1,0,1,2).
_CUBIC = (-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0)
_PAD = 4


def rk4_dde(a: float, b: float, tau: float, history, T: float,
            h_ref: float) -> tuple:
    """Integrate u' = a u + b u(t + tau) on [0, T] at step ``h_ref``.

    Returns (times, values) on the full fine grid including t = 0.  The
    history callable must accept an ndarray of times in [tau - 4 h_ref, 0].
    """
    m_ref = int(round(-tau / h_ref))
    if abs(-tau / h_ref - m_ref) > 1e-9 * max(1.0, -tau / h_ref) or m_ref < 8:
        raise ValueError("delay must be an integer multiple (>= 8) of h_ref")
    n_steps = int(round(T / h_ref))
    n_hist = m_ref + 1

    u = np.empty(_PAD + n_hist + n_steps)
    t_hist = tau + h_ref * (np.arange(_PAD + n_hist) - _PAD)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u[:_PAD + n_hist] = np.asarray(history(t_hist), dtype=float)
    idx0 = _PAD + n_hist - 1  # index of t = 0

    ah = a * h_ref
    G = 1.0 + ah + ah ** 2 / 2.0 + ah ** 3 / 6.0 + ah ** 4 / 24.0
    W1 = h_ref / 6.0 * (1.0 + ah + ah ** 2 / 2.0 + ah ** 3 / 4.0)
    Wm = h_ref / 6.0 * (4.0 + 2.0 * ah + ah ** 2 / 2.0)
    W4 = h_ref / 6.0
    c0, c1, c2, c3 = _CUBIC

    block = max(1, min(m_ref - _PAD, 50000))
    for s in range(0, n_steps, block):
        e = min(s + block, n_steps)
        gi = idx0 + np.arange(s, e)
        di = gi - m_ref
        f1 = b * u[di]
        f4 = b * u[di + 1]
        fm = b * (c0 * u[di - 1] + c1 * u[di] + c2 * u[di + 1] + c3 * u[di + 2])
        q = W1 * f1 + Wm * fm + W4 * f4
        seq, _ = lfilter([1.0], [1.0, -G], q, zi=np.array([G * u[idx0 + s]]))
        u[idx0 + s + 1: idx0 + e + 1] = seq

    times = h_ref * np.arange(n_steps + 1)
    return times, u[idx0: idx0 + n_steps + 1]


def rk4_dde_subsampled(a: float, b: float, tau: float, history, T: float,
                       h: float, refine: int = 100) -> tuple:
    """Reference trajectory on the coarse grid t = 0, h, ..., T.

    Runs :func:`rk4_dde` at ``h / refine`` and keeps every ``refine``-th
    sample, aligning the reference with a scheme run of step ``h``.
    """
    times, values = rk4_dde(a, b, tau, history, T, h / refine)
    return times[::refine], values[::refine]


def l2_norm_trapezoid(g, h: float) -> float:
    """Trapezoidal L2 norm of the sampled segment on [tau, 0]."""
    g = np.asarray(g, dtype=float)
    sq = g * g
    return float(np.sqrt(h * (sq.sum() - 0.5 * (sq[0] + sq[-1]))))
