"""Reaction-diffusion solver with a delayed source on (0, L), Dirichlet ends.

    u_t = kappa u_xx + lambda(t) u + b u(t + tau, x),   tau < 0.

Two first-order schemes share the field ring buffer.  Both read the delayed
field explicitly from the post-shift oldest buffer entry; ``run_pde`` calls
each at the time level ``SchemeConfig.level`` of its reaction coefficient.

* implicit Euler (level 1): one backward step of the full stiff part.  A
  step handed the factored system substitutes against it; a step handed
  none assembles the system at the new time and solves it as a dense
  symmetric matrix by Bunch-Kaufman pivoting (LAPACK ``dsysv``), which
  takes definite and indefinite systems alike.  That call runs on one
  OpenBLAS thread: its many small level-2 calls gain nothing from threads,
  and with them the step's time depended on the thread regime and on
  host load.  ``run_pde`` hands over the factors exactly when the reaction
  coefficient is constant.
* Lie-Trotter splitting (level 0): cached implicit diffusion solve,
  ring-buffer transport shift, then a pointwise algebraic reaction/delay
  update with the coefficient frozen at the old time level.

The assembled systems are symmetric, so ``Tridiag`` stores one
off-diagonal, and they are positive definite whenever 1 - h lambda > 0.
``Tridiag.factorize`` factors such a system as L D L^T (LAPACK ``dpttrf``,
no pivoting) and ``thomas_solve`` substitutes with ``dpttrs``; every other
system (not positive definite, or non-finite) takes LU with partial
pivoting (``dgttrf``/``dgttrs``).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceError,
    ParameterError,
    SingularStepError,
    SingularSystemError,
    require_finite,
    require_integer,
)
from .history import DelayGrid, RingBuffer, init_from_history
from .scalar import EPS_DEN, SchemeConfig

# ``scipy.linalg.lapack``, bound by ``_load_lapack`` at the first
# factorization or unfactored ie step: importing scipy.linalg costs about
# 0.1 s, which runs that never solve a field system should not pay.
lapack = None
# ``openblas_set_num_threads_local`` of the OpenBLAS bundled with scipy, bound
# with ``lapack``; None where that library or symbol is absent.  In a pthreads
# build the count it sets is shared by all threads, so concurrent steps take
# the lock: otherwise the last to finish could restore another step's 1.
_set_blas_threads = None
_blas_threads_lock = threading.Lock()


@dataclass
class PdeProblem:
    """Parameters of the delayed reaction-diffusion model.

    The reaction law is lambda(t) = lambda0 + lambda1 * sin(2 pi t / T_lambda);
    lambda1 = 0 makes the problem autonomous.  ``history`` maps (t, x-array)
    to the field on the interior grid for t in [tau, 0].
    """

    kappa: float
    lambda0: float
    b: float
    tau: float
    Nx: int
    history: Callable[[float, np.ndarray], np.ndarray]
    lambda1: float = 0.0
    T_lambda: float = 4.0
    L: float = 1.0

    def __post_init__(self):
        require_finite(kappa=self.kappa, lambda0=self.lambda0, lambda1=self.lambda1,
                       b=self.b, tau=self.tau, T_lambda=self.T_lambda, L=self.L)
        if self.kappa < 0:
            raise ParameterError(f"diffusion coefficient must be >= 0, got {self.kappa}")
        if self.tau >= 0:
            raise ParameterError(f"delay must be negative, got {self.tau}")
        require_integer(Nx=self.Nx)
        if self.Nx < 1:
            raise ParameterError(f"need at least one interior point, got {self.Nx}")
        if self.L <= 0:
            raise ParameterError(f"domain length must be positive, got {self.L}")
        if self.lambda1 != 0.0 and self.T_lambda <= 0:
            raise ParameterError("modulation period must be positive")

    @property
    def dx(self) -> float:
        return self.L / (self.Nx + 1)

    @property
    def xgrid(self) -> np.ndarray:
        return self.dx * np.arange(1, self.Nx + 1)

    @property
    def autonomous(self) -> bool:
        return self.lambda1 == 0.0

    def lam(self, t: float) -> float:
        if self.autonomous:
            return self.lambda0
        return self.lambda0 + self.lambda1 * math.sin(2.0 * math.pi * t / self.T_lambda)


@dataclass
class Tridiag:
    """Symmetric tridiagonal system with optional cached factors: ``(d, e)``
    of L D L^T, or ``(dl, d, du, du2, ipiv)`` of pivoted LU."""

    diag: np.ndarray
    off: np.ndarray
    _factor: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.off = np.asarray(self.off, dtype=float)
        if self.off.size != max(self.diag.size - 1, 0):
            raise ParameterError("off-diagonal length must be n - 1")

    def factorize(self) -> "Tridiag":
        """Cache LAPACK factors of the system; solves then only substitute.

        The system is first factored as L D L^T by ``dpttrf``.  Its factors
        are kept when every pivot of D is positive and finite, that is,
        when the matrix is positive definite in floating point (``dpttrf``
        itself lets a NaN pivot through).  Otherwise the system takes LU
        with partial pivoting by ``dgttrf``, whose wrapper rejects n < 3: a
        smaller system is padded with an uncoupled identity block, which
        leaves its leading factors unchanged.  Every factor comes from
        here, so ``thomas_solve`` always finds ``lapack`` bound.
        """
        _load_lapack()
        diag, off = self.diag, self.off
        # The dpttrf wrapper wants one off-diagonal entry even when n = 1.
        d, e, info = lapack.dpttrf(diag, off if diag.size > 1 else np.zeros(1))
        if info == 0 and np.isfinite(d).all():
            self._factor = d, e
            return self
        pad = 3 - diag.size
        if pad > 0:
            off = np.concatenate((off, np.zeros(pad)))
            diag = np.concatenate((diag, np.ones(pad)))
        dl, d, du, du2, ipiv, info = lapack.dgttrf(off, diag, off)
        if info != 0:
            raise SingularSystemError(f"zero pivot during factorization (info={info})")
        self._factor = dl, d, du, du2, ipiv
        return self


def _load_lapack() -> None:
    """Bind the module globals ``lapack`` and ``_set_blas_threads`` on first use."""
    global lapack, _set_blas_threads
    if lapack is None:
        from scipy.linalg import lapack
        _set_blas_threads = _openblas_thread_setter()


def _openblas_thread_setter():
    """The ctypes function ``openblas_set_num_threads_local`` of scipy's
    bundled OpenBLAS (``scipy.libs/libscipy_openblas*``), or None."""
    import ctypes
    from pathlib import Path

    import scipy
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = ctypes.c_int
            return fn
    return None


def assemble_system(problem: PdeProblem, h: float, t: float,
                    include_reaction: bool) -> Tridiag:
    """Matrix of (I - h kappa Delta_h - h lambda(t) I) on the interior grid.

    Delta_h is the standard three-point Laplacian with the Dirichlet rows
    eliminated; ``include_reaction=False`` drops the lambda term.
    """
    n = problem.Nx
    r = h * problem.kappa / problem.dx ** 2
    diag = np.full(n, 1.0 + 2.0 * r)
    if include_reaction:
        diag -= h * problem.lam(t)
    return Tridiag(diag=diag, off=np.full(max(n - 1, 0), -r))


def thomas_solve(sys: Tridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored tridiagonal system for one right-hand side.

    ``sys`` must carry the factors of ``Tridiag.factorize``, so every
    factorization is one call of that method.  L D L^T factors are
    substituted by ``dpttrs``, pivoted LU factors by ``dgttrs``.
    """
    factor = sys._factor
    if factor is None:
        raise ParameterError("thomas_solve needs a system factored by Tridiag.factorize")
    rhs = np.asarray(rhs, dtype=float)
    n = sys.diag.size
    if rhs.shape != (n,):
        raise ParameterError("right-hand side length mismatch")
    if len(factor) == 2:
        x, info = lapack.dpttrs(*factor, rhs)
    else:
        if n < 3:
            rhs = np.concatenate((rhs, np.zeros(3 - n)))
        x, info = lapack.dgttrs(*factor, rhs)
    if info != 0:
        raise SingularSystemError(f"substitution failed (info={info})")
    return x[:n]


def ie_pde_step(u_n: np.ndarray, buffer: RingBuffer, t_new: float,
                problem: PdeProblem, h: float,
                cache: Optional[Tridiag] = None) -> np.ndarray:
    """One implicit Euler step to time ``t_new``.

    Shifts the buffer (pushing ``u_n``), reads the post-shift oldest field as
    the delayed value, and solves (I - h kappa Delta_h - h lambda(t_new)) u =
    u_n + h b u_delay.  A factored ``cache`` of that system is substituted
    by ``thomas_solve``.  Without one the system is assembled at ``t_new``
    and its lower triangle solved by one ``dsysv`` call, which factors the
    Fortran-order array in place (``overwrite_a``, no copy); the default
    workspace selects the unblocked ``dsytf2``, which skips the zero columns
    below the sub-diagonal.  An exactly singular system raises
    ``SingularSystemError``.

    The ``dsysv`` call runs with the calling thread's OpenBLAS count set to
    1 by ``openblas_set_num_threads_local``, and the previous count is put
    back afterwards, also when the call raises.  In a pthreads build of
    OpenBLAS that count is shared by all threads, so these calls take one
    lock, and other threads' BLAS calls also run on one thread while it is
    held.  At Nx 300 the whole step then takes a steady ~106 µs, where the
    default threads gave ~145 µs or ~390 µs by thread regime, and far
    more while other processes kept the cores busy; the bits are the same.
    Where scipy's OpenBLAS lacks the symbol, ``dsysv`` runs with the
    default threads.
    """
    buffer.push(u_n)
    rhs = u_n + h * problem.b * buffer[0]
    if cache is not None:
        return thomas_solve(cache, rhs)
    _load_lapack()
    sys = assemble_system(problem, h, t_new, include_reaction=True)
    n = problem.Nx
    dense = np.zeros((n, n), order="F")
    idx = np.arange(n)
    dense[idx, idx] = sys.diag
    dense[idx[1:], idx[:-1]] = sys.off
    if _set_blas_threads is None:
        _, _, x, info = lapack.dsysv(dense, rhs, lower=1, overwrite_a=1)
    else:
        with _blas_threads_lock:
            previous = _set_blas_threads(1)
            try:
                _, _, x, info = lapack.dsysv(dense, rhs, lower=1, overwrite_a=1)
            finally:
                _set_blas_threads(previous)
    if info != 0:
        raise SingularSystemError(f"singular system at t = {t_new} (info={info})")
    return x


def lt_pde_step(u_n: np.ndarray, buffer: RingBuffer, t_n: float,
                problem: PdeProblem, h: float, cache: Tridiag) -> np.ndarray:
    """One splitting step from time ``t_n``.

    Implicit diffusion solve against the cached reaction-free factorization,
    ring-buffer transport shift, then the pointwise reaction/delay update
    (u* + h b u_delay)/(1 - h lambda(t_n)) on the post-shift oldest field.
    """
    u_star = thomas_solve(cache, u_n)
    buffer.push(u_n)
    den = 1.0 - h * problem.lam(t_n)
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"1 - h*lambda = {den} below guard")
    return (u_star + h * problem.b * buffer[0]) / den


@dataclass
class PdeRunResult:
    times: np.ndarray
    center: np.ndarray
    l2: np.ndarray
    scheme: str
    final: np.ndarray
    wall_clock: float = 0.0


def run_pde(problem: PdeProblem, config: SchemeConfig) -> PdeRunResult:
    """Advance the field to T, recording center and L2 traces and the field at T.

    The center value u(t, L/2) is linearly interpolated between the two
    bracketing grid points (with an even interior count the midpoint falls
    between nodes); the L2 trace is the discrete norm sqrt(dx * sum u^2).
    """
    if config.delay_mode != "grid":
        raise ParameterError("field runs support the grid delay mode only")
    grid = DelayGrid(config.h, problem.tau)
    if not grid.is_integer_lag:
        raise ParameterError("field runs require the delay to be an integer "
                             "multiple of the step")
    h = config.h
    xg = problem.xgrid
    _load_lapack()  # a first-use import must not count as run time
    start = time.perf_counter()

    def field_at(t: float) -> np.ndarray:
        # Checked once per sample here, so the steps never see a wrong shape.
        u = np.asarray(problem.history(t, xg), dtype=float)
        if u.shape != xg.shape:
            raise ParameterError(f"history at t = {t} has shape {u.shape}, "
                                 f"expected {xg.shape} (one value per interior point)")
        return u

    buffer = init_from_history(field_at, grid)
    u = field_at(0.0)

    # Center interpolation weights are fixed by the grid layout.  The trace
    # is kept in Python floats: the same IEEE operations as on numpy scalars.
    pos = problem.L / 2.0 / problem.dx - 1.0
    i_left = min(int(np.floor(pos)), problem.Nx - 2) if problem.Nx > 1 else 0
    frac = pos - i_left if problem.Nx > 1 else 0.0

    def center_of(vec: np.ndarray) -> float:
        if problem.Nx == 1:
            return vec.item(0)
        return (1.0 - frac) * vec.item(i_left) + frac * vec.item(i_left + 1)

    # np.linalg.norm of a real vector is sqrt(u.dot(u)); one dot product per
    # step gives the L2 value and, when finite, proves every entry finite.
    sqrt_dx = math.sqrt(problem.dx)
    n_steps = config.n_steps
    center = np.empty(n_steps + 1)
    l2 = np.empty(n_steps + 1)

    # ie caches the full system when it is autonomous, lt the diffusion part.
    level = config.level
    step = ie_pde_step if level else lt_pde_step
    cache = None
    if problem.autonomous or not level:
        cache = assemble_system(problem, h, 0.0, include_reaction=bool(level)).factorize()
    # Pass 0 records the initial field under the same finiteness rule.
    for n in range(n_steps + 1):
        if n:
            u = step(u, buffer, (n - 1 + level) * h, problem, h, cache)
        sq = float(u.dot(u))
        # An overflowing sum of finite squares is not a divergence.
        if not math.isfinite(sq) and not np.isfinite(u).all():
            raise DivergenceError(f"non-finite field at step {n}", step=n)
        center[n] = center_of(u)
        l2[n] = sqrt_dx * math.sqrt(sq)
    wall = time.perf_counter() - start
    times = h * np.arange(n_steps + 1)
    return PdeRunResult(times=times, center=center, l2=l2,
                        scheme=config.scheme, final=u, wall_clock=wall)


def oscillating_history(t: float, x: np.ndarray) -> np.ndarray:
    """Offset standing-mode history used by the bundled field presets."""
    return 0.3 + 0.2 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * t)
