"""Finite-dimensional stability lab for the scalar one-step maps.

The two grid-mode recurrences are (m+1)-dimensional linear maps on the state
(u_n, u_{n-1}, ..., u_{n-m}).  This module assembles them as matrices
together with the shift/coupling factors they are built from, computes
spectral radii, smallness norms and summability/Ritt diagnostics from the
companion form alone, and verifies the exact telescoping and
summation-by-parts identities that drive the error analysis.

All operator norms are the induced infinity norm (max absolute row sum);
spectral radii are norm independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    NumericalError,
    ParameterError,
    RootConvergenceError,
    require_finite,
    require_integer,
)
from .history import DelayGrid
from .scalar import ScalarDelayProblem, StepCoefficients


@dataclass
class CompanionOperator:
    """Matrix-free companion form of the Lie-Trotter recurrence.

    Acts on x = (x_0, ..., x_m) as (alpha x_0 + beta x_m, x_0, ..., x_{m-1});
    x_j holds the value j steps old.
    """

    m: int
    alpha: float
    beta: float

    def __post_init__(self):
        require_finite(alpha=self.alpha, beta=self.beta)
        require_integer(m=self.m)
        if self.m < 1:
            raise ParameterError(f"delay depth must be >= 1, got {self.m}")

    @property
    def dimension(self) -> int:
        return self.m + 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[0] = self.alpha * x[0] + self.beta * x[self.m]
        out[1:] = x[:-1]
        return out

    def dense(self) -> np.ndarray:
        """Dense matrix realization (test oracle and small-scale diagnostics)."""
        d = self.dimension
        mat = np.zeros((d, d))
        mat[0, 0] = self.alpha
        mat[0, self.m] = self.beta
        mat[np.arange(1, d), np.arange(0, d - 1)] = 1.0
        return mat


@dataclass
class DiscretePropagators:
    """Matrix realizations of one implicit Euler / splitting step.

    Attributes
    ----------
    Sigma : ndarray
        Exact shift with inflow: (x_0, x_0, x_1, ..., x_{m-1}).
    D : ndarray
        Coupling row map (a x_0 + b x_m, 0, ..., 0).
    H : ndarray
        h * D * Sigma, the operational-smallness factor.
    P : ndarray
        Splitting step: top row alpha at column 0, beta at column m.
    R : ndarray
        Implicit Euler step: top row alpha at column 0, beta at column m-1;
        equals (I - h D)^{-1} Sigma exactly.
    E : ndarray
        Defect R - P (single nonzero row with entries +-beta).
    """

    m: int
    h: float
    coeffs: StepCoefficients
    Sigma: np.ndarray
    D: np.ndarray
    H: np.ndarray
    P: np.ndarray
    R: np.ndarray
    E: np.ndarray


def companion_operator(problem: ScalarDelayProblem, h: float) -> CompanionOperator:
    """The Lie-Trotter step of ``problem`` at step ``h`` in companion form.

    The stability diagnostics need constant coefficients and an integer lag.
    """
    if problem.a_mode != "constant":
        raise ParameterError("stability diagnostics need constant coefficients")
    grid = DelayGrid(h, problem.tau)
    if not grid.is_integer_lag:
        raise ParameterError("stability diagnostics need an integer lag, "
                             f"got -tau/h = {-problem.tau / h:.12g}")
    coeffs = StepCoefficients.from_params(problem.a, problem.b, h)
    return CompanionOperator(grid.m, coeffs.alpha, coeffs.beta)


def build_discrete_propagators(problem: ScalarDelayProblem,
                               h: float) -> DiscretePropagators:
    """Assemble Sigma, D, H and the one-step matrices P, R, E.

    Requires constant coefficients and an integer lag.
    """
    op = companion_operator(problem, h)
    m = op.m
    d = m + 1
    a, b = problem.a, problem.b

    # Sigma is the companion matrix with alpha = 1, beta = 0.
    Sigma = CompanionOperator(m, 1.0, 0.0).dense()
    D = np.zeros((d, d))
    D[0, 0] = a
    D[0, m] = b
    H = h * (D @ Sigma)

    P = op.dense()
    # R reads the delayed value one level later: beta moves from column m to
    # column m - 1 (+= : for m = 1 that is the diagonal entry).
    R = P.copy()
    R[0, m] = 0.0
    R[0, m - 1] += op.beta
    E = R - P
    return DiscretePropagators(m=m, h=h, coeffs=StepCoefficients(op.alpha, op.beta),
                               Sigma=Sigma, D=D, H=H, P=P, R=R, E=E)


def defect_norm(op: CompanionOperator) -> float:
    """Infinity norm of the one-step defect E = R - P of the matrix lab.

    E has one nonzero row, beta at column m - 1 and -beta at column m, so
    the norm is 2|beta|.  For m = 1 the beta of R shares column 0 with
    alpha, and the row is ((alpha + beta) - alpha, -beta).
    """
    if op.m == 1:
        return abs((op.alpha + op.beta) - op.alpha) + abs(op.beta)
    return 2.0 * abs(op.beta)


def estimate_os_norm(problem: ScalarDelayProblem, h: float) -> float:
    """Norm of the smallness factor ||h D Sigma||_inf.

    Equals |h a| + |h b| when the delay column is distinct from the diagonal
    (m >= 2); for m = 1 both couplings land in one column and the norm is
    |h (a + b)|.
    """
    a, b = problem.a, problem.b
    if companion_operator(problem, h).m == 1:
        return abs(h * (a + b))
    return abs(h * a) + abs(h * b)


# Aberth sweeps before giving up.  From the Newton-polygon starts the
# iteration settles within 30 sweeps on the benchmark operators, m 257 to
# 2570, but stalls on some drawn coefficients at depths in the hundreds.
_MAX_SWEEPS = 100

# The pairwise root sums are formed this many rows at a time, so memory
# stays O(_ROW_BLOCK * m) at any depth.
_ROW_BLOCK = 256


def spectral_radius(op: CompanionOperator) -> float:
    """Largest root modulus of p(z) = z^{m+1} - alpha z^m - beta.

    Aberth-Ehrlich iteration on all m+1 roots at once.  The Newton ratio
    p/p' = (z(z - alpha) - beta z^{1-m}) / ((m+1) z - m alpha) takes
    beta z^{1-m} from logarithms, so no power of z over- or underflows.  The
    starting circles come from the Newton polygon of the trinomial: one root
    near |alpha| and m near |beta/alpha|^{1/m} when |alpha|^{m+1} > |beta|,
    else all near |beta|^{1/(m+1)}.

    Each sweep treats only the roots still moving: it tests their residuals
    against a bound on the rounding error, applies the correction to all of
    them, and only then freezes those whose residual passed (freezing before
    that correction returns wrong radii on some deep operators).  The
    pairwise sums over 1/(z_i - z_j) take the moving rows against all roots
    as they stood before the sweep, _ROW_BLOCK rows at a time.  The sweeps
    stop once no root is moving.
    """
    m, alpha, beta = op.m, op.alpha, op.beta
    if beta == 0.0:
        return abs(alpha)
    n = m + 1
    log_abs_beta = math.log(abs(beta))
    if alpha != 0.0 and n * math.log(abs(alpha)) > log_abs_beta:
        radii = np.full(n, math.exp((log_abs_beta - math.log(abs(alpha))) / m))
        if radii[0] < np.finfo(float).tiny:
            # The m small roots underflow; the largest is alpha to rounding.
            return abs(alpha)
        radii[0] = abs(alpha)
    else:
        radii = np.full(n, math.exp(log_abs_beta / n))
    z = radii * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
    log_beta = cmath.log(beta)
    eps = np.finfo(float).eps
    moving = np.arange(n)
    diff = np.empty((min(_ROW_BLOCK, n), n), dtype=complex)
    # A non-finite iterate fails the residual test and ends in the error below.
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            zm = z[moving]
            log_z = np.log(zm)
            beta_z = np.exp(log_beta + (1 - m) * log_z)
            residual = zm * (zm - alpha) - beta_z
            # Rounding of z^{m+1} and alpha z^m, scaled by z^{1-m}, and of
            # the exponential, whose argument carries |log beta| + m |log z|.
            bound = 4.0 * eps * n * (
                np.abs(zm) * (np.abs(zm) + abs(alpha))
                + np.abs(beta_z) * (1.0 + abs(log_beta) + np.abs(log_z)))
            converged = np.abs(residual) <= bound
            ratio = residual / (n * zm - m * alpha)
            sums = np.empty_like(zm)
            for start in range(0, moving.size, _ROW_BLOCK):
                rows = moving[start:start + _ROW_BLOCK]
                block = diff[:rows.size]
                np.subtract(z[rows, None], z, out=block)
                block[np.arange(rows.size), rows] = np.inf
                sums[start:start + _ROW_BLOCK] = np.reciprocal(block, out=block).sum(1)
            z[moving] = zm - ratio / (1.0 - ratio * sums)
            moving = moving[~converged]
            if not moving.size:
                return float(np.abs(z).max())
    raise RootConvergenceError(
        f"no convergence after {_MAX_SWEEPS} sweeps",
        residual=float(np.abs(residual).max()),
    )


# The first-row sequences are produced this many steps at a time, so memory
# stays O(_CHUNK + m) at any horizon.
_CHUNK = 4096


def _first_rows(op: CompanionOperator, n_max: int
                ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """First rows of op^0, ..., op^n_max, a chunk at a time.

    Row i of op^j is the first row of op^{j-i} (a unit vector when j < i),
    and the first row of op^j is (c_j, b_{j-m}, ..., b_{j-1}) with
    c_j = alpha c_{j-1} + beta c_{j-1-m}, c_0 = 1, b_j = beta c_j, and both
    sequences zero at negative j.  Yields (j0, c, b) where c[tail + i] and
    b[tail + i] hold c_{j0+i} and b_{j0+i}; the tail = 2m + 2 leading
    entries repeat the values before j0, which covers every window the
    diagnostics read.  The scalar loop rounds exactly as the O(m) row update
    does, fl(fl(alpha c_{j-1}) + b_{j-1-m}).

    The next m + 1 values lag by m + 1 only values already known, so the
    loop runs over a slice of those lagged values, up to m + 1 steps per
    slice, rather than indexing the sequence at every step.
    """
    m = op.m
    tail = 2 * m + 2
    alpha, beta = float(op.alpha), float(op.beta)
    seq = [0.0] * tail + [1.0]
    for j0 in range(0, n_max + 1, _CHUNK):
        append = seq.append
        c_j = seq[-1]
        lag = len(seq) - m - 1
        stop = lag + tail + min(_CHUNK, n_max + 1 - j0) - len(seq)
        while lag < stop:
            known = min(lag + m + 1, stop)
            for lagged in seq[lag:known]:
                c_j = alpha * c_j + beta * lagged
                append(c_j)
            lag = known
        c = np.array(seq, dtype=float)
        bad = np.flatnonzero(~np.isfinite(c[tail:]))
        if bad.size:
            raise NumericalError(f"power overflow at n = {j0 + int(bad[0])}")
        yield j0, c, beta * c
        seq = seq[-tail:]


def _running_sums(sums: np.ndarray, x: np.ndarray, tail: int) -> np.ndarray:
    """The last ``tail`` entries of ``sums``, then its running sum continued over x.

    Accumulates left to right from sums[-1], so the values are those of adding
    one term per step.
    """
    return np.concatenate((sums[-tail:], np.cumsum(np.concatenate((sums[-1:], x)))[1:]))


def _max_row_norm(heads: np.ndarray, window: np.ndarray, m: int) -> float:
    """Largest 1-norm among the rows (heads[i], window[m-i : 2m-i]), i < len(heads).

    The rows share one Hankel window, so prefix sums of |window| estimate
    every row norm in O(m) together.  Only the rows within rounding of the
    largest estimate are summed again, laid out as the dense rows, so the
    result has the bits of the dense row sums.
    """
    i = np.arange(heads.size)
    prefix = np.concatenate(([0.0], np.cumsum(np.abs(window))))
    estimate = np.abs(heads) + (prefix[2 * m - i] - prefix[m - i])
    slack = 16 * (m + 1) * np.finfo(float).eps * (prefix[-1] + np.abs(heads).max())
    # "not below" keeps every row when an estimate is not finite.
    near = np.flatnonzero(~(estimate < estimate.max() - slack))
    rows = np.column_stack((heads[near], sliding_window_view(window, m)[m - near]))
    return float(np.abs(rows).sum(axis=1).max())


def companion_profiles(op: CompanionOperator, checkpoints: Sequence[int]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Summability and Ritt values of a companion operator at checkpoints.

    Exploits the shift structure: every row of op^j and of the partial sum
    sum_{j<k} op^j is read off the scalar first-row sequence of
    :func:`_first_rows` and its running sums.  Total cost is an O(N) scalar
    recurrence, N = max(checkpoints), plus O(m) per checkpoint, in
    O(chunk + m) memory, which is what makes six-figure horizons affordable.

    Returns (S_values, r_values) aligned with the sorted deduplicated
    checkpoint list; entries match repeated dense multiplication exactly to
    rounding.
    """
    ks = list(checkpoints)
    for k in ks:
        require_integer(checkpoint=k)
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ParameterError("checkpoints must be positive integers")
    m = op.m
    tail = 2 * m + 2
    units = np.repeat([1.0, 0.0], m)
    S_vals: list = []
    r_vals: list = []
    sum_c = sum_b = np.zeros(tail)  # running sums of c and b, zero before j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j0, c, b in _first_rows(op, ks[-1]):
            sum_c = _running_sums(sum_c, c[tail:], tail)
            sum_b = _running_sums(sum_b, b[tail:], tail)
            j1 = j0 + c.size - tail
            # S_k = ||sum_{j<k} op^j||.  For i < k, row i is the units
            # e_1 + ... + e_i plus the sum of the first rows of op^0..op^{k-1-i}:
            # (sum_c_{k-1-i}, sum_b_{k-2-m-i+q} for q = 1..m).  For i >= k it
            # is k units, no larger than row k - 1 = (1, ..., 1, 0, ...).
            while len(S_vals) < len(ks) and ks[len(S_vals)] <= j1:
                k = ks[len(S_vals)]
                p = tail + k - 1 - j0          # position of index k - 1
                heads = sum_c[p + 1 - min(k, m + 1):p + 1][::-1]
                window = sum_b[p - 2 * m:p] + units
                S_vals.append(_max_row_norm(heads, window, m))
            # r_n = n ||op^n - op^{n-1}||.  For i < n, row i is the first row
            # of op^{n-i} minus that of op^{n-1-i}; for i >= n it is the
            # difference of two units, norm 2.
            while len(r_vals) < len(ks) and ks[len(r_vals)] < j1:
                n = ks[len(r_vals)]
                p = tail + n - j0              # position of index n
                heads = np.diff(c[p - min(n, m + 1):p + 1])[::-1]
                window = np.diff(b[p - 2 * m - 1:p])
                r_vals.append(n * max(2.0 if n <= m else 0.0,
                                      _max_row_norm(heads, window, m)))
    return np.array(S_vals, dtype=float), np.array(r_vals, dtype=float)


def companion_power_norm_sum(op: CompanionOperator, N: int) -> float:
    """Sum of power norms sum_{n<N} ||op^n||_inf for a companion operator.

    Row i of op^n is the first row of op^{n-i} (or a unit vector), so
    ||op^n||_inf is the maximum of the last m+1 first-row 1-norms.  Each
    1-norm is |c_j| plus a window sum of |b|, taken from prefix sums local
    to one chunk of :func:`_first_rows`: an O(N) scalar recurrence in
    O(chunk + m) memory covers six-figure N.
    """
    require_integer(N=N)
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    m = op.m
    tail = 2 * m + 2
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _, c, b in _first_rows(op, N - 1):
            # 1-norms of the first rows from m before the chunk to its end.
            # Before j = 0 they read 0: every window reaching there also
            # holds op^0's row, whose norm 1 the unit rows of op^n share.
            prefix = np.concatenate(([0.0], np.cumsum(np.abs(b))))
            row_norms = (np.abs(c[tail - m:])
                         + prefix[tail - m:c.size] - prefix[tail - 2 * m:c.size - m])
            total += float(_sliding_max(row_norms, m + 1).sum())
    return total


def _sliding_max(x: np.ndarray, w: int) -> np.ndarray:
    """out[i] = max(x[i:i+w]) in O(len(x)) (van Herk / Gil-Werman).

    A window spans at most two aligned blocks of w, so it is the max of a
    block suffix and a block prefix.
    """
    n = x.size
    blocks = np.full(-(-n // w) * w, -np.inf)
    blocks[:n] = x
    blocks = blocks.reshape(-1, w)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n - w + 1], prefix[w - 1:n])


def verify_telescoping(R_list: Sequence[np.ndarray],
                       P_list: Sequence[np.ndarray]) -> Tuple[float, float]:
    """Residual of the time-ordered telescoping identity, and its scale.

    Checks prod R - prod P = sum_k R_{n-1:k+1} (R_k - P_k) P_{k-1:0}
    entrywise; the residual must vanish to rounding relative to the scale,
    the largest intermediate magnitude (at least 1).
    """
    if len(R_list) != len(P_list) or not R_list:
        raise ParameterError("need equally many R and P factors, at least one")
    d = R_list[0].shape[0]
    for mat in (*R_list, *P_list):
        if mat.shape != (d, d):
            raise ParameterError("all factors must share one square dimension")
    n = len(R_list)
    # Suffix products of R (R_{n-1:k}) and prefix products of P (P_{k-1:0}).
    suffix = [np.eye(d)]
    for k in range(n - 1, -1, -1):
        suffix.append(suffix[-1] @ R_list[k])
    suffix.reverse()  # suffix[k] = R_{n-1} ... R_k, suffix[n] = I
    prefix = [np.eye(d)]
    for k in range(n):
        prefix.append(P_list[k] @ prefix[-1])
    lhs = suffix[0] - prefix[n]
    rhs = np.zeros((d, d))
    for k in range(n):
        rhs += suffix[k + 1] @ (R_list[k] - P_list[k]) @ prefix[k]
    residual = float(np.abs(lhs - rhs).max())
    scale = max(
        float(np.abs(lhs).max()),
        max(float(np.abs(s).max()) for s in suffix),
        max(float(np.abs(p).max()) for p in prefix),
        1.0,
    )
    return residual, scale


def verify_abel(T: np.ndarray,
                tau_list: Sequence[np.ndarray]) -> Tuple[float, float]:
    """Residual of the summation-by-parts identity for matrix powers, and its scale.

    Checks sum_{k=0}^{n-1} T^{n-1-k} tau_k = A_{n-1}
    - sum_{m=1}^{n-1} (T^{m-1} - T^m) A_{n-1-m}, with A_k the partial sums
    of the tau vectors.  Both sides are evaluated directly; the scale is the
    largest intermediate magnitude (at least 1).
    """
    T = np.asarray(T, dtype=float)
    taus = [np.asarray(v, dtype=float) for v in tau_list]
    if not taus:
        raise ParameterError("need at least one tau vector")
    d = T.shape[0]
    if T.shape != (d, d) or any(v.shape != (d,) for v in taus):
        raise ParameterError("dimension mismatch between T and tau vectors")
    n = len(taus)
    powers = [np.eye(d)]
    for _ in range(n):
        powers.append(powers[-1] @ T)
    partial = np.cumsum(taus, axis=0)  # partial[k] = A_k
    lhs = sum(powers[n - 1 - k] @ taus[k] for k in range(n))
    rhs = partial[n - 1].copy()
    for mm in range(1, n):
        rhs -= (powers[mm - 1] - powers[mm]) @ partial[n - 1 - mm]
    residual = float(np.abs(lhs - rhs).max())
    scale = max(
        float(np.abs(lhs).max()),
        max(float(np.abs(p).max()) for p in powers),
        float(np.abs(partial).max()),
        1.0,
    )
    return residual, scale
