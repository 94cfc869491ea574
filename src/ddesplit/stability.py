"""Finite-dimensional stability lab for the scalar one-step maps.

The two grid-mode recurrences are (m+1)-dimensional linear maps on the state
(u_n, u_{n-1}, ..., u_{n-m}).  This module assembles them as matrices
together with the shift/coupling factors they are built from, and computes
spectral radii, smallness norms and summability/Ritt diagnostics from the
companion form alone.

All operator norms are the induced infinity norm (max absolute row sum);
spectral radii are norm independent.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import (
    NumericalError,
    ParameterError,
    RootConvergenceError,
    SingularStepError,
    require_finite,
    require_integer,
)
from .history import DelayGrid
from .scalar import EPS_DEN, ScalarDelayProblem


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

    The smallness factor h D Sigma and the defect R - P have one nonzero
    row each; ``estimate_os_norm`` and ``defect_norm`` give their norms.

    Attributes
    ----------
    coeffs : CompanionOperator
        The splitting step P in companion form.
    Sigma : ndarray
        Exact shift with inflow: (x_0, x_0, x_1, ..., x_{m-1}).
    D : ndarray
        Coupling row map (a x_0 + b x_m, 0, ..., 0).
    P : ndarray
        Splitting step: top row alpha at column 0, beta at column m.
    R : ndarray
        Implicit Euler step: top row alpha at column 0, beta at column m-1;
        equals (I - h D)^{-1} Sigma exactly.
    """

    m: int
    h: float
    coeffs: CompanionOperator
    Sigma: np.ndarray
    D: np.ndarray
    P: np.ndarray
    R: np.ndarray


def companion_operator(problem: ScalarDelayProblem, h: float) -> CompanionOperator:
    """The Lie-Trotter step of ``problem`` at step ``h`` in companion form.

    The stability diagnostics need constant coefficients and an integer lag.
    """
    if problem.a_mode != "constant":
        raise ParameterError("stability diagnostics need constant coefficients")
    grid = DelayGrid(h, problem.tau)
    grid.require_integer_lag("stability diagnostics")
    den = 1.0 - h * problem.a
    if abs(den) <= EPS_DEN:
        raise SingularStepError(f"1 - h*a = {den} below guard")
    return CompanionOperator(grid.m, 1.0 / den, h * problem.b / den)


def build_discrete_propagators(problem: ScalarDelayProblem,
                               h: float) -> DiscretePropagators:
    """Assemble Sigma, D and the one-step matrices P and R.

    Requires constant coefficients and an integer lag.
    """
    op = companion_operator(problem, h)
    m = op.m
    d = m + 1

    # Sigma is the companion matrix with alpha = 1, beta = 0.
    Sigma = CompanionOperator(m, 1.0, 0.0).dense()
    D = np.zeros((d, d))
    D[0, 0] = problem.a
    D[0, m] = problem.b
    P = op.dense()
    # R is P with beta read one level later.  ``+=``: for m = 1 column
    # m - 1 is the diagonal, which keeps its own weight.
    R = P.copy()
    R[0, m - 1] += R[0, m]
    R[0, m] = 0.0
    return DiscretePropagators(m=m, h=h, coeffs=op, Sigma=Sigma, D=D, P=P, R=R)


def defect_norm(op: CompanionOperator) -> float:
    """Infinity norm of the one-step defect R - P of the matrix lab.

    R - P has one nonzero row, beta at column m - 1 and -beta at column m, so
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


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Aberth sweeps before giving up.  From the refined asymptotic starts the
# iteration settles in 4 sweeps on the benchmark operators, m 257 to 2570,
# and in at most 6 on 1500 drawn operators with m up to 599.
_MAX_SWEEPS = 100

# Fixed-point steps that refine the asymptotic root starts, O(m) each.
_REFINE_STEPS = 3

# The pairwise root sums are formed this many rows at a time, so memory
# stays O(_ROW_BLOCK * m) at any depth.
_ROW_BLOCK = 256


def spectral_radius(op: CompanionOperator) -> float:
    """Largest root modulus of p(z) = z^{m+1} - alpha z^m - beta.

    Aberth-Ehrlich iteration on all m+1 roots at once.  The Newton ratio
    p/p' = (z(z - alpha) - beta z^{1-m}) / ((m+1) z - m alpha) takes
    beta z^{1-m} from logarithms, so no power of z over- or underflows.

    The roots start at their asymptotic positions on the trinomial: the k-th
    roots of c, refined by _REFINE_STEPS fixed-point steps of one map,
    z^k = c / (1 - q(z)).  When |alpha|^{m+1} > |beta| these are the m small
    roots, k = m, c = -beta/alpha and q = z/alpha, whose logarithm stays off
    its branch cut since |z/alpha| < 1; the large root starts at
    alpha e^{i pi/m}, half a spacing off the axis.  Otherwise they are all
    m + 1, with c = beta and q = alpha/z.  A start whose refinement is not
    finite stays unrefined.

    Each sweep treats only the roots still moving: it tests their residuals
    against a bound on the rounding error, applies the correction to all of
    them, and only then freezes those whose residual passed (freezing before
    that correction returns wrong radii on some deep operators).  The
    pairwise sums over 1/(z_i - z_j) take the moving rows against all roots
    as they stood before the sweep, _ROW_BLOCK rows at a time.  The sweeps
    stop once no root is moving.  A residual at rounding level fixes a
    multiple root only to about sqrt(eps) relative: the double root of
    (z - 1)^2 = p for (m, alpha, beta) = (1, 2, -1) comes out 1 + 3e-8.
    """
    m, alpha, beta = op.m, op.alpha, op.beta
    if beta == 0.0:
        return abs(alpha)
    n = m + 1
    log_abs_beta = math.log(abs(beta))
    log_beta = cmath.log(beta)
    # A non-finite iterate fails the residual test and ends in the error below.
    with np.errstate(all="ignore"):
        log_c, k = log_beta, n
        small = alpha != 0.0 and n * math.log(abs(alpha)) > log_abs_beta
        if small:
            log_c, k = complex(log_abs_beta - math.log(abs(alpha)),
                               0.0 if (alpha > 0.0) != (beta > 0.0) else math.pi), m
            if math.exp(log_c.real / m) < _TINY:
                # The m small roots underflow; the largest is alpha to rounding.
                return abs(alpha)
        turns = 2j * np.pi * np.arange(k)
        z0 = np.exp((log_c + turns) / k)
        z = z0
        for _ in range(_REFINE_STEPS):
            z = np.exp((log_c - np.log(1.0 - (z / alpha if small else alpha / z))
                        + turns) / k)
        z = np.where(np.isfinite(z), z, z0)
        if small:
            z = np.append(z, alpha * cmath.exp(1j * math.pi / m))
        moving = np.arange(n)
        diff = np.empty((min(_ROW_BLOCK, n), n), dtype=complex)
        for _ in range(_MAX_SWEEPS):
            zm = z[moving]
            log_z = np.log(zm)
            beta_z = np.exp(log_beta + (1 - m) * log_z)
            residual = zm * (zm - alpha) - beta_z
            # Rounding of z^{m+1} and alpha z^m, scaled by z^{1-m}, and of
            # the exponential, whose argument carries |log beta| + m |log z|.
            bound = 4.0 * _EPS * n * (
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
    does, fl(fl(alpha c_{j-1}) + b_{j-1-m}), and reads c_{j-1-m} by
    iterating over the sequence it extends rather than indexing it.
    """
    m = op.m
    tail = 2 * m + 2
    alpha, beta = float(op.alpha), float(op.beta)
    seq = [0.0] * tail + [1.0]
    for j0 in range(0, n_max + 1, _CHUNK):
        count = tail + min(_CHUNK, n_max + 1 - j0) - len(seq)
        lag = len(seq) - m - 1
        append = seq.append
        c_j = seq[-1]
        # The list iterator sees the values appended while it runs, which
        # are the lagged values of the later steps.
        for lagged in itertools.islice(seq, lag, lag + count):
            c_j = alpha * c_j + beta * lagged
            append(c_j)
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
    result has the bits of the dense row sums.  When several rows tie, as
    they do for alpha = 1 or beta = 0, two exact shortcuts keep the cost
    O(m): integers below 2^53 sum exactly in every order, so the estimates
    are the dense sums; and a row with at most two nonzero entries, head
    included, sums to fl(x + y) of those two in every order, since adding
    zeros is exact.
    """
    top = heads.size
    abs_window = np.abs(window)
    prefix = np.empty(window.size + 1)
    prefix[0] = 0.0
    np.cumsum(abs_window, out=prefix[1:])
    abs_heads = np.abs(heads)
    # Row i sums prefix[2m - i] - prefix[m - i]: reversed slices, i < top.
    estimate = abs_heads + (prefix[2 * m + 1 - top:2 * m + 1][::-1]
                            - prefix[m + 1 - top:m + 1][::-1])
    slack = 16 * (m + 1) * _EPS * (prefix[-1] + abs_heads.max())
    # "not below" keeps every row when an estimate is not finite.
    near = np.flatnonzero(~(estimate < estimate.max() - slack))
    if near.size == 1:
        return float(_row_sums(abs_heads, abs_window, m, near)[0])
    if (prefix[-1] + abs_heads.max() < 2.0 ** 53
            and np.array_equal(np.trunc(abs_window), abs_window)
            and np.array_equal(np.trunc(abs_heads), abs_heads)):
        return float(estimate.max())
    # Row i reads window[m - i : 2m - i]; count its nonzero entries and take
    # the first two, or zero where there are fewer.
    nonzero = np.flatnonzero(abs_window)
    first = np.searchsorted(nonzero, m - near)
    count = np.searchsorted(nonzero, 2 * m - near) - first
    values = np.append(abs_window[nonzero], (0.0, 0.0))
    e1, e2 = (np.where(count > k, values[first + k], 0.0) for k in (0, 1))
    # With at most two nonzero entries, head included, one term is zero.
    sparse = count + (abs_heads[near] != 0) <= 2
    sums = ((abs_heads[near] + e1) + e2)[sparse]
    dense = _row_sums(abs_heads, abs_window, m, near[~sparse])
    return float(np.concatenate((sums, dense)).max())


def _row_sums(abs_heads: np.ndarray, abs_window: np.ndarray, m: int,
              index: np.ndarray) -> np.ndarray:
    """Sums of the rows ``index`` of :func:`_max_row_norm`, laid out as the dense rows."""
    rows = np.empty((index.size, m + 1))
    rows[:, 0] = abs_heads[index]
    rows[:, 1:] = abs_window[(m - index)[:, None] + np.arange(m)]
    return rows.sum(axis=1)


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
