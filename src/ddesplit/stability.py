"""Finite-dimensional stability lab for the scalar one-step maps.

The two grid-mode recurrences are (m+1)-dimensional linear maps on the state
(u_n, u_{n-1}, ..., u_{n-m}).  This module assembles them as matrices
together with the shift/coupling factors they are built from, computes
spectral radii and summability/Ritt diagnostics, and verifies the exact
telescoping and summation-by-parts identities that drive the error analysis.

All operator norms are the induced infinity norm (max absolute row sum);
spectral radii are norm independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, ParameterError, RootConvergenceError
from .history import DelayGrid
from .scalar import ScalarDelayProblem, StepCoefficients


def _inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=-1).max())


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


def build_discrete_propagators(problem: ScalarDelayProblem,
                               h: float) -> DiscretePropagators:
    """Assemble Sigma, D, H and the one-step matrices P, R, E.

    Requires constant coefficients and an integer lag.
    """
    if problem.a_mode != "constant":
        raise ParameterError("matrix lab requires constant coefficients")
    grid = DelayGrid(h, problem.tau)
    if not grid.is_integer_lag:
        raise ParameterError("matrix lab requires an integer lag (delta = 0)")
    m = grid.m
    d = m + 1
    a, b = problem.a, problem.b
    coeffs = StepCoefficients.from_params(a, b, h)

    # Sigma is the companion matrix with alpha = 1, beta = 0.
    Sigma = CompanionOperator(m, 1.0, 0.0).dense()
    D = np.zeros((d, d))
    D[0, 0] = a
    D[0, m] = b
    H = h * (D @ Sigma)

    P = CompanionOperator(m, coeffs.alpha, coeffs.beta).dense()
    # R reads the delayed value one level later: beta moves from column m to
    # column m - 1 (+= : for m = 1 that is the diagonal entry).
    R = P.copy()
    R[0, m] = 0.0
    R[0, m - 1] += coeffs.beta
    E = R - P
    return DiscretePropagators(m=m, h=h, coeffs=coeffs, Sigma=Sigma, D=D,
                               H=H, P=P, R=R, E=E)


def defect_norm(props: DiscretePropagators) -> float:
    """Infinity norm of the one-step defect R - P (exactly 2|beta| for m >= 2)."""
    return _inf_norm(props.E)


def estimate_os_norm(problem: ScalarDelayProblem, h: float) -> float:
    """Norm of the smallness factor ||h D Sigma||_inf.

    Equals h(|a| + |b|) when the delay column is distinct from the diagonal
    (m >= 2); for m = 1 both couplings land in one column and the norm is
    h|a + b|.
    """
    props = build_discrete_propagators(problem, h)
    return _inf_norm(props.H)


def spectral_radius(op: CompanionOperator, tol: float = 1e-12) -> float:
    """Largest root modulus of p(z) = z^{m+1} - alpha z^m - beta.

    Durand-Kerner iteration on the sparse-coefficient polynomial; all m+1
    roots are polished simultaneously.  Deterministic initial guesses sit on
    a circle of radius max(1, |alpha|+|beta|)^{1/(m+1)} with a fixed phase
    offset to break symmetry.
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    n = op.m + 1
    alpha, beta = op.alpha, op.beta
    if beta == 0.0:
        return abs(alpha)

    def p(z):
        return z ** op.m * (z - alpha) - beta

    radius = max(1.0, abs(alpha) + abs(beta)) ** (1.0 / n)
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
    max_sweeps = 10 * n
    for _ in range(max_sweeps):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        step = p(z) / diff.prod(axis=1)
        z = z - step
        if np.abs(step).max() < tol:
            return float(np.abs(z).max())
    raise RootConvergenceError(
        f"no convergence after {max_sweeps} sweeps",
        residual=float(np.abs(p(z)).max()),
    )


def dense_spectral_radius(op: CompanionOperator) -> float:
    """Eigensolver route on the dense companion matrix (test oracle)."""
    return float(np.abs(np.linalg.eigvals(op.dense())).max())


def stability_profiles(op: np.ndarray, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact summability and Ritt sequences by repeated multiplication.

    Returns (S, r) with S[k-1] = ||sum_{j<k} op^j||_inf for k = 1..N and
    r[n-1] = n * ||op^n - op^{n-1}||_inf.  Dense and exact to rounding (no
    eigendecomposition), so only suitable for desk-scale N and dimension.
    """
    op = np.asarray(op, dtype=float)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ParameterError("operator must be a square matrix")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    d = op.shape[0]
    power_prev = np.eye(d)
    partial = np.eye(d)
    S = np.empty(N)
    r = np.empty(N)
    S[0] = _inf_norm(partial)
    # Overflow is detected and reported below, not left to hardware warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N + 1):
            power = power_prev @ op
            if not np.isfinite(power).all():
                raise NumericalError(f"power overflow at n = {n}")
            r[n - 1] = n * _inf_norm(power - power_prev)
            if n < N:
                partial = partial + power
                S[n] = _inf_norm(partial)
            power_prev = power
    return S, r


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
    """
    m = op.m
    tail = 2 * m + 2
    alpha, beta = float(op.alpha), float(op.beta)
    seq = [0.0] * tail + [1.0]
    for j0 in range(0, n_max + 1, _CHUNK):
        append = seq.append
        lag = len(seq) - m - 1
        c_j = seq[-1]
        for _ in range(tail + min(_CHUNK, n_max + 1 - j0) - len(seq)):
            c_j = alpha * c_j + beta * seq[lag]
            append(c_j)
            lag += 1
        c = np.array(seq)
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
    checkpoint list; entries match the dense :func:`stability_profiles`
    exactly to rounding.
    """
    ks = sorted(set(int(k) for k in checkpoints))
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


def power_norm_sum(op: np.ndarray, N: int) -> float:
    """Sum of power norms sum_{n<N} ||op^n||_inf by repeated multiplication.

    Distinct from the partial-sum norms of :func:`stability_profiles`: this
    is the series whose uniform boundedness the modulus heuristic
    1/(1 - rho) tries to estimate.  Dense; test-scale only.
    """
    op = np.asarray(op, dtype=float)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ParameterError("operator must be a square matrix")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    power = np.eye(op.shape[0])
    total = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N):
            power = power @ op
            if not np.isfinite(power).all():
                raise NumericalError(f"power overflow at n = {n}")
            total += _inf_norm(power)
    return total


def companion_power_norm_sum(op: CompanionOperator, N: int) -> float:
    """Sum of power norms sum_{n<N} ||op^n||_inf for a companion operator.

    Row i of op^n is the first row of op^{n-i} (or a unit vector), so
    ||op^n||_inf is the maximum of the last m+1 first-row 1-norms.  Each
    1-norm is |c_j| plus a window sum of |b|, taken from prefix sums local
    to one chunk of :func:`_first_rows`: an O(N) scalar recurrence in
    O(chunk + m) memory covers six-figure N.
    """
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
                       P_list: Sequence[np.ndarray],
                       return_scale: bool = False):
    """Residual of the time-ordered telescoping identity.

    Checks prod R - prod P = sum_k R_{n-1:k+1} (R_k - P_k) P_{k-1:0}
    entrywise; the result must vanish to rounding.  With ``return_scale``
    the largest intermediate magnitude is returned as well.
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
    if not return_scale:
        return residual
    scale = max(
        float(np.abs(lhs).max()),
        max(float(np.abs(s).max()) for s in suffix),
        max(float(np.abs(p).max()) for p in prefix),
        1.0,
    )
    return residual, scale


def verify_abel(T: np.ndarray, tau_list: Sequence[np.ndarray],
                return_scale: bool = False):
    """Residual of the summation-by-parts identity for matrix powers.

    Checks sum_{k=0}^{n-1} T^{n-1-k} tau_k = A_{n-1}
    - sum_{m=1}^{n-1} (T^{m-1} - T^m) A_{n-1-m}, with A_k the partial sums
    of the tau vectors.  Both sides are evaluated directly.
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
    if not return_scale:
        return residual
    scale = max(
        float(np.abs(lhs).max()),
        max(float(np.abs(p).max()) for p in powers),
        float(np.abs(partial).max()),
        1.0,
    )
    return residual, scale
