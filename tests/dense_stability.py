"""Dense oracles for the stability diagnostics.

Each one forms the matrices the companion routes of ``ddesplit.stability``
avoid, so they serve only as desk-scale cross-checks.  All norms are the
induced infinity norm (max absolute row sum).  The residual checks of the
exact telescoping and summation-by-parts identities that drive the error
analysis work on the same dense matrices.
"""

import math
from typing import Sequence, Tuple

import numpy as np

from ddesplit.errors import NumericalError, ParameterError


def inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=-1).max())


def dense_spectral_radius(op) -> float:
    """Largest eigenvalue modulus of the companion matrix, rescaled first.

    With z = s w and s the largest Newton-polygon radius of
    p(z) = z^{m+1} - alpha z^m - beta (|alpha| when |alpha|^{m+1} > |beta|,
    else |beta|^{1/(m+1)}), the rescaled companion matrix has entries of
    order one and its largest eigenvalue has modulus near one, so the
    eigensolver keeps its relative accuracy on near-nilpotent operators.
    For alpha = 0 every root has modulus |beta|^{1/(m+1)} exactly.
    """
    m, alpha, beta = op.m, float(op.alpha), float(op.beta)
    if beta == 0.0:
        return abs(alpha)  # the roots are alpha and 0
    n = m + 1
    log_abs_beta = math.log(abs(beta))
    if alpha != 0.0 and n * math.log(abs(alpha)) > log_abs_beta:
        log_s = math.log(abs(alpha))
    else:
        log_s = log_abs_beta / n
    s = math.exp(log_s)
    mat = np.zeros((n, n))
    mat[0, 0] = alpha / s
    mat[0, m] = math.copysign(math.exp(log_abs_beta - n * log_s), beta)
    mat[np.arange(1, n), np.arange(0, n - 1)] = 1.0
    return s * float(np.abs(np.linalg.eigvals(mat)).max())


def stability_profiles(op: np.ndarray, N: int):
    """Exact summability and Ritt sequences by repeated multiplication.

    Returns (S, r) with S[k-1] = ||sum_{j<k} op^j||_inf for k = 1..N and
    r[n-1] = n * ||op^n - op^{n-1}||_inf.  Dense and exact to rounding (no
    eigendecomposition).
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
    S[0] = inf_norm(partial)
    # Overflow is detected and reported below, not left to hardware warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N + 1):
            power = power_prev @ op
            if not np.isfinite(power).all():
                raise NumericalError(f"power overflow at n = {n}")
            r[n - 1] = n * inf_norm(power - power_prev)
            if n < N:
                partial = partial + power
                S[n] = inf_norm(partial)
            power_prev = power
    return S, r


def power_norm_sum(op: np.ndarray, N: int) -> float:
    """Sum of power norms sum_{n<N} ||op^n||_inf by repeated multiplication.

    Distinct from the partial-sum norms of :func:`stability_profiles`: this
    is the series whose uniform boundedness the modulus heuristic
    1/(1 - rho) tries to estimate.
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
            total += inf_norm(power)
    return total


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
