"""Spectral and summability diagnostics for the one-step delay operator
at a = -0.15, b = -6.0, tau = -0.257, h = 0.001 (m = 257)."""

import numpy as np

from ddesplit.scalar import ScalarDelayProblem
from ddesplit.stability import (
    companion_operator,
    companion_profiles,
    defect_norm,
    estimate_os_norm,
    spectral_radius,
)

A, B, TAU, H = -0.15, -6.0, -0.257, 0.001


def main():
    problem = ScalarDelayProblem(a=A, b=B, tau=TAU, history=lambda t: 0.0)
    op = companion_operator(problem, H)
    rho = spectral_radius(op)
    print(f"m = {op.m}, alpha = {op.alpha:.8f}, beta = {op.beta:.8f}")
    dense_rho = np.abs(np.linalg.eigvals(op.dense())).max()
    print(f"spectral radius = {rho:.12f} (dense check {dense_rho:.12f})")
    print(f"distance to the unit circle: {1.0 - rho:.3e}")

    print(f"defect |R - P| = {defect_norm(op):.6e} "
          f"(2|beta| = {2 * abs(op.beta):.6e})")
    print(f"splitting smallness h(|a| + |b|) = {estimate_os_norm(problem, H):.6e}")

    # Partial-sum norms of the powers; convergence signals summability.
    checkpoints = [100, 1000, 10000, 100000, 200000]
    s_vals, r_vals = companion_profiles(op, checkpoints)
    print("      N     |sum_k op^k|     N |op^N - op^(N+1)|")
    for k, s, r in zip(checkpoints, s_vals, r_vals):
        print(f"{k:>7d}  {s:>14.6f}  {r:>18.6f}")
    print(f"modulus heuristic 1/(1 - rho) = {1.0 / (1.0 - rho):.1f}")


if __name__ == "__main__":
    main()
