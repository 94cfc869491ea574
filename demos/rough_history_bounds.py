"""Why rough history data keep the ie-lt gap first order: two bounds on it.

On the Hoelder-theta history W_theta(t) = sum_{k=0}^{25} 2^{-k theta}
cos(2^k pi t) the gap e_N = u^ie_N - u^lt_N at T = 4 is exactly
sum_{k<N} l_k f_k.  Here l_k is the impulse response of the ie steps from
step k + 1 to N, and the forcing f_k = beta_k (w_{k+1} - w_k) + r_k has a
transport part, with w_k = u^lt_{k-m} (history samples at negative index),
and a level part r_k from the time levels at which the two schemes freeze
a(t), zero for constant a.  Two bounds follow:

* telescoping, the local-defect route: sum |l_k| |beta_k (w_{k+1} - w_k)|,
  which inherits the defect's roughness and loses order as theta falls;
* summation by parts: ||w|| (2 max |g_k| + sum |g_{k+1} - g_k|) with
  g_k = l_k beta_k, which keeps order 1 because the variation of g is O(h).

Both add sum |l_k| |r_k|.  The tables print the log-log slopes against h
and the range of the summation-by-parts bound over the gap, for constant
a = -1 and for a(t) = -0.5 t.
"""

import math

import numpy as np

from ddesplit.history import DelayGrid, init_from_history
from ddesplit.scalar import ScalarDelayProblem, SchemeConfig, run

T = 4.0
STEPS = [0.01 / 2 ** k for k in range(6)]


def weierstrass_history(theta):
    def history(t):
        return sum(2.0 ** (-k * theta) * math.cos(2.0 ** k * math.pi * t)
                   for k in range(26))
    return history


def impulse_response(alpha, beta, m):
    """l_k = e_0^T R_{N-1} ... R_{k+1} e_0 by one backward (adjoint) sweep."""
    n = len(alpha)
    g = [0.0] * (n + m + 1)
    g[n] = 1.0
    for j in range(n - 1, -1, -1):
        g[j] = alpha[j] * g[j + 1] + (beta[j + m - 1] * g[j + m] if j + m <= n else 0.0)
    return np.array(g[1:n + 1])


def gap_and_bounds(problem, h):
    grid = DelayGrid(h, problem.tau)
    past = list(init_from_history(problem.history, grid))
    u_ie = run(problem, SchemeConfig(h=h, T=T, scheme="ie")).values
    u_lt = run(problem, SchemeConfig(h=h, T=T, scheme="lt")).values
    n = np.arange(u_lt.size - 1)
    # ie freezes a at t_{n+1}, lt at t_n.
    if problem.a_mode == "linear":
        a_ie, a_lt = problem.a * ((n + 1) * h), problem.a * (n * h)
    else:
        a_ie = a_lt = np.full(n.size, problem.a)
    alpha, alpha_lt = 1.0 / (1.0 - h * a_ie), 1.0 / (1.0 - h * a_lt)
    beta, beta_lt = h * problem.b * alpha, h * problem.b * alpha_lt
    w = np.concatenate((past, u_lt[:-len(past)]))
    r = (beta - beta_lt) * w[:-1] + (alpha - alpha_lt) * u_lt[:-1]
    l = impulse_response(alpha, beta, grid.m)
    level = np.abs(l) @ np.abs(r)
    g = l * beta
    telescoping = np.abs(g) @ np.abs(np.diff(w)) + level
    by_parts = np.abs(w).max() * (2.0 * np.abs(g).max()
                                  + np.abs(np.diff(g)).sum()) + level
    return abs(u_ie[-1] - u_lt[-1]), telescoping, by_parts


def slope(ys):
    return float(np.polyfit(np.log(STEPS), np.log(ys), 1)[0])


def table(title, a, a_mode, thetas):
    print(title)
    print("theta  gap slope  telescoping slope  by-parts slope  by-parts / gap")
    for theta in thetas:
        problem = ScalarDelayProblem(a=a, b=-0.8, tau=-1.0, a_mode=a_mode,
                                     history=weierstrass_history(theta))
        gap, tel, sbp = np.array([gap_and_bounds(problem, h) for h in STEPS]).T
        ratio = sbp / gap
        print(f"{theta:5.2f}  {slope(gap):9.4f}  {slope(tel):17.4f}"
              f"  {slope(sbp):14.4f}  {ratio.min():6.2f} - {ratio.max():5.2f}")


def main():
    table("constant a = -1", -1.0, "constant", (0.25, 0.5, 0.75, 1.0))
    print()
    table("a(t) = -0.5 t", -0.5, "linear", (0.25, 0.5, 1.0))


if __name__ == "__main__":
    main()
