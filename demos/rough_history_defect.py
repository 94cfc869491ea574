"""On rough history data the one-step splitting defect degrades, while the
global order of lt toward ie stays 1.

The history W_theta(t) = sum_{k=0}^{25} 2^{-k theta} cos(2^k pi t) is
Hoelder-theta.  The defect D(h) = |beta| max_k |u_{k+1-m} - u_{k-m}| is the
nonzero row of E = R - P applied to each state of the lt run; it scales like
h^{1 + theta}, so D/h like h^theta.  The sup-norm gap between the ie and lt
runs scales like h at every theta.
"""

import math

import numpy as np

from ddesplit.harness import convergence_study
from ddesplit.history import DelayGrid, init_from_history
from ddesplit.scalar import ScalarDelayProblem, SchemeConfig, run
from ddesplit.stability import companion_operator

T = 4.0
STEPS = [0.01 / 2 ** k for k in range(6)]


def weierstrass_history(theta):
    def history(t):
        return sum(2.0 ** (-k * theta) * math.cos(2.0 ** k * math.pi * t)
                   for k in range(26))
    return history


def defect(problem, h):
    beta = companion_operator(problem, h).beta
    past = list(init_from_history(problem.history, DelayGrid(h, problem.tau)))
    u = run(problem, SchemeConfig(h=h, T=T, scheme="lt")).values
    delayed = np.concatenate((past, u[:-len(past)]))  # u_{-m} .. u_{N-m}
    return abs(beta) * float(np.abs(np.diff(delayed)).max())


def slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def main():
    print("theta  defect slope  (1 + theta)  ie-lt gap slope")
    for theta in (0.25, 0.5, 0.75, 1.0):
        problem = ScalarDelayProblem(a=-1.0, b=-0.8, tau=-1.0,
                                     history=weierstrass_history(theta))
        defect_slope = slope(STEPS, [defect(problem, h) for h in STEPS])
        gap = convergence_study(problem, ("ie", "lt"), STEPS, T)
        print(f"{theta:5.2f}  {defect_slope:12.4f}  {1.0 + theta:11.2f}"
              f"  {gap.slope:15.4f}")


if __name__ == "__main__":
    main()
