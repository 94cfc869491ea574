"""How fast the two one-step maps approach each other as h shrinks, and the
first-order scaling of their algebraic defect."""

from ddesplit.harness import convergence_study
from ddesplit.oracle import poly_history
from ddesplit.scalar import ScalarDelayProblem
from ddesplit.stability import companion_operator, defect_norm


def main():
    problem = ScalarDelayProblem(a=-0.15, b=-6.0, tau=-8.0,
                                 history=poly_history)
    report = convergence_study(problem, ("ie", "lt"),
                               [0.1, 0.05, 0.025, 0.0125], T=20.0)
    print("    h       sup |ie - lt|")
    for h, err in zip(report.h_values, report.errors):
        print(f"{h:>7.4f}  {err:.6e}")
    print(f"fitted slope: {report.slope:.4f} (first order -> 1)")

    defect_problem = ScalarDelayProblem(a=-0.15, b=-6.0, tau=-0.25,
                                        history=lambda t: 0.0)
    print("\n    h       |R - P| / h")
    for h in (0.01, 0.005, 0.0025):
        op = companion_operator(defect_problem, h)
        print(f"{h:>7.4f}  {defect_norm(op) / h:.6f}")
    print("constant ratio -> defect is O(h), limit 2|b| = 12")


if __name__ == "__main__":
    main()
