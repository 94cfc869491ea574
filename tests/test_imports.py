"""Which scipy subpackages (and whether ``numpy.random``) each kind of run
loads, checked in fresh interpreters.

pytest and the other test modules import scipy themselves, so every check
runs its script in a new interpreter and reads ``sys.modules`` there.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys
import numpy as np


def assert_no_scipy():
    loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
    assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:4]} ..."
"""

FIELD_PROBLEM = """
from ddesplit.pde import PdeProblem, oscillating_history, run_pde
from ddesplit.scalar import SchemeConfig

problem = PdeProblem(kappa=0.02, lambda0=-0.5, b=0.3, tau=-0.2, Nx=5,
                     history=oscillating_history)
config = SchemeConfig(h=0.1, T=0.5, scheme="ie")
"""


def run_fresh(*parts: str) -> None:
    """Run ``PRELUDE`` and ``parts`` in a new interpreter; fail on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(map(textwrap.dedent, (PRELUDE,) + parts))],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scalar_runs_and_diagnostics_load_no_scipy():
    run_fresh("""
        import ddesplit.cli  # imports every module of the package
        from ddesplit.oracle import OhiraParams, oo_solution
        from ddesplit.scalar import ScalarDelayProblem, SchemeConfig, run
        from ddesplit.stability import (
            CompanionOperator, companion_profiles, spectral_radius)

        problem = ScalarDelayProblem(a=-1.0, b=0.5, tau=-0.3,
                                     history=lambda t: 1.0 + t)
        for mode in ("grid", "kernel"):
            for scheme in ("ie", "lt"):
                run(problem, SchemeConfig(h=0.1, T=1.0, scheme=scheme,
                                          delay_mode=mode))
        op = CompanionOperator(m=5, alpha=0.9, beta=-0.4)
        spectral_radius(op)
        companion_profiles(op, [10, 100])
        assert_no_scipy()

        oo_solution(0.5, OhiraParams(a=-0.15, b=-6.0, tau=-8.0))
        assert "scipy.integrate" in sys.modules
    """)


def test_field_run_loads_scipy_linalg_only():
    run_fresh(FIELD_PROBLEM, """
        assert_no_scipy()
        run_pde(problem, config)
        assert "scipy.linalg" in sys.modules
        assert "scipy.integrate" not in sys.modules
    """)


def test_first_field_run_binds_lapack_before_its_timer():
    # The history is first called inside init_from_history, after
    # run_pde has started its timer; by then the import must be done.
    run_fresh(FIELD_PROBLEM, """
        seen = []

        def history(t, x):
            if not seen:
                seen.append("scipy.linalg" in sys.modules)
            return oscillating_history(t, x)

        problem.history = history
        run_pde(problem, config)
        assert seen == [True], seen
    """)


def test_unfactored_solve_as_first_lapack_call():
    run_fresh("""
        from ddesplit.errors import ParameterError
        from ddesplit.pde import Tridiag, thomas_solve

        sys_ = Tridiag(sub=[1.0, -1.0], diag=[4.0, 3.0, 5.0], sup=[2.0, 0.5])
        rhs = np.array([1.0, 2.0, 3.0])
        assert_no_scipy()
        try:
            thomas_solve(sys_, rhs)
        except ParameterError:
            pass
        else:
            raise AssertionError("an unfactored solve went through")
        assert_no_scipy()
        x = thomas_solve(sys_.factorize(), rhs)
        dense = np.diag(sys_.diag) + np.diag(sys_.sub, -1) + np.diag(sys_.sup, 1)
        assert np.allclose(dense @ x, rhs, rtol=0, atol=1e-14), x
    """)


def test_stability_command_loads_no_numpy_random():
    run_fresh("""
        import contextlib
        import io
        from ddesplit.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["stability", "--profile-n", "2000"]) == 0
        assert "numpy.random" not in sys.modules
    """)
