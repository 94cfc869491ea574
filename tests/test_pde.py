"""Tridiagonal solves, field steps, and full runs of the delayed heat model."""

import collections
import ctypes
import math
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddesplit import pde
from ddesplit.errors import (
    DivergenceError,
    ParameterError,
    SingularStepError,
    SingularSystemError,
)
from ddesplit.history import DelayGrid, init_from_history
from ddesplit.pde import (
    PdeProblem,
    Tridiag,
    assemble_system,
    ie_pde_step,
    lt_pde_step,
    oscillating_history,
    run_pde,
    thomas_solve,
)
from ddesplit.scalar import (
    ScalarDelayProblem,
    SchemeConfig,
    ie_step,
    ie_step_kernel,
    lt_step_kernel,
    run,
)

BENCH_KW = dict(kappa=0.02, lambda0=-0.8, b=-0.8, tau=-0.6)


def zero_history(t, x):
    return np.zeros_like(x)


def ramp_history(t, x):
    return np.asarray(x, dtype=float)


def _drawn_system(n, seed, small, singular, weighted):
    """A random symmetric tridiagonal system (diag, off, expected error pattern).

    Off-diagonals lie in [-2, 2].  A ``weighted`` draw has diagonal |off|
    row sums plus a margin in [-1, 2], which gives positive definite and
    indefinite systems in about equal shares; otherwise the diagonal lies
    in [-2, 2].  With ``small`` set, a random half of the diagonal is that
    value, so elimination needs row swaps.  ``singular`` zeroes row and
    column j.
    """
    rng = np.random.default_rng(seed)
    off = rng.uniform(-2.0, 2.0, n - 1)
    if weighted:
        weight = np.abs(off)
        diag = np.r_[weight, 0.0] + np.r_[0.0, weight] + rng.uniform(-1.0, 2.0, n)
    else:
        diag = rng.uniform(-2.0, 2.0, n)
    if small is not None:
        diag[rng.random(n) < 0.5] = small
    if singular:
        j = int(rng.integers(n))
        diag[j] = 0.0
        off[max(j - 1, 0):j + 1] = 0.0
    return diag, off, "zero pivot" if singular else None


def _dense(sys):
    """The dense matrix of a symmetric tridiagonal system."""
    return np.diag(sys.diag) + np.diag(sys.off, -1) + np.diag(sys.off, 1)


def _dense_ie_run(problem, h, n_steps):
    """The field after ``n_steps`` autonomous ie steps, each solved densely."""
    dense = _dense(assemble_system(problem, h, 0.0, include_reaction=True))
    xg = problem.xgrid
    buffer = init_from_history(lambda t: problem.history(t, xg),
                               DelayGrid(h, problem.tau))
    u = problem.history(0.0, xg)
    for _ in range(n_steps):
        buffer.push(u)
        u = np.linalg.solve(dense, u + h * problem.b * buffer[0])
    return u


class TestPdeProblem:
    @pytest.mark.parametrize("bad", [
        dict(kappa=-0.1), dict(tau=0.5), dict(tau=0.0), dict(Nx=0),
        dict(L=0.0), dict(lambda1=0.2, T_lambda=0.0),
    ])
    def test_invalid_parameters_rejected(self, bad):
        kw = dict(BENCH_KW, Nx=10, history=zero_history)
        kw.update(bad)
        with pytest.raises(ParameterError):
            PdeProblem(**kw)

    @pytest.mark.parametrize("name", ["kappa", "lambda0", "lambda1", "b", "tau",
                                      "T_lambda", "L"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        kw = dict(BENCH_KW, Nx=10, history=zero_history)
        kw[name] = value
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            PdeProblem(**kw)

    @pytest.mark.parametrize("nx", [2.5, 3.0, True, np.float64(4.0)])
    def test_non_integral_point_count_rejected(self, nx):
        with pytest.raises(ParameterError, match="must be an integer"):
            PdeProblem(Nx=nx, history=zero_history, **BENCH_KW)

    def test_numpy_integer_point_count_accepted(self):
        prob = PdeProblem(Nx=np.int64(4), history=zero_history, **BENCH_KW)
        res = run_pde(prob, SchemeConfig(h=0.1, T=0.2, scheme="ie"))
        assert res.final.shape == (4,)

    def test_zero_diffusion_allowed(self):
        prob = PdeProblem(kappa=0.0, lambda0=-0.8, b=-0.8, tau=-0.6, Nx=10,
                          history=zero_history)
        assert prob.kappa == 0.0

    def test_grid_layout(self):
        prob = PdeProblem(Nx=4, history=zero_history, **BENCH_KW)
        assert prob.dx == pytest.approx(0.2)
        assert prob.xgrid == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_reaction_law(self):
        prob = PdeProblem(Nx=4, history=zero_history, lambda1=0.2,
                          T_lambda=4.0, **BENCH_KW)
        assert not prob.autonomous
        assert prob.lam(0.0) == pytest.approx(-0.8)
        assert prob.lam(1.0) == pytest.approx(-0.6)
        assert prob.lam(3.0) == pytest.approx(-1.0)

    def test_autonomous_reaction_is_time_independent(self):
        prob = PdeProblem(Nx=4, history=zero_history, **BENCH_KW)
        assert prob.autonomous
        assert prob.lam(17.3) == -0.8


class TestAssembleSystem:
    def test_no_diffusion_no_reaction_is_the_identity(self):
        prob = PdeProblem(kappa=0.0, lambda0=-0.8, b=-0.8, tau=-0.6, Nx=5,
                          history=zero_history)
        sys = assemble_system(prob, h=0.1, t=0.0, include_reaction=False)
        assert np.array_equal(sys.diag, np.ones(5))
        assert np.array_equal(sys.off, np.zeros(4))

    def test_single_point_benchmark_entry(self):
        prob = PdeProblem(Nx=1, history=zero_history, **BENCH_KW)
        sys = assemble_system(prob, h=0.002, t=0.0, include_reaction=True)
        assert sys.diag[0] == pytest.approx(1.00192, rel=1e-12)
        assert sys.off.size == 0

    def test_off_diagonals_carry_the_diffusion_weight(self):
        prob = PdeProblem(Nx=6, history=zero_history, **BENCH_KW)
        h = 0.002
        sys = assemble_system(prob, h=h, t=0.0, include_reaction=True)
        r = h * prob.kappa / prob.dx ** 2
        assert sys.off == pytest.approx(np.full(5, -r), rel=1e-14)
        assert sys.diag == pytest.approx(np.full(6, 1.0 + 2.0 * r
                                                 - h * prob.lambda0), rel=1e-14)

    def test_reaction_term_can_be_dropped(self):
        prob = PdeProblem(Nx=3, history=zero_history, **BENCH_KW)
        with_r = assemble_system(prob, h=0.01, t=0.0, include_reaction=True)
        without = assemble_system(prob, h=0.01, t=0.0, include_reaction=False)
        assert with_r.diag - without.diag == pytest.approx(
            np.full(3, -0.01 * prob.lambda0), rel=1e-14)


class TestThomasSolve:
    def test_identity_returns_the_rhs(self):
        sys = Tridiag(diag=np.ones(4), off=np.zeros(3)).factorize()
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(thomas_solve(sys, rhs), rhs)

    def test_two_by_two_hand_solve(self):
        sys = Tridiag(diag=np.array([2.0, 2.0]), off=np.array([1.0])).factorize()
        assert thomas_solve(sys, np.array([3.0, 3.0])) == pytest.approx(
            [1.0, 1.0], rel=1e-14)

    def test_unfactored_system_rejected(self):
        # Every factorization is a call of Tridiag.factorize, so a solve
        # never factors on the side.
        sys = Tridiag(diag=np.array([2.0, 2.0]), off=np.array([1.0]))
        with pytest.raises(ParameterError, match="Tridiag.factorize"):
            thomas_solve(sys, np.array([3.0, 3.0]))
        assert sys._factor is None

    def test_matches_the_dense_solver(self):
        rng = np.random.default_rng(32)
        n = 9
        off = rng.uniform(-0.4, 0.4, n - 1)
        diag = rng.uniform(2.0, 3.0, n)
        sys = Tridiag(diag=diag, off=off).factorize()
        rhs = rng.standard_normal(n)
        assert thomas_solve(sys, rhs) == pytest.approx(
            np.linalg.solve(_dense(sys), rhs), rel=1e-12)

    def test_singular_elimination_reports_the_pivot(self):
        # Rank-one 2x2: elimination zeroes the last pivot, U(2, 2).
        sys = Tridiag(diag=np.array([1.0, 1.0]), off=np.array([1.0]))
        with pytest.raises(SingularSystemError, match=r"info=2\)"):
            sys.factorize()

    def test_singular_factorization_rejected(self):
        sys = Tridiag(diag=np.array([1.0, 1.0]), off=np.array([1.0]))
        with pytest.raises(SingularSystemError):
            sys.factorize()
        assert sys._factor is None

    def test_rhs_length_mismatch_rejected(self):
        sys = Tridiag(diag=np.ones(3), off=np.zeros(2)).factorize()
        with pytest.raises(ParameterError):
            thomas_solve(sys, np.ones(4))

    def test_off_diagonal_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            Tridiag(diag=np.ones(3), off=np.zeros(3))

    def test_single_cell_paths(self):
        sys = Tridiag(diag=np.array([2.0]), off=np.zeros(0))
        sys.factorize()
        assert sys._factor is not None
        assert thomas_solve(sys, np.array([4.0])) == pytest.approx([2.0])

    def test_zero_diagonal_two_by_two_is_solved_with_a_row_swap(self):
        # [[0, 1], [1, 0]] has det -1; elimination without pivoting stops at
        # the zero pivot.
        rhs = np.array([1.0, 2.0])
        sys = Tridiag([0.0, 0.0], [1.0])
        assert np.array_equal(thomas_solve(sys.factorize(), rhs), [2.0, 1.0])

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.builds(_drawn_system, st.integers(1, 12), st.integers(0, 2**32 - 1),
                     st.sampled_from([None, 0.0, 1e-9, 1e-300]), st.booleans(),
                     st.booleans()))
    # Negative definite: the L D L^T route declines it at the first pivot.
    @example(([-2.0] * 4, [1.0] * 3, None))
    # Singular: the pivoted route still names the pivot.
    @example(([1.0, 1.0], [1.0], r"info=2\)"))
    # dpttrf lets a NaN pivot through; factorize must not.
    @example(([1.0, math.nan], [1.0], "zero pivot"))
    # n = 1 and n = 2 positive definite, below the pivoted route's padding.
    @example(([3.0], [], None))
    @example(([2.0, 1.0], [0.5], None))
    # Zero diagonal, nonsingular: only a row swap gets past the first pivot.
    @example(([0.0] * 4, [1.0] * 3, None))
    def test_pivoting_route_matches_the_dense_solver(self, system):
        diag, off, error = system
        sys = Tridiag(diag, off)
        if error is not None:
            with pytest.raises(SingularSystemError, match=error):
                sys.factorize()
            assert sys._factor is None
            return
        n = sys.diag.size
        dense = _dense(sys)
        cond = np.linalg.cond(dense)
        if not cond < 1e10:
            return
        rhs = np.cos(1.0 + np.arange(n))
        x = thomas_solve(sys.factorize(), rhs)
        ref = np.linalg.solve(dense, rhs)
        assert np.abs(x - ref).max() <= 1e-13 * cond * np.abs(ref).max()
        # L D L^T exactly for the positive definite systems.
        assert (len(sys._factor) == 2) == (np.linalg.eigvalsh(dense).min() > 0)

    @pytest.mark.parametrize("include_reaction, lambda0, route", [
        (False, -0.8, 2), (True, -0.8, 2), (True, 600.0, 5)])
    def test_assembled_system_route(self, include_reaction, lambda0, route):
        # The preset systems are symmetric positive definite and factor as
        # L D L^T (d, e); h lambda0 = 1.2 makes the ie system negative
        # definite, so it takes pivoted LU (dl, d, du, du2, ipiv).
        prob = PdeProblem(kappa=0.02, lambda0=lambda0, b=-0.8, tau=-0.6, Nx=20,
                          history=zero_history)
        sys = assemble_system(prob, 0.002, 0.0, include_reaction).factorize()
        assert len(sys._factor) == route
        rhs = np.cos(np.arange(20.0))
        assert thomas_solve(sys, rhs) == pytest.approx(
            np.linalg.solve(_dense(sys), rhs), rel=1e-12)

    def test_single_cell_zero_diagonal_rejected(self):
        sys = Tridiag(diag=np.array([0.0]), off=np.zeros(0))
        with pytest.raises(SingularSystemError):
            sys.factorize()


@pytest.fixture
def blas_threads():
    """The calling thread's OpenBLAS thread count, read back through
    ``scipy_openblas_get_num_threads`` of the library ``pde`` limits.

    The count is set to 2 for the test, so a step that failed to restore
    it would leave 1 even on a single-core host; the old count is put back
    afterwards.
    """
    pde._load_lapack()
    setter = pde._set_blas_threads
    if setter is None:
        pytest.skip("scipy's OpenBLAS has no openblas_set_num_threads_local")
    import scipy
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    lib = ctypes.CDLL(str(sorted(libs.glob("libscipy_openblas*"))[0]))
    getter = lib.scipy_openblas_get_num_threads
    getter.restype = ctypes.c_int
    previous = setter(2)
    yield getter
    setter(previous)


class TestFieldSteps:
    def test_zero_field_stays_zero(self):
        prob = PdeProblem(Nx=7, history=zero_history, **BENCH_KW)
        h = 0.01
        u = np.zeros(7)
        out = ie_pde_step(u, u, h, prob, h)
        assert np.array_equal(out, np.zeros(7))
        cache = assemble_system(prob, h, 0.0, include_reaction=False).factorize()
        out = lt_pde_step(u, u, 0.0, prob, h, cache)
        assert np.array_equal(out, np.zeros(7))

    def test_pointwise_reduction_without_diffusion(self):
        prob = PdeProblem(kappa=0.0, lambda0=-0.8, b=0.0, tau=-1.0, Nx=5,
                          history=zero_history)
        h = 0.1
        u = np.array([1.0, -2.0, 0.5, 3.0, -0.25])
        out_ie = ie_pde_step(u.copy(), np.zeros(5), h, prob, h)
        assert out_ie == pytest.approx(u / 1.08, rel=1e-14)
        cache = assemble_system(prob, h, 0.0, include_reaction=False).factorize()
        out_lt = lt_pde_step(u.copy(), np.zeros(5), 0.0, prob, h, cache)
        assert out_lt == pytest.approx(u / 1.08, rel=1e-14)

    def test_discrete_eigenmode_decay(self):
        nx = 9
        prob = PdeProblem(kappa=0.5, lambda0=0.0, b=0.0, tau=-1.0, Nx=nx,
                          history=zero_history)
        h = 0.01
        u = np.sin(np.pi * prob.xgrid)
        mu1 = 2.0 / prob.dx ** 2 * (1.0 - math.cos(math.pi * prob.dx))
        out = ie_pde_step(u, np.zeros(nx), h, prob, h)
        assert out == pytest.approx(u / (1.0 + h * prob.kappa * mu1),
                                    rel=1e-12)

    def test_implicit_step_contracts_without_coupling(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            nx = int(rng.integers(1, 31))
            prob = PdeProblem(kappa=float(rng.uniform(0.0, 2.0)),
                              lambda0=float(rng.uniform(-3.0, 0.0)),
                              b=0.0, tau=-1.0, Nx=nx, history=zero_history)
            h = float(rng.uniform(0.01, 0.5))
            u = rng.standard_normal(nx)
            out = ie_pde_step(u, np.zeros(nx), h, prob, h)
            assert np.abs(out).max() <= np.abs(u).max() + 1e-12

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.floats(0.0, 2.0), st.floats(1e-3, 0.5),
           st.floats(-2.0, 3.0), st.integers(0, 2**32 - 1))
    # h lambda0 = 1.2: the system is negative definite and takes pivoted LU,
    # padded below n = 3.
    @example(2, 0.02, 0.002, 1.2, 0)
    @example(1, 0.0, 0.1, 1.2, 1)
    def test_cached_route_matches_the_dense_route(self, nx, kappa, h, h_lambda0, seed):
        prob = PdeProblem(kappa=kappa, lambda0=h_lambda0 / h, b=-0.8, tau=-h,
                          Nx=nx, history=zero_history)
        sys = assemble_system(prob, h, h, include_reaction=True)
        dense = _dense(sys)
        cond = np.linalg.cond(dense)
        if not cond < 1e10:
            return
        rng = np.random.default_rng(seed)
        u, delayed = rng.standard_normal((2, nx))
        cached = ie_pde_step(u, delayed, h, prob, h, cache=sys.factorize())
        ref = ie_pde_step(u, delayed, h, prob, h, cache=None)
        assert np.abs(cached - ref).max() <= 1e-12 * cond * np.abs(ref).max()
        # L D L^T exactly for the positive definite systems.
        assert (len(sys._factor) == 2) == (np.linalg.eigvalsh(dense).min() > 0)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.floats(0.0, 2.0), st.floats(1e-3, 0.5),
           st.floats(-2.0, 3.0), st.integers(0, 2**32 - 1))
    # h lambda(t_new) = 1.2 with and without diffusion: negative definite.
    @example(2, 0.02, 0.002, 1.2, 0)
    @example(1, 0.0, 0.1, 1.2, 1)
    # Indefinite: the smallest diffusion modes sit below h lambda, the rest above.
    @example(12, 0.05, 0.1, 1.5, 2)
    def test_uncached_route_matches_a_dense_solve(self, nx, kappa, h, h_lambda, seed):
        # A modulated problem whose reaction at t_new = h gives h lambda.
        lambda1, period = 0.3, 4.0
        lambda0 = h_lambda / h - lambda1 * math.sin(2.0 * math.pi * h / period)
        prob = PdeProblem(kappa=kappa, lambda0=lambda0, lambda1=lambda1,
                          T_lambda=period, b=-0.8, tau=-2.0 * h, Nx=nx,
                          history=zero_history)
        dense = _dense(assemble_system(prob, h, h, include_reaction=True))
        cond = np.linalg.cond(dense)
        if not cond < 1e10:
            return
        rng = np.random.default_rng(seed)
        u, delayed = rng.standard_normal((2, nx))
        x = ie_pde_step(u, delayed, h, prob, h, cache=None)
        ref = np.linalg.solve(dense, u + h * prob.b * delayed)
        assert np.abs(x - ref).max() <= 1e-12 * cond * np.abs(ref).max()

    @pytest.mark.parametrize("nx", [1, 2, 3, 4])
    def test_singular_uncached_system_raises_package_error(self, nx):
        # kappa 0 and lambda(0.5) = 2 at h 0.5 zero the whole matrix.
        prob = PdeProblem(kappa=0.0, lambda0=1.0, lambda1=1.0, T_lambda=2.0, b=0.0,
                          tau=-1.0, Nx=nx, history=zero_history)
        with pytest.raises(SingularSystemError, match=r"t = 0\.5 \(info=1\)"):
            ie_pde_step(np.ones(nx), np.zeros(nx), 0.5, prob, 0.5)

    # Nx 300 at the preset's h and kappa: h lambda(t_new) -0.0016 gives a
    # definite system, 5 an indefinite one (its diagonal spans 1 + 2r +- 2r,
    # r = 3.62).
    @pytest.mark.parametrize("h_lambda", [-0.0016, 5.0], ids=["definite", "indefinite"])
    def test_dense_step_bits_do_not_depend_on_the_thread_limit(
            self, h_lambda, blas_threads, monkeypatch):
        h = 0.002
        lambda0 = h_lambda / h - 0.2 * math.sin(2.0 * math.pi * h / 4.0)
        prob = PdeProblem(kappa=0.02, lambda0=lambda0, lambda1=0.2, b=-0.8,
                          tau=-0.6, Nx=300, history=oscillating_history)
        u = oscillating_history(0.0, prob.xgrid)
        delayed = oscillating_history(-0.6, prob.xgrid)

        def step():
            return ie_pde_step(u, delayed, h, prob, h)

        limited = step()
        monkeypatch.setattr(pde, "_set_blas_threads", None)
        assert np.array_equal(limited, step())

    def test_dense_step_runs_on_one_thread(self, blas_threads, monkeypatch):
        seen = []

        def dsysv(*args, **kwargs):
            seen.append(blas_threads())
            return real(*args, **kwargs)

        real = pde.lapack.dsysv
        monkeypatch.setattr(pde, "lapack", SimpleNamespace(dsysv=dsysv))
        prob = PdeProblem(Nx=30, lambda1=0.2, history=oscillating_history, **BENCH_KW)
        ie_pde_step(np.ones(30), np.ones(30), 0.002, prob, 0.002)
        assert seen == [1]
        assert blas_threads() == 2

    def test_modulated_run_restores_the_thread_count(self, blas_threads):
        prob = PdeProblem(Nx=300, lambda1=0.2, history=oscillating_history, **BENCH_KW)
        run_pde(prob, SchemeConfig(h=0.002, T=0.02, scheme="ie"))
        assert blas_threads() == 2

    def test_singular_step_restores_the_thread_count(self, blas_threads):
        prob = PdeProblem(kappa=0.0, lambda0=1.0, lambda1=1.0, T_lambda=2.0, b=0.0,
                          tau=-1.0, Nx=3, history=zero_history)
        with pytest.raises(SingularSystemError, match=r"info=1"):
            ie_pde_step(np.ones(3), np.zeros(3), 0.5, prob, 0.5)
        assert blas_threads() == 2

    def test_concurrent_runs_restore_the_thread_count(self, blas_threads):
        # More threads than cores and a short switch interval: unserialized
        # steps left the count at 1 after most such batches.
        prob = PdeProblem(Nx=30, lambda1=0.2, history=oscillating_history, **BENCH_KW)
        config = SchemeConfig(h=0.002, T=0.2, scheme="ie")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                finals = []
                workers = [threading.Thread(
                    target=lambda: finals.append(run_pde(prob, config).final))
                    for _ in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in workers)
                assert len(finals) == 4
                assert all(np.array_equal(f, finals[0]) for f in finals)
                assert blas_threads() == 2
        finally:
            sys.setswitchinterval(interval)

    def test_failing_solve_restores_the_thread_count(self, blas_threads, monkeypatch):
        def dsysv(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(pde, "lapack", SimpleNamespace(dsysv=dsysv))
        prob = PdeProblem(Nx=3, lambda1=0.2, history=oscillating_history, **BENCH_KW)
        with pytest.raises(RuntimeError, match="solver failed"):
            ie_pde_step(np.ones(3), np.ones(3), 0.002, prob, 0.002)
        assert blas_threads() == 2

    def test_splitting_respects_the_sup_norm_budget(self):
        u1, u0, hist_max, prob, h = self._one_benchmark_splitting_step()
        budget = (np.abs(u0).max() + h * abs(prob.b) * hist_max) \
            / (1.0 - h * prob.lambda0)
        assert np.abs(u1).max() <= budget + 1e-12

    @pytest.mark.xfail(strict=True,
                       reason="the reaction/delay update divides by "
                              "1 - h*lambda > 1 but adds h|b| times the "
                              "delayed field first; the fresh extremum "
                              "undershoots the sampled minimum by ~6e-4")
    def test_splitting_stays_inside_the_sampled_range(self):
        u1, u0, _, _, _ = self._one_benchmark_splitting_step()
        lo = min(self._hist_range[0], u0.min())
        hi = max(self._hist_range[1], u0.max())
        assert u1.min() >= lo
        assert u1.max() <= hi

    def _one_benchmark_splitting_step(self):
        h = 0.002
        prob = PdeProblem(Nx=300, history=oscillating_history, **BENCH_KW)
        grid = DelayGrid(h, prob.tau)
        xg = prob.xgrid
        samples = list(init_from_history(
            lambda t: oscillating_history(t, xg), grid))
        u0 = oscillating_history(0.0, xg)
        stacked = np.array(samples)
        self._hist_range = (stacked.min(), stacked.max())
        cache = assemble_system(prob, h, 0.0, include_reaction=False).factorize()
        # After run_pde pushes u0, the oldest sample is the one at tau + h.
        u1 = lt_pde_step(u0, samples[1], 0.0, prob, h, cache)
        hist_max = max(abs(self._hist_range[0]), abs(self._hist_range[1]),
                       np.abs(u0).max())
        return u1, u0, hist_max, prob, h

    def test_splitting_singular_reaction_guard(self):
        prob = PdeProblem(kappa=0.0, lambda0=10.0, b=0.0, tau=-1.0, Nx=3,
                          history=zero_history)
        cache = assemble_system(prob, 0.1, 0.0, include_reaction=False).factorize()
        with pytest.raises(SingularStepError):
            lt_pde_step(np.ones(3), np.zeros(3), 0.0, prob, 0.1, cache)


class TestRunPde:
    @pytest.mark.parametrize("scheme", ["ie", "lt"])
    def test_zero_history_stays_zero(self, scheme):
        prob = PdeProblem(Nx=8, history=zero_history, **BENCH_KW)
        res = run_pde(prob, SchemeConfig(h=0.1, T=2.0, scheme=scheme))
        assert np.all(res.center == 0.0)
        assert np.all(res.l2 == 0.0)
        assert res.times.tobytes() == (0.1 * np.arange(21)).tobytes()

    @pytest.mark.parametrize("nx", [1, 3, 4])
    def test_center_trace_starts_at_the_midpoint_value(self, nx):
        prob = PdeProblem(Nx=nx, history=ramp_history, **BENCH_KW)
        res = run_pde(prob, SchemeConfig(h=0.1, T=0.2, scheme="ie"))
        # The ramp is linear, so interpolation at L/2 is exact.
        assert res.center[0] == pytest.approx(0.5, rel=1e-14)

    def test_l2_trace_starts_at_the_discrete_norm(self):
        prob = PdeProblem(Nx=4, history=lambda t, x: np.full_like(x, 0.3),
                          **BENCH_KW)
        res = run_pde(prob, SchemeConfig(h=0.1, T=0.2, scheme="lt"))
        assert res.l2[0] == pytest.approx(0.3 * math.sqrt(4 * 0.2), rel=1e-14)

    def test_singular_modulated_ie_system_raises_package_error(self):
        # lambda(0.5) = 2 makes 1 - h lambda vanish on the single node.
        prob = PdeProblem(kappa=0.0, lambda0=1.0, lambda1=1.0, T_lambda=2.0, b=0.0,
                          tau=-1.0, Nx=1, history=zero_history)
        with pytest.raises(SingularSystemError):
            run_pde(prob, SchemeConfig(h=0.5, T=1.0, scheme="ie"))

    def test_zero_diagonal_autonomous_ie_run_matches_dense_solves(self):
        # lambda0 = (1 + 2r)/h zeroes the diagonal of the 2x2 system
        # [[0, -r], [-r, 0]], which is nonsingular (det -r^2).
        h, kappa = 0.1, 0.02
        r = h * kappa / (1.0 / 3.0) ** 2
        prob = PdeProblem(kappa=kappa, lambda0=(1.0 + 2.0 * r) / h, b=-0.8,
                          tau=-0.6, Nx=2, history=ramp_history)
        sys = assemble_system(prob, h, 0.0, include_reaction=True)
        assert np.array_equal(sys.diag, [0.0, 0.0])
        res = run_pde(prob, SchemeConfig(h=h, T=1.0, scheme="ie"))
        assert res.final == pytest.approx(_dense_ie_run(prob, h, 10), rel=1e-12)

    def test_negative_definite_autonomous_ie_run_matches_dense_solves(self):
        # h lambda0 = 1.2 > 1: the cached ie system is negative definite,
        # not positive definite, and goes through the pivoted route.
        h, n_steps = 0.002, 5
        prob = PdeProblem(kappa=0.02, lambda0=600.0, b=-0.8, tau=-0.6, Nx=20,
                          history=oscillating_history)
        sys = assemble_system(prob, h, 0.0, include_reaction=True)
        assert sys.diag.max() + 2.0 * np.abs(sys.off).max() < 0
        res = run_pde(prob, SchemeConfig(h=h, T=n_steps * h, scheme="ie"))
        assert res.final == pytest.approx(_dense_ie_run(prob, h, n_steps), rel=1e-12)

    @pytest.mark.parametrize("scheme", ["ie", "lt"])
    @pytest.mark.parametrize("history, shape", [
        (lambda t, x: 0.3, r"\(\)"),
        (lambda t, x: np.zeros(x.size - 1), r"\(4,\)"),
        (lambda t, x: np.zeros((x.size, 1)), r"\(5, 1\)"),
    ], ids=["scalar", "short", "column"])
    def test_history_of_the_wrong_shape_rejected(self, scheme, history, shape):
        prob = PdeProblem(Nx=5, history=history, **BENCH_KW)
        with pytest.raises(ParameterError, match=f"has shape {shape}, expected"):
            run_pde(prob, SchemeConfig(h=0.1, T=0.5, scheme=scheme))

    def test_fractional_lag_rejected(self):
        prob = PdeProblem(kappa=0.02, lambda0=-0.8, b=-0.8, tau=-0.257,
                          Nx=4, history=zero_history)
        with pytest.raises(ParameterError, match=r"^field runs need an integer lag, "
                                                 r"got -tau/h = 128\.5$"):
            run_pde(prob, SchemeConfig(h=0.002, T=1.0))

    def test_kernel_mode_rejected(self):
        prob = PdeProblem(Nx=4, history=zero_history, **BENCH_KW)
        with pytest.raises(ParameterError):
            run_pde(prob, SchemeConfig(h=0.1, T=1.0, delay_mode="kernel"))

    def test_splitting_reuses_one_diffusion_factorization(self):
        # A manual loop that re-factorizes every step must agree bit for bit.
        prob = PdeProblem(Nx=6, history=oscillating_history, **BENCH_KW)
        h, T = 0.05, 0.5
        res = run_pde(prob, SchemeConfig(h=h, T=T, scheme="lt"))
        grid = DelayGrid(h, prob.tau)
        xg = prob.xgrid
        buffer = init_from_history(
            lambda t: oscillating_history(t, xg), grid)
        u = np.asarray(oscillating_history(0.0, xg))
        for n in range(round(T / h)):
            fresh = assemble_system(prob, h, 0.0,
                                    include_reaction=False).factorize()
            buffer.push(u)
            u = lt_pde_step(u, buffer[0], n * h, prob, h, fresh)
        assert np.array_equal(u, res.final)

    def test_implicit_cache_matches_per_step_assembly(self):
        prob = PdeProblem(Nx=6, history=oscillating_history, **BENCH_KW)
        h, T = 0.05, 0.5
        res = run_pde(prob, SchemeConfig(h=h, T=T, scheme="ie"))
        grid = DelayGrid(h, prob.tau)
        xg = prob.xgrid
        buffer = init_from_history(
            lambda t: oscillating_history(t, xg), grid)
        u = np.asarray(oscillating_history(0.0, xg))
        for n in range(round(T / h)):
            fresh = assemble_system(prob, h, (n + 1) * h,
                                    include_reaction=True).factorize()
            buffer.push(u)
            u = ie_pde_step(u, buffer[0], (n + 1) * h, prob, h, fresh)
        assert np.array_equal(u, res.final)

    @pytest.mark.parametrize("scheme, lambda1, count", [
        ("ie", 0.0, 1), ("lt", 0.0, 1), ("lt", 0.2, 1), ("ie", 0.2, 0)])
    def test_factorizations_per_run(self, scheme, lambda1, count, monkeypatch):
        # Both presets (lambda1 0 and 0.2) on a 100-step horizon.  A run that
        # factors once substitutes every step through thomas_solve; the
        # modulated ie step factors nothing and solves one dense system
        # (dsysv) per step.  These counts are the structure that c05's
        # wall-clock ratio stands for, and no host changes them.
        pde._load_lapack()
        calls = collections.Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Tridiag, "factorize", counted("factorize", Tridiag.factorize))
        monkeypatch.setattr(pde, "thomas_solve", counted("thomas_solve", thomas_solve))
        monkeypatch.setattr(pde.lapack, "dsysv", counted("dsysv", pde.lapack.dsysv))
        prob = PdeProblem(Nx=300, history=oscillating_history, lambda1=lambda1,
                          T_lambda=4.0, **BENCH_KW)
        run_pde(prob, SchemeConfig(h=0.002, T=0.2, scheme=scheme))
        steps = 100
        assert (calls["factorize"], calls["thomas_solve"], calls["dsysv"]) == (
            count, count * steps, (1 - count) * steps)

    @pytest.mark.parametrize("scheme, level", [("ie", 1), ("lt", 0)])
    def test_modulated_run_steps_at_the_scheme_time_level(self, scheme, level):
        # ie takes lambda at t_{n+1}, lt at t_n; a modulated reaction shows it.
        prob = PdeProblem(Nx=6, history=oscillating_history, lambda1=0.2,
                          T_lambda=4.0, **BENCH_KW)
        h, T = 0.05, 0.5
        res = run_pde(prob, SchemeConfig(h=h, T=T, scheme=scheme))
        grid = DelayGrid(h, prob.tau)
        xg = prob.xgrid
        buffer = init_from_history(lambda t: oscillating_history(t, xg), grid)
        diffusion = assemble_system(prob, h, 0.0, include_reaction=False).factorize()
        u = np.asarray(oscillating_history(0.0, xg))
        for n in range(round(T / h)):
            buffer.push(u)
            if scheme == "ie":
                u = ie_pde_step(u, buffer[0], (n + level) * h, prob, h)
            else:
                u = lt_pde_step(u, buffer[0], (n + level) * h, prob, h, diffusion)
        assert np.array_equal(u, res.final)

    # (lambda0, b, tau, h): the bench parameters at m 300, a growing
    # problem at m 5, and the scalar bench depth m 257.
    @pytest.mark.parametrize("lambda0, b, tau, h", [
        (-0.8, -0.8, -0.6, 0.002), (0.5, 3.0, -0.05, 0.01), (-0.15, -6.0, -0.257, 0.001)])
    def test_kappa_zero_runs_are_scalar_grid_runs(self, lambda0, b, tau, h):
        # Without diffusion and with a history constant in x, every node
        # follows the scalar model with a = lambda0, and odd Nx puts L/2 on
        # a node.  Both field runs read the delay after the shift, so both
        # equal the scalar ie run; the scalar lt run reads it before the
        # shift, which a loop of lt_pde_step reproduces.  Nx 1 is not used:
        # LAPACK's n = 1 substitution multiplies by 1/d, where Nx 5 divides.
        def g(t):
            return 0.3 + 0.2 * math.cos(2.0 * math.pi * t)

        prob = PdeProblem(kappa=0.0, lambda0=lambda0, b=b, tau=tau, Nx=5,
                          history=lambda t, x: np.full_like(x, g(t)))
        scalar = ScalarDelayProblem(a=lambda0, b=b, tau=tau, history=g)
        T = 1000 * h

        def scalar_values(scheme):
            return run(scalar, SchemeConfig(h=h, T=T, scheme=scheme)).values

        ie_values = scalar_values("ie")
        for scheme in ("ie", "lt"):
            res = run_pde(prob, SchemeConfig(h=h, T=T, scheme=scheme))
            assert np.array_equal(res.center, ie_values), scheme
        xg = prob.xgrid
        buffer = init_from_history(lambda t: prob.history(t, xg), DelayGrid(h, tau))
        cache = assemble_system(prob, h, 0.0, include_reaction=False).factorize()
        u = prob.history(0.0, xg)
        center = [u[2]]
        for n in range(1000):
            delayed = buffer[0]
            buffer.push(u)
            u = lt_pde_step(u, delayed, n * h, prob, h, cache)
            center.append(u[2])
        assert np.array_equal(center, scalar_values("lt"))

    def test_schemes_agree_closely_on_a_coarse_benchmark(self):
        prob = PdeProblem(Nx=20, history=oscillating_history, **BENCH_KW)
        cfg = dict(h=0.01, T=2.0)
        ie = run_pde(prob, SchemeConfig(scheme="ie", **cfg))
        lt = run_pde(prob, SchemeConfig(scheme="lt", **cfg))
        scale = np.abs(ie.center).max()
        assert np.abs(ie.center - lt.center).max() <= 0.01 * scale

    def test_modulated_reaction_changes_the_trace(self):
        base = dict(Nx=10, history=oscillating_history, **BENCH_KW)
        auto = PdeProblem(**base)
        modulated = PdeProblem(lambda1=0.2, T_lambda=4.0, **base)
        cfg = dict(h=0.01, T=2.0)
        res_a = run_pde(auto, SchemeConfig(scheme="ie", **cfg))
        res_m = run_pde(modulated, SchemeConfig(scheme="ie", **cfg))
        assert np.abs(res_a.center - res_m.center).max() > 1e-4

    def test_divergence_reports_the_step(self):
        prob = PdeProblem(kappa=0.0, lambda0=0.0, b=1e10, tau=-0.3, Nx=3,
                          history=lambda t, x: np.full_like(x, 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                run_pde(prob, SchemeConfig(h=0.3, T=3.0, scheme="ie"))
        assert exc.value.step == 1

    @pytest.mark.parametrize("scheme", ["ie", "lt"])
    def test_finite_field_with_overflowing_norm_does_not_diverge(self, scheme):
        # 4 * (1e160)^2 overflows the squared norm; every entry stays finite.
        prob = PdeProblem(kappa=0.0, lambda0=-0.8, b=0.0, tau=-0.2, Nx=4,
                          history=lambda t, x: np.full_like(x, 1e160))
        with np.errstate(over="ignore"):
            res = run_pde(prob, SchemeConfig(h=0.1, T=1.0, scheme=scheme))
        assert np.all(np.isinf(res.l2))
        assert np.all(np.isfinite(res.center))
        assert np.all(res.final > 1e159)

    @pytest.mark.parametrize("scheme", ["ie", "lt"])
    @pytest.mark.parametrize("kind, step", [("inf", 9), ("nan", 3)])
    def test_first_non_finite_step_is_reported(self, scheme, kind, step):
        if kind == "inf":
            # 1 - h lambda0 = 0.1: the field grows tenfold per step from
            # 1e300 and overflows at step 9.
            prob = PdeProblem(kappa=0.0, lambda0=9.0, b=0.0, tau=-0.5, Nx=3,
                              history=lambda t, x: np.full_like(x, 1e300))
        else:
            # Both schemes read the history sample at t = -0.2 at step 3.
            prob = PdeProblem(
                kappa=0.02, lambda0=-0.8, b=-0.8, tau=-0.5, Nx=3,
                history=lambda t, x: np.full_like(x, math.nan if -0.25 < t < -0.15
                                                  else 0.3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                run_pde(prob, SchemeConfig(h=0.1, T=2.0, scheme=scheme))
        assert exc.value.step == step

    def test_run_metadata(self):
        prob = PdeProblem(Nx=4, history=zero_history, **BENCH_KW)
        res = run_pde(prob, SchemeConfig(h=0.1, T=0.3, scheme="lt"))
        assert res.scheme == "lt"
        assert res.wall_clock > 0.0
        assert res.times == pytest.approx([0.0, 0.1, 0.2, 0.3])


def _reference_trace(problem, h, T, scheme):
    """Center, L2 and the field at T from a hand loop of the step functions,
    recorded with ``np.linalg.norm`` and numpy-scalar interpolation."""
    grid = DelayGrid(h, problem.tau)
    xg = problem.xgrid
    buffer = init_from_history(
        lambda t: np.asarray(problem.history(t, xg), dtype=float), grid)
    u = np.asarray(problem.history(0.0, xg), dtype=float)
    pos = problem.L / 2.0 / problem.dx - 1.0
    i_left = min(int(np.floor(pos)), problem.Nx - 2) if problem.Nx > 1 else 0
    frac = pos - i_left if problem.Nx > 1 else 0.0

    def center_of(vec):
        if problem.Nx == 1:
            return float(vec[0])
        return float((1.0 - frac) * vec[i_left] + frac * vec[i_left + 1])

    sqrt_dx = math.sqrt(problem.dx)
    center = [center_of(u)]
    l2 = [sqrt_dx * float(np.linalg.norm(u))]
    cache = None
    if scheme == "lt" or problem.autonomous:
        cache = assemble_system(problem, h, 0.0,
                                include_reaction=scheme == "ie").factorize()
    for n in range(round(T / h)):
        buffer.push(u)
        if scheme == "ie":
            u = ie_pde_step(u, buffer[0], (n + 1) * h, problem, h, cache)
        else:
            u = lt_pde_step(u, buffer[0], n * h, problem, h, cache)
        assert np.isfinite(u).all()
        center.append(center_of(u))
        l2.append(sqrt_dx * float(np.linalg.norm(u)))
    return np.array(center), np.array(l2), u


class TestTraceRecording:
    """``run_pde``'s trace, bit for bit against the plain numpy formulas."""

    @pytest.mark.parametrize("scheme", ["ie", "lt"])
    @pytest.mark.parametrize("lambda1", [0.0, 0.2])
    @pytest.mark.parametrize("nx", [1, 2, 3, 7, 12])
    def test_trace_matches_reference_loop(self, scheme, lambda1, nx):
        # Odd Nx puts L/2 on a node, even Nx between two nodes.
        prob = PdeProblem(Nx=nx, history=oscillating_history, lambda1=lambda1,
                          T_lambda=4.0, **BENCH_KW)
        h, T = 0.05, 2.0
        res = run_pde(prob, SchemeConfig(h=h, T=T, scheme=scheme))
        center, l2, final = _reference_trace(prob, h, T, scheme)
        assert np.array_equal(res.center, center)
        assert np.array_equal(res.l2, l2)
        assert np.array_equal(res.final, final)


def _step_call(name, nx):
    """A step map and its arguments; the first two are its state inputs."""
    rng = np.random.default_rng(nx)
    if name in ("ie_step_kernel", "lt_step_kernel"):
        grid = DelayGrid(0.01, -0.05)
        step = ie_step_kernel if name == "ie_step_kernel" else lt_step_kernel
        return step, (0.7, rng.standard_normal(grid.m + 1), -0.8, -0.8, grid)
    if name == "ie_step":
        return ie_step, (0.7, -0.2, -0.8, -0.8, 0.01)
    # h lambda0 = 1.2 makes the ie system negative definite: pivoted LU,
    # padded below n = 3.
    h = 0.002
    h_lambda0 = 1.2 if name.endswith("-lu") else -0.0016
    prob = PdeProblem(kappa=0.02, lambda0=h_lambda0 / h, b=-0.8, tau=-0.6, Nx=nx,
                      history=zero_history)
    u_n, u_delay = rng.standard_normal((2, nx))
    if name == "lt":
        cache = assemble_system(prob, h, 0.0, include_reaction=False).factorize()
        return lt_pde_step, (u_n, u_delay, 0.0, prob, h, cache)
    cache = None
    if name.startswith("ie-cached"):
        cache = assemble_system(prob, h, h, include_reaction=True).factorize()
    return ie_pde_step, (u_n, u_delay, h, prob, h, cache)


# The run loops push each returned state into their history, so a step that
# wrote into its inputs would silently change a stored history entry.
@pytest.mark.parametrize("name, nx", [
    *[(name, nx) for name in ("ie-cached", "ie-dense", "lt") for nx in (1, 2, 5)],
    ("ie-cached-lu", 2), ("ie-dense-lu", 2),
    ("ie_step", 1), ("ie_step_kernel", 1), ("lt_step_kernel", 1)])
def test_step_maps_do_not_write_into_their_inputs(name, nx):
    step, args = _step_call(name, nx)
    before = [np.array(x, copy=True) for x in args[:2]]
    step(*args)
    for old, new in zip(before, args[:2]):
        assert np.asarray(new).tobytes() == old.tobytes()


class TestOscillatingHistory:
    def test_spot_values(self):
        x = np.array([0.25, 0.75])
        assert oscillating_history(0.0, x) == pytest.approx([0.5, 0.1])
        assert oscillating_history(-0.25, x) == pytest.approx([0.3, 0.3],
                                                              abs=1e-12)

    def test_spatial_mean_is_the_offset(self):
        x = np.linspace(0.0, 1.0, 2001)
        vals = oscillating_history(-0.1, x)
        assert np.trapezoid(vals, x) == pytest.approx(0.3, abs=1e-9)
