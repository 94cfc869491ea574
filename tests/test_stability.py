"""Companion operators, spectral radii, summability, and exact identities."""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddesplit import stability
from ddesplit.errors import (
    NumericalError,
    ParameterError,
    RootConvergenceError,
    SingularStepError,
)
from ddesplit.harness import char_root_rightmost
from ddesplit.history import DelayGrid
from ddesplit.pde import PdeProblem, assemble_system
from ddesplit.scalar import ScalarDelayProblem, ie_step, ie_step_kernel, lt_step
from ddesplit.stability import (
    CompanionOperator,
    build_discrete_propagators,
    companion_operator,
    companion_power_norm_sum,
    companion_profiles,
    defect_norm,
    estimate_os_norm,
    spectral_radius,
)

from conftest import SCALAR_A, SCALAR_B, SCALAR_TAU
from dense_stability import (
    dense_spectral_radius,
    inf_norm,
    power_norm_sum,
    stability_profiles,
    verify_abel,
    verify_telescoping,
)
from test_imports import run_fresh


def _problem(a=SCALAR_A, b=SCALAR_B, tau=SCALAR_TAU, **kw):
    return ScalarDelayProblem(a=a, b=b, tau=tau, history=lambda t: 0.0, **kw)


def _companion(m, h, a=SCALAR_A, b=SCALAR_B):
    """``companion_operator`` at step h with the delay set to m steps."""
    return companion_operator(_problem(a=a, b=b, tau=-m * h), h)


class TestCompanionOperator:
    def test_depth_below_one_rejected(self):
        with pytest.raises(ParameterError):
            CompanionOperator(m=0, alpha=1.0, beta=0.5)

    @pytest.mark.parametrize("m, alpha, beta", [
        (3, math.nan, 0.5),
        (3, math.inf, 0.5),
        (3, 0.9, math.nan),
        (3, 0.9, -math.inf),
        (2.5, 0.9, 0.5),
        (3.0, 0.9, 0.5),
        (True, 0.9, 0.5),
    ])
    def test_bad_input_rejected(self, m, alpha, beta):
        with pytest.raises(ParameterError):
            CompanionOperator(m=m, alpha=alpha, beta=beta)

    def test_numpy_integer_depth_accepted(self):
        op = CompanionOperator(m=np.int64(3), alpha=0.9, beta=0.5)
        assert op.dimension == 4

    def test_dense_structure(self):
        op = CompanionOperator(m=3, alpha=0.9, beta=-0.4)
        mat = op.dense()
        expected = np.array([
            [0.9, 0.0, 0.0, -0.4],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        assert np.array_equal(mat, expected)
        assert op.dimension == 4


@st.composite
def _admissible_labs(draw):
    """(m, a, b, h) with tau = -m h; h a <= 0.75 keeps 1 - h a >= 0.25."""
    m = draw(st.integers(1, 300))
    h = draw(st.floats(1e-3, 0.5))
    a = draw(st.floats(-5.0, 1.5))
    b = draw(st.floats(-10.0, 10.0))
    return m, a, b, h


class TestCompanionCoefficients:
    def test_alpha_for_the_benchmark_step(self):
        op = companion_operator(_problem(), 0.001)
        assert op.alpha == pytest.approx(0.99985002, abs=5e-9)
        assert op.alpha == pytest.approx(1.0 / 1.00015, rel=1e-15)
        assert op.beta == pytest.approx(-0.006 / 1.00015, rel=1e-15)

    def test_singular_denominator_rejected(self):
        with pytest.raises(SingularStepError, match="below guard"):
            companion_operator(_problem(a=1000.0, b=0.0, tau=-0.005), 0.001)


def _defect(props):
    """E = R - P, the dense oracle of ``defect_norm``."""
    return props.R - props.P


def _smallness(props):
    """H = h D Sigma, the dense oracle of ``estimate_os_norm``."""
    return props.h * (props.D @ props.Sigma)


class TestBuildPropagators:
    def test_zero_coefficients_collapse_to_the_shift(self):
        props = build_discrete_propagators(_problem(a=0.0, b=0.0, tau=-0.4),
                                           h=0.1)
        assert np.array_equal(props.P, props.Sigma)
        assert np.array_equal(props.R, props.Sigma)
        assert np.array_equal(_defect(props), np.zeros_like(props.P))
        assert np.array_equal(_smallness(props), np.zeros_like(props.P))

    def test_benchmark_coefficients(self):
        props = build_discrete_propagators(_problem(), h=0.001)
        assert props.m == 257
        assert props.coeffs.beta == pytest.approx(-0.00599910, abs=5e-9)
        assert inf_norm(_defect(props)) == pytest.approx(0.0119982, abs=1e-8)

    def test_implicit_step_is_the_resolvent_times_the_shift(self):
        props = build_discrete_propagators(_problem(tau=-0.005), h=0.001)
        d = props.m + 1
        resolvent_route = np.linalg.solve(np.eye(d) - props.h * props.D,
                                          props.Sigma)
        assert props.R == pytest.approx(resolvent_route, rel=0, abs=1e-13)

    def test_defect_is_a_single_two_entry_row(self):
        props = build_discrete_propagators(_problem(tau=-0.006), h=0.001)
        m, beta = props.m, props.coeffs.beta
        expected = np.zeros_like(props.P)
        expected[0, m - 1] = beta
        expected[0, m] = -beta
        assert np.array_equal(_defect(props), expected)

    def test_rows_match_the_scalar_steps(self):
        a, b, h = -0.4, -1.5, 0.05
        props = build_discrete_propagators(_problem(a=a, b=b, tau=-0.1), h=h)
        assert props.m == 2
        x = np.array([0.7, -1.2, 2.1])
        p_top = lt_step(x[0], x[2], a, b, h)
        r_top = ie_step(x[0], x[1], a, b, h)
        assert props.P @ x == pytest.approx([p_top, x[0], x[1]], rel=1e-14)
        assert props.R @ x == pytest.approx([r_top, x[0], x[1]], rel=1e-14)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_admissible_labs(), st.integers(0, 2**32 - 1))
    def test_rows_match_the_scalar_steps_on_drawn_labs(self, lab, seed):
        m, a, b, h = lab
        props = build_discrete_propagators(_problem(a=a, b=b, tau=-m * h), h=h)
        assert props.m == m
        x = np.random.default_rng(seed).standard_normal(m + 1)
        p_ref = np.concatenate(([lt_step(x[0], x[m], a, b, h)], x[:-1]))
        r_ref = np.concatenate(([ie_step(x[0], x[m - 1], a, b, h)], x[:-1]))
        assert np.allclose(props.P @ x, p_ref, rtol=0, atol=1e-12)
        assert np.allclose(props.R @ x, r_ref, rtol=0, atol=1e-12)

    def test_fractional_lag_rejected(self):
        with pytest.raises(ParameterError, match=r"integer lag, got -tau/h = 2\.57$"):
            build_discrete_propagators(_problem(tau=-0.257), h=0.1)

    def test_time_dependent_coefficient_rejected(self):
        with pytest.raises(ParameterError):
            build_discrete_propagators(_problem(a_mode="linear"), h=0.001)


class TestDefectAndSmallness:
    def test_defect_vanishes_without_coupling(self):
        assert defect_norm(companion_operator(_problem(b=0.0, tau=-0.4),
                                              h=0.1)) == 0.0

    def test_defect_equals_twice_the_coupling_weight(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            # Keep 1 - h*a away from zero so beta stays order one.
            a = rng.uniform(-2.0, 1.2)
            b = rng.uniform(-5.0, 5.0)
            h = rng.uniform(0.01, 0.3)
            m = int(rng.integers(1, 9))
            op = companion_operator(_problem(a=a, b=b, tau=-m * h), h=h)
            beta = h * b / (1.0 - h * a)
            assert defect_norm(op) == pytest.approx(2.0 * abs(beta), rel=1e-13)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_admissible_labs())
    def test_defect_is_exactly_twice_the_coupling_weight(self, lab):
        m, a, b, h = lab
        props = build_discrete_propagators(_problem(a=a, b=b, tau=-m * h), h=h)
        alpha, beta = props.coeffs.alpha, props.coeffs.beta
        if m == 1:
            # Both couplings share column 0, so E[0, 0] = (alpha + beta) - alpha.
            assert inf_norm(_defect(props)) == abs((alpha + beta) - alpha) + abs(beta)
        else:
            assert inf_norm(_defect(props)) == 2 * abs(beta)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(_admissible_labs())
    # Signed zeros in a and b.
    @example((1, -0.0, -0.0, 0.1))
    @example((3, -0.0, 2.0, 0.1))
    def test_closed_forms_equal_the_dense_row_sums(self, lab):
        m, a, b, h = lab
        problem = _problem(a=a, b=b, tau=-m * h)
        props = build_discrete_propagators(problem, h=h)
        assert defect_norm(companion_operator(problem, h)) == inf_norm(_defect(props))
        assert estimate_os_norm(problem, h) == inf_norm(_smallness(props))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from /proc")
    def test_build_raises_peak_rss_by_at_most_3_5_matrices(self):
        # Sigma, P and R are dense, about 2.8 matrices of peak RSS; a dense
        # D @ Sigma or R - P brings the rise to about 5.5.  Linux keeps
        # ru_maxrss across exec, so a fresh interpreter would read pytest's
        # own peak there; VmHWM starts afresh with the new image.
        run_fresh("""
            from ddesplit.scalar import ScalarDelayProblem
            from ddesplit.stability import build_discrete_propagators


            def peak_rss():
                with open("/proc/self/status") as status:
                    line = next(s for s in status if s.startswith("VmHWM:"))
                return int(line.split()[1]) * 1024


            m, h = 1028, 0.001
            problem = ScalarDelayProblem(a=-1.0, b=0.5, tau=-m * h,
                                         history=lambda t: 0.0)
            before = peak_rss()
            props = build_discrete_propagators(problem, h)
            matrices = (peak_rss() - before) / ((m + 1) ** 2 * 8)
            assert props.m == m
            assert matrices <= 3.5, f"peak RSS rose by {matrices:.2f} dense matrices"
        """)

    def test_defect_scales_linearly_with_the_step(self):
        rates = []
        for h in (0.01, 0.005, 0.0025):
            rates.append(defect_norm(companion_operator(_problem(tau=-0.25), h)) / h)
        spread = (max(rates) - min(rates)) / max(rates)
        assert spread < 0.01

    def test_os_norm_without_coupling(self):
        assert estimate_os_norm(_problem(a=-0.5, b=0.0, tau=-1.0),
                                h=0.1) == pytest.approx(0.05, rel=1e-14)

    def test_os_norm_small_regime(self):
        value = estimate_os_norm(_problem(), h=0.001)
        assert value == pytest.approx(0.00615, rel=1e-12)
        assert value < 1.0

    def test_os_norm_large_step_leaves_the_small_regime(self):
        value = estimate_os_norm(_problem(a=0.0, b=-6.0, tau=-0.6), h=0.2)
        assert value == pytest.approx(1.2, rel=1e-12)
        assert value > 1.0

    def test_os_norm_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            h = rng.uniform(0.01, 0.4)
            m = int(rng.integers(2, 7))
            value = estimate_os_norm(_problem(a=a, b=b, tau=-m * h), h=h)
            assert value == pytest.approx(h * (abs(a) + abs(b)), rel=1e-13)

    def test_os_norm_single_cell_columns_coincide(self):
        # m = 1 puts both couplings in one column: norm is h|a+b|.
        value = estimate_os_norm(_problem(a=-0.5, b=0.3, tau=-0.1), h=0.1)
        assert value == pytest.approx(0.02, rel=1e-12)


class TestSpectralRadius:
    @pytest.mark.xfail(strict=True,
                       reason="at the double root of (z - 1)^2 the iteration "
                              "stops on the residual bound, about sqrt(eps) "
                              "off the root: it returns 1.0000000298871805")
    def test_double_root_to_rounding(self):
        assert spectral_radius(CompanionOperator(1, 2.0, -1.0)) == pytest.approx(
            1.0, rel=1e-13)

    def test_uncoupled_radius_is_the_diagonal_weight(self):
        op = CompanionOperator(m=5, alpha=0.8, beta=0.0)
        assert spectral_radius(op) == 0.8

    def test_pure_delay_sits_on_the_unit_circle(self):
        op = CompanionOperator(m=1, alpha=0.0, beta=1.0)
        assert spectral_radius(op) == pytest.approx(1.0, rel=1e-10)

    def test_benchmark_radius(self):
        op = _companion(257, 0.001)
        rho = spectral_radius(op)
        assert rho == pytest.approx(0.9999108137, abs=1e-8)
        assert rho == pytest.approx(0.9999108137770498, rel=1e-12)
        assert rho < 1.0

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 50, 257])
    def test_root_route_matches_the_eigensolver(self, m):
        op = CompanionOperator(m=m, alpha=0.999, beta=-0.006)
        assert abs(spectral_radius(op) - dense_spectral_radius(op)) <= 1e-10

    # Draws that failed the former Durand-Kerner route or the unscaled
    # eigenvalue oracle, and one that overflows beta z**(1 - m) formed directly.
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 60), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @example(1, 0.0, 1.301923766726049e-63)
    @example(25, 0.0, 6.054903652415098e-90)
    @example(60, 0.3, -1.4)
    @example(60, 0.32097158004953363, 1.8841742330701293e-300)
    @example(1, 1e-8, 1e-20)
    def test_matches_the_rescaled_eigensolver(self, m, alpha, beta):
        op = CompanionOperator(m=m, alpha=alpha, beta=beta)
        oracle = dense_spectral_radius(op)
        assert abs(spectral_radius(op) - oracle) <= 1e-13 * oracle

    # The bench operators, bit for bit.  From the refined starts each takes
    # 4 sweeps; unrefined starts, or the large root started on the axis,
    # take 5 or 6.
    @pytest.mark.parametrize("h, m, rho", [
        (1e-3, 257, 0.9999108137770498),
        (4e-4, 642, 0.9999621817643327),
        (2.5e-4, 1028, 0.9999767139716051),
        (1e-4, 2570, 0.9999906062780493),
    ])
    def test_benchmark_radii_in_four_sweeps(self, h, m, rho):
        op = _companion(m, h)
        with mock.patch.object(stability, "_MAX_SWEEPS", 4):
            assert spectral_radius(op) == rho

    # Draws on which sweeps from uniform angles on the Newton-polygon circles
    # stalled for 100 sweeps: m 296 (the operator of `ddesplit stability
    # --a -139.48195482076895 --b -192.80810321588334 --tau -2.96 --h 0.01`),
    # m 252, and the 18 of 1500 draws from np.random.default_rng(3) with m
    # in 1..599 and alpha, beta in [-1.5, 1.5].  Each must converge to the
    # eigenvalue radius.  Freezing a root before applying the correction of
    # the sweep that converged it returns wrong radii on some of them.
    @pytest.mark.parametrize("m, alpha, beta", [
        (296, 0.41756799619763063, -0.8051049331052236),
        (252, -0.0150714732831152, -0.5362441454955037),
        (500, -1.1528038767952904, -0.5256974595088403),
        (486, -0.09901889992206181, -1.019166076457263),
        (586, 1.2536678406035389, 0.181368507770435),
        (520, -1.1449774337281902, -1.4596004833170104),
        (381, 1.27043194060222, 0.6675096922782964),
        (429, -0.6490646592309596, 0.2769039634162973),
        (565, 0.2528852771479815, -1.4896483449486424),
        (486, -0.06808249682093459, -0.28369705819274493),
        (439, 0.11110613114428158, -1.4369871288223854),
        (595, -0.3069709451642142, -0.7485063840178702),
        (500, 0.15549515144186787, -0.6717939277081713),
        (417, 0.49037542781480736, 1.0162643485271143),
        (541, -0.7129644822035938, 0.9992025996451739),
        (542, 0.984242828478032, 0.5896899879154973),
        (586, 1.4410866769054227, 1.0457222099289765),
        (534, 0.34625569885258756, -0.5843388977939714),
        (422, 0.45307445178895267, -0.3128183280047723),
        (525, 0.5412451208662916, 1.411169440134871),
    ])
    def test_hard_draws_converge_or_raise(self, m, alpha, beta):
        # Raising RootConvergenceError fails the test too.
        op = CompanionOperator(m=m, alpha=alpha, beta=beta)
        assert spectral_radius(op) == pytest.approx(dense_spectral_radius(op),
                                                    rel=1e-12)

    def test_exhausted_sweep_budget_is_reported(self):
        op = _companion(257, 0.001)
        with mock.patch.object(stability, "_MAX_SWEEPS", 3), \
                pytest.raises(RootConvergenceError,
                              match="^no convergence after 3 sweeps$") as info:
            spectral_radius(op)
        assert math.isfinite(info.value.residual) and info.value.residual > 0.0

    # Depths at which the stalls were found.
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.integers(61, 300), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    def test_matches_the_eigensolver_at_depths_in_the_hundreds(self, m, alpha, beta):
        op = CompanionOperator(m=m, alpha=alpha, beta=beta)
        assert spectral_radius(op) == pytest.approx(dense_spectral_radius(op),
                                                    rel=1e-12)

    def test_radius_tracks_the_characteristic_root_to_first_order(self):
        # log(rho)/h approaches the real part of the rightmost root of
        # lambda = a + b e^{lambda tau} with an O(h) gap, up to m = 2570.
        root = char_root_rightmost(SCALAR_A, SCALAR_B, SCALAR_TAU)
        for h, m in ((1e-3, 257), (2.5e-4, 1028), (1e-4, 2570)):
            rho = spectral_radius(_companion(m, h))
            assert (math.log(rho) / h - root.real) / h == pytest.approx(5.28, rel=0.01)


class TestStabilityProfiles:
    def test_nilpotent_to_zero(self):
        S, r = stability_profiles(np.zeros((2, 2)), 3)
        assert S == pytest.approx([1.0, 1.0, 1.0])
        assert r == pytest.approx([1.0, 0.0, 0.0])

    def test_identity_partial_sums_grow_linearly(self):
        S, r = stability_profiles(np.eye(3), 6)
        assert S == pytest.approx(np.arange(1, 7, dtype=float))
        assert np.all(r == 0.0)

    def test_scalar_contraction_ritt_sequence(self):
        S, r = stability_profiles(np.array([[0.5]]), 10)
        n = np.arange(1, 11)
        assert r == pytest.approx(n * 0.5 ** n, rel=1e-14)
        assert r.max() == pytest.approx(0.5)
        assert set(np.flatnonzero(r == r.max()) + 1) == {1, 2}

    def test_partial_sum_recursion_bound(self):
        op = _companion(4, 0.05)
        dense = op.dense()
        S, _ = stability_profiles(dense, 40)
        norm = np.abs(dense).sum(axis=1).max()
        for k in range(1, 40):
            assert S[k] <= 1.0 + norm * S[k - 1] + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            stability_profiles(np.zeros((2, 3)), 5)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ParameterError):
            stability_profiles(np.eye(2), 0)

    def test_power_overflow_reported(self):
        with pytest.raises(NumericalError):
            stability_profiles(np.array([[2.0]]), 1100)


class TestCompanionProfiles:
    @pytest.mark.parametrize("m,alpha,beta", [
        (3, 0.9, -0.4),
        (1, 0.5, 0.3),
    ])
    def test_matches_the_dense_route(self, m, alpha, beta):
        op = CompanionOperator(m=m, alpha=alpha, beta=beta)
        checkpoints = [1, 2, 3, 5, 8, 13, 21, 34, 55]
        S_fast, r_fast = companion_profiles(op, checkpoints)
        S_dense, r_dense = stability_profiles(op.dense(), 55)
        idx = np.array(checkpoints) - 1
        assert S_fast == pytest.approx(S_dense[idx], rel=1e-12)
        assert r_fast == pytest.approx(r_dense[idx], rel=1e-12, abs=1e-12)

    def test_unsorted_duplicated_checkpoints_are_normalized(self):
        op = CompanionOperator(m=2, alpha=0.7, beta=0.1)
        S_a, r_a = companion_profiles(op, [8, 1, 8, 3])
        S_b, r_b = companion_profiles(op, [1, 3, 8])
        assert np.array_equal(S_a, S_b)
        assert np.array_equal(r_a, r_b)

    def test_first_checkpoint_is_the_identity_norm(self):
        op = CompanionOperator(m=4, alpha=0.99, beta=-0.3)
        S, r = companion_profiles(op, [1])
        assert S[0] == 1.0
        dense = op.dense()
        assert r[0] == pytest.approx(np.abs(dense - np.eye(5)).sum(axis=1).max())

    @pytest.mark.parametrize("checkpoints", [[], [0], [-3, 5], [2.5, 4], [4.0],
                                             [True, 4]])
    def test_invalid_checkpoints_rejected(self, checkpoints):
        op = CompanionOperator(m=2, alpha=0.7, beta=0.1)
        with pytest.raises(ParameterError):
            companion_profiles(op, checkpoints)

    # alpha 1, beta 0 is the exact grid shift, the transport factor alone.
    # Row i of its n-th power is e_{i-n} for i >= n and e_0 otherwise, so
    # n ||Sigma^n - Sigma^{n-1}|| reads 2n up to n = m and 0 after.  The
    # peak, 2m = 2|tau|/h, is unbounded as h -> 0: the shift is not Ritt.
    @pytest.mark.parametrize("m", [1, 2, 4, 17, 257, 1028])
    def test_exact_shift_is_not_ritt_bounded(self, m):
        _, r = companion_profiles(CompanionOperator(m, 1.0, 0.0), range(1, 3 * m + 3))
        assert r.max() == 2 * m
        assert np.array_equal(r[:m], 2.0 * np.arange(1, m + 1))
        assert not r[m:].any()

    # The diffusion resolvent S = (I + h kappa (-Delta_h))^{-1} is the
    # sectorial present-state factor of the field model.  In the 2-norm its
    # Ritt constant is max_k sup_n n s_k^{n-1} (1 - s_k) over its eigenvalues
    # s_k, which is below 1 - s_k^n < 1 at every Nx and h, where the exact
    # shift above peaks at 2m.  Values at kappa 0.02, pinned as measured.
    @pytest.mark.parametrize("Nx,h,constant", [
        (50, 1e-2, 0.6752009462062968), (50, 1e-3, 0.40426350688070034),
        (50, 1e-4, 0.37167774350781), (200, 1e-2, 0.9699869378224992),
        (200, 1e-3, 0.7636985493924535), (200, 1e-4, 0.4217246747735505),
        (2000, 1e-2, 0.9996879095042852), (2000, 1e-3, 0.9968878365326054),
        (2000, 1e-4, 0.9697263152279916),
    ])
    def test_diffusion_resolvent_is_ritt_bounded(self, Nx, h, constant):
        s = _diffusion_resolvent_eigenvalues(Nx, h)
        # n s^{n-1} (1 - s) rises while n <= s / (1 - s): it peaks at the next n.
        n = np.floor(s / (1.0 - s)) + 1.0
        ritt = (n * s ** (n - 1) * (1.0 - s)).max()
        assert ritt == pytest.approx(constant, rel=1e-9)
        assert ritt < 1.0

    def test_diffusion_eigenvalues_and_ritt_peak_match_dense_powers(self):
        Nx, h = 6, 0.01
        problem = PdeProblem(kappa=0.02, lambda0=0.0, b=0.0, tau=-1.0, Nx=Nx,
                             history=lambda t, x: np.zeros_like(x))
        system = assemble_system(problem, h, 0.0, include_reaction=False)
        S = np.linalg.inv(np.diag(system.diag) + np.diag(system.off, 1)
                          + np.diag(system.off, -1))
        s = _diffusion_resolvent_eigenvalues(Nx, h)
        assert np.linalg.eigvalsh(S) == pytest.approx(np.sort(s), rel=1e-12)
        peak, power = 0.0, np.eye(Nx)
        for n in range(1, 2001):
            step = power @ S
            peak = max(peak, n * np.linalg.norm(step - power, 2))
            power = step
        n = np.arange(1, 2001)[:, None]
        assert peak == pytest.approx((n * s ** (n - 1) * (1.0 - s)).max(), rel=1e-9)

    # The kernel step with a = b = 0 is the transport factor on (u, rho): u
    # stays and rho takes the transport resolvent.  Built densely, column by
    # column, at h = 1/m and tau = -1, its powers stay bounded by 1, but its
    # Ritt profile peaks at n = m + 1 with a value that grows like h^{-1/2}
    # (about 0.74 sqrt(m)): the transport is not Ritt-bounded either.
    @pytest.mark.parametrize("m,peak", [
        (8, 2.35524306726844), (32, 4.314340799495257), (128, 8.432430380926409),
    ])
    def test_kernel_transport_is_not_ritt_bounded(self, m, peak):
        grid = DelayGrid(1.0 / m, -1.0)
        steps = (ie_step_kernel(x[0], x[1:], 0.0, 0.0, grid) for x in np.eye(m + 2))
        S = np.array([[u, *seg] for u, seg in steps]).T
        n_max = 4 * (m + 1)
        _, r = stability_profiles(S, n_max)
        assert r.max() == pytest.approx(peak, rel=1e-9)
        assert r.argmax() + 1 == m + 1
        power = np.eye(m + 2)
        for _ in range(n_max):
            power = power @ S
            assert inf_norm(power) <= 1.0 + 4e-15


class TestPowerNormSums:
    def test_identity_sums_to_the_horizon(self):
        assert power_norm_sum(np.eye(3), 10) == 10.0

    def test_nilpotent_sums_to_one(self):
        assert power_norm_sum(np.zeros((2, 2)), 5) == 1.0

    def test_fast_route_matches_the_dense_route(self):
        op = _companion(5, 0.04)
        dense_total = power_norm_sum(op.dense(), 400)
        fast_total = companion_power_norm_sum(op, 400)
        assert fast_total == pytest.approx(dense_total, rel=1e-12)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ParameterError):
            power_norm_sum(np.eye(2), 0)
        with pytest.raises(ParameterError):
            companion_power_norm_sum(CompanionOperator(m=1, alpha=0.5,
                                                       beta=0.1), 0)

    @pytest.mark.parametrize("N", [2.0, 2.5, True])
    def test_non_integer_horizon_rejected(self, N):
        with pytest.raises(ParameterError):
            companion_power_norm_sum(CompanionOperator(m=1, alpha=0.5,
                                                       beta=0.1), N)

    def test_overflow_reported(self):
        with pytest.raises(NumericalError):
            power_norm_sum(np.array([[2.0]]), 1100)
        with pytest.raises(NumericalError):
            companion_power_norm_sum(CompanionOperator(m=1, alpha=2.0,
                                                       beta=0.5), 1200)


def _first_rows_by_row_update(op, n_max):
    """First rows of op^0, ..., op^n_max by the O(m) update of the row vector."""
    row = np.zeros(op.m + 1)
    row[0] = 1.0
    yield row
    for _ in range(n_max):
        new = np.empty_like(row)
        new[0] = op.alpha * row[0] + row[1]
        new[1:-1] = row[2:]
        new[-1] = op.beta * row[0]
        row = new
        yield row


def _abs_power_norms(mat, n_max):
    """||(|A|)^n||_inf for n = 0..n_max: the rounding scale of A^n on any route."""
    power = np.eye(mat.shape[0])
    norms = [1.0]
    for _ in range(n_max):
        power = power @ np.abs(mat)
        norms.append(power.sum(axis=1).max())
    return np.array(norms)


def _diffusion_resolvent_eigenvalues(Nx, h):
    """s_k = 1/(1 + h kappa mu_k) on (0, 1) at kappa 0.02, with the sine
    eigenvalues mu_k = (4/dx^2) sin^2(k pi/(2(Nx + 1))) of -Delta_h."""
    k = np.arange(1, Nx + 1)
    mu = 4.0 * (Nx + 1) ** 2 * np.sin(k * np.pi / (2 * (Nx + 1))) ** 2
    return 1.0 / (1.0 + h * 0.02 * mu)


def _dense_row_sums(heads, window, m):
    """Each row (heads[i], window[m-i : 2m-i]) of ``_max_row_norm``, summed densely."""
    return [float(np.abs(np.concatenate(([heads[i]], window[m - i:2 * m - i]))).sum())
            for i in range(heads.size)]


@st.composite
def _tied_row_windows(draw):
    m = draw(st.integers(1, 40))
    top = draw(st.integers(1, m + 1))
    repeated = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
    entries = st.sampled_from([0.0] * 6 + [1.0, -2.0, 3.0, 2.0 ** 52, 1.0 / 3.0]
                              + repeated)
    heads = draw(st.lists(entries, min_size=top, max_size=top))
    window = draw(st.lists(entries, min_size=2 * m, max_size=2 * m))
    return np.array(heads), np.array(window), m


class TestFirstRowSequence:
    # At m = 1 and 2 each step reads a value appended two or three steps
    # before.  m = 4100 exceeds the chunk, so every chunk is shorter than
    # m + 1 steps and its tail reaches back over earlier chunks.
    @pytest.mark.parametrize("m", [1, 2, 257, 4100])
    def test_chunks_match_the_row_update_bit_for_bit(self, m):
        op = _companion(m, 0.001)
        m, tail, chunk = op.m, 2 * op.m + 2, stability._CHUNK
        n_max = 3 * chunk + 100
        c_all, b_all, starts = [], [], []
        for j0, c, b in stability._first_rows(op, n_max):
            starts.append(j0)
            # The tail repeats the values before the chunk (zero before j = 0);
            # for m > chunk it reaches back over more than one chunk.
            before = np.concatenate([np.zeros(tail)] + c_all)
            assert np.array_equal(c[:tail], before[-tail:])
            assert np.array_equal(b, op.beta * c)
            c_all.append(c[tail:])
            b_all.append(b[tail:])
        assert starts == [0, chunk, 2 * chunk, 3 * chunk]
        c = np.concatenate(c_all)
        b = np.concatenate((np.zeros(m), np.concatenate(b_all)))
        assert c.size == n_max + 1
        for j, row in enumerate(_first_rows_by_row_update(op, n_max)):
            # First row of op^j: (c_j, beta c_{j-m}, ..., beta c_{j-1}).
            assert row[0] == c[j]
            assert np.array_equal(row[1:], b[j:j + m]), j

    def test_benchmark_profiles_keep_the_row_update_rounding(self):
        # Values of the O(m) row-vector update with a deque window, which the
        # first-row route reproduces bit for bit; the checkpoints straddle
        # the first chunk boundaries.
        op = _companion(257, 0.001)
        S, r = companion_profiles(
            op, [1, 257, 258, 259, 4096, 4097, 4354, 8192, 12289, 20000])
        assert S.tolist() == [
            1.0, 446.98302776115565, 449.45775909729105, 451.92612017926393,
            172.08253081282498, 171.24863021484094, 442.7807330919993,
            229.02808545099276, 285.71489407342614, 474.36379782128085]
        assert r.tolist() == [
            2.0, 514.0, 1.6435255738724417, 1.6587365541211592,
            41.341849597595115, 41.35194282259453, 43.45550104733616,
            57.389604893318015, 59.7547735298988, 49.03803845397094]
        assert companion_power_norm_sum(op, 20000) == pytest.approx(
            21181.028618608118, rel=1e-13)

    def test_rows_tied_within_rounding_are_all_summed(self):
        # Rotations of one window have equal norms in exact arithmetic but
        # round differently; the result is the largest dense row sum.
        rng = np.random.default_rng(0)
        m = 257
        w = rng.uniform(0.5, 1.5, m) * 10.0 ** rng.integers(-3, 4, size=m)
        window = np.concatenate((w, w))
        heads = np.full(m + 1, 0.5)
        sums = _dense_row_sums(heads, window, m)
        assert len(set(sums)) > 1
        assert stability._max_row_norm(heads, window, m) == max(sums)

    # Entries drawn from zeros, small integers, integers whose sums pass
    # 2^53, and a few repeated values, so that many rows tie and take the
    # integer and at-most-one-nonzero shortcuts.
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_tied_row_windows())
    @example((np.arange(5.0), np.repeat([1.0, 0.0], 4), 4))
    @example((np.zeros(4), np.array([0.0, 0.3, 0.0, 0.0, 0.0, 0.0]), 3))
    @example((np.full(3, 0.1), np.array([0.0, 0.2, 0.7, 0.0]), 2))
    @example((np.full(2, 2.0 ** 52), np.array([1.0, 1.0]), 1))
    @example((np.full(3, 1.0 / 3.0), np.ones(4), 2))
    # alpha = 0 windows: adjacent nonzero pairs.  With zero heads every tied
    # row holds two nonzeros and takes the two-entry shortcut; with nonzero
    # heads it holds three and is summed densely; the last mixes both.
    @example((np.zeros(4), np.array([0.1, 0.7, 0.0, 0.1, 0.7, 0.0]), 3))
    @example((np.full(4, 0.2), np.array([0.1, 0.7, 0.0, 0.1, 0.7, 0.0]), 3))
    @example((np.zeros(5), np.array([0.2, 0.6, 0.0, 0.0, 0.1, 0.5, 0.2, 0.0]), 4))
    def test_equals_the_dense_row_sums_on_tied_rows(self, case):
        heads, window, m = case
        assert stability._max_row_norm(heads, window, m) == max(
            _dense_row_sums(heads, window, m))

    @staticmethod
    def _rows_summed_densely(op):
        """Rows the dense fallback sums over the checkpoints 1 ... 3m + 2."""
        summed = []
        row_sums = stability._row_sums

        def counting(abs_heads, abs_window, m, index):
            summed.append(index.size)
            return row_sums(abs_heads, abs_window, m, index)

        with mock.patch.object(stability, "_row_sums", counting):
            companion_profiles(op, range(1, 3 * op.m + 3))
        return sum(summed)

    # Tied rows on the exact shift are integers, so the dense fallback sums
    # only the checkpoints with a single near row: 2 rows in all, where
    # summing every near row took 5293176.
    def test_exact_shift_sums_two_rows_densely(self):
        assert self._rows_summed_densely(CompanionOperator(1028, 1.0, 0.0)) == 2

    # alpha = 0 puts adjacent nonzero pairs in the Ritt windows, so most near
    # rows hold two nonzeros and take the two-entry shortcut: 4006 rows,
    # where the one-entry shortcut left 1003006.
    def test_zero_alpha_pairs_sum_few_rows_densely(self):
        assert self._rows_summed_densely(CompanionOperator(1000, 0.0, 0.9)) == 4006

    # (m, alpha, beta, n): the step the O(m) row update reports overflow at.
    @pytest.mark.parametrize("m,alpha,beta,n", [
        (1, 2.0, 0.5, 888),
        (3, 1.5, -2.0, 1865),
        (2, 1.1, 0.05, 5470),
    ])
    def test_overflow_step_is_reported(self, m, alpha, beta, n):
        op = CompanionOperator(m=m, alpha=alpha, beta=beta)
        message = rf"^power overflow at n = {n}$"
        with pytest.raises(NumericalError, match=message):
            companion_profiles(op, [10 * n])
        with pytest.raises(NumericalError, match=message):
            companion_power_norm_sum(op, 10 * n)
        with pytest.raises(NumericalError, match=message):
            stability_profiles(op.dense(), 10 * n)
        with pytest.raises(NumericalError, match=message):
            power_norm_sum(op.dense(), 10 * n)


@st.composite
def _operators_and_checkpoints(draw):
    m = draw(st.integers(1, 8))
    alpha = draw(st.floats(-1.5, 1.5))
    beta = draw(st.floats(-1.5, 1.5))
    N = draw(st.integers(1, 200))
    early = draw(st.integers(1, min(N, m + 1)))
    later = draw(st.lists(st.integers(1, N), max_size=6))
    chunk = draw(st.sampled_from([1, 3, 16, stability._CHUNK]))
    return CompanionOperator(m=m, alpha=alpha, beta=beta), N, [early, N] + later, chunk


class TestCompanionRouteProperties:
    """The first-row routes against repeated dense multiplication.

    Both routes round differently, by at most a few ulps of the powers of
    |A|, which bounds every tolerance below.  Small chunk sizes put chunk
    boundaries inside the horizon.
    """

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(_operators_and_checkpoints())
    def test_profiles_and_power_norm_sums_match_the_dense_route(self, case):
        op, N, checkpoints, chunk = case
        dense = op.dense()
        with mock.patch.object(stability, "_CHUNK", chunk):
            S_fast, r_fast = companion_profiles(op, checkpoints)
            total_fast = companion_power_norm_sum(op, N)
        S_dense, r_dense = stability_profiles(dense, N)
        scale = _abs_power_norms(dense, N)
        partial_scale = np.cumsum(scale)
        ks = np.array(sorted(set(checkpoints)))
        tol = 1e-12
        assert np.all(np.abs(S_fast - S_dense[ks - 1])
                      <= tol * partial_scale[ks - 1])
        assert np.all(np.abs(r_fast - r_dense[ks - 1])
                      <= tol * ks * (scale[ks] + scale[ks - 1]))
        assert abs(total_fast - power_norm_sum(dense, N)) <= tol * partial_scale[N - 1]


class TestTelescoping:
    def test_single_factor_is_exact(self):
        rng = np.random.default_rng(11)
        R = rng.standard_normal((4, 4))
        P = rng.standard_normal((4, 4))
        assert verify_telescoping([R], [P])[0] == 0.0

    def test_random_factors(self):
        rng = np.random.default_rng(12)
        # Contractive scaling keeps 20-fold products at order one.
        R_list = [rng.standard_normal((5, 5)) * 0.3 for _ in range(20)]
        P_list = [rng.standard_normal((5, 5)) * 0.3 for _ in range(20)]
        residual, scale = verify_telescoping(R_list, P_list)
        assert residual <= 1e-12 * scale

    def test_propagator_powers(self):
        props = build_discrete_propagators(_problem(tau=-0.003), h=0.001)
        residual, scale = verify_telescoping([props.R] * 50, [props.P] * 50)
        assert residual <= 1e-12 * scale

    def test_time_ordered_distinct_factors(self):
        rng = np.random.default_rng(13)
        R_list, P_list = [], []
        for k in range(12):
            op = _companion(3, 0.05, a=-0.1 * (k + 1), b=-0.5)
            R_list.append(op.dense() + 0.01 * rng.standard_normal((4, 4)))
            P_list.append(op.dense())
        residual, scale = verify_telescoping(R_list, P_list)
        assert residual <= 1e-12 * scale

    def test_empty_or_mismatched_factor_lists_rejected(self):
        eye3 = np.eye(3)
        with pytest.raises(ParameterError):
            verify_telescoping([], [])
        with pytest.raises(ParameterError):
            verify_telescoping([eye3, eye3], [eye3])
        with pytest.raises(ParameterError):
            verify_telescoping([eye3], [np.eye(2)])


class TestAbelSummation:
    def test_identity_operator_is_exact(self):
        rng = np.random.default_rng(21)
        taus = [rng.standard_normal(3) for _ in range(6)]
        assert verify_abel(np.eye(3), taus)[0] == 0.0

    def test_nilpotent_operator_is_exact(self):
        taus = [np.array([1.0, -2.0]), np.array([0.5, 4.0])]
        assert verify_abel(np.zeros((2, 2)), taus)[0] == 0.0

    def test_random_operator(self):
        rng = np.random.default_rng(22)
        T = rng.standard_normal((4, 4)) * 0.4
        taus = [rng.standard_normal(4) for _ in range(15)]
        residual, scale = verify_abel(T, taus)
        assert residual <= 1e-12 * scale

    def test_partial_sums_control_the_weighted_sum(self):
        # For diagonal contractions the difference norms telescope to at
        # most one, so the identity bounds the left side by twice the
        # largest partial sum.
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 12))
            T = np.diag(rng.uniform(0.0, 0.999, size=d))
            taus = [rng.standard_normal(d) for _ in range(n)]
            partial = np.cumsum(taus, axis=0)
            max_partial = np.abs(partial).max(axis=1).max()
            lhs = sum(np.linalg.matrix_power(T, n - 1 - k) @ taus[k]
                      for k in range(n))
            assert np.abs(lhs).max() <= 2.0 * max_partial + 1e-12
            residual, scale = verify_abel(T, taus)
            assert residual <= 1e-12 * scale

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            verify_abel(np.eye(3), [np.zeros(2)])
        with pytest.raises(ParameterError):
            verify_abel(np.eye(2), [])
