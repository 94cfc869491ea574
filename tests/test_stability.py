"""Companion operators, spectral radii, summability, and exact identities."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddesplit import stability
from ddesplit.errors import NumericalError, ParameterError, RootConvergenceError
from ddesplit.harness import char_root_rightmost
from ddesplit.scalar import ScalarDelayProblem, StepCoefficients, ie_step, lt_step
from ddesplit.stability import (
    CompanionOperator,
    build_discrete_propagators,
    companion_operator,
    companion_power_norm_sum,
    companion_profiles,
    defect_norm,
    estimate_os_norm,
    spectral_radius,
    verify_abel,
    verify_telescoping,
)

from conftest import SCALAR_A, SCALAR_B, SCALAR_TAU
from dense_stability import (
    dense_spectral_radius,
    inf_norm,
    power_norm_sum,
    stability_profiles,
)


def _problem(a=SCALAR_A, b=SCALAR_B, tau=SCALAR_TAU, **kw):
    return ScalarDelayProblem(a=a, b=b, tau=tau, history=lambda t: 0.0, **kw)


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

    @pytest.mark.parametrize("m", [1, 2, 5, 17])
    def test_apply_matches_dense(self, m):
        op = CompanionOperator(m=m, alpha=0.97, beta=-0.2)
        mat = op.dense()
        rng = np.random.default_rng(100 + m)
        for _ in range(25):
            x = rng.standard_normal(m + 1)
            assert op.apply(x) == pytest.approx(mat @ x, rel=1e-14, abs=1e-15)


@st.composite
def _admissible_labs(draw):
    """(m, a, b, h) with tau = -m h; h a <= 0.75 keeps 1 - h a >= 0.25."""
    m = draw(st.integers(1, 300))
    h = draw(st.floats(1e-3, 0.5))
    a = draw(st.floats(-5.0, 1.5))
    b = draw(st.floats(-10.0, 10.0))
    return m, a, b, h


class TestBuildPropagators:
    def test_zero_coefficients_collapse_to_the_shift(self):
        props = build_discrete_propagators(_problem(a=0.0, b=0.0, tau=-0.4),
                                           h=0.1)
        assert np.array_equal(props.P, props.Sigma)
        assert np.array_equal(props.R, props.Sigma)
        assert np.array_equal(props.E, np.zeros_like(props.E))
        assert np.array_equal(props.H, np.zeros_like(props.H))

    def test_benchmark_coefficients(self):
        props = build_discrete_propagators(_problem(), h=0.001)
        assert props.m == 257
        assert props.coeffs.beta == pytest.approx(-0.00599910, abs=5e-9)
        assert inf_norm(props.E) == pytest.approx(0.0119982, abs=1e-8)

    def test_implicit_step_is_the_resolvent_times_the_shift(self):
        props = build_discrete_propagators(_problem(tau=-0.005), h=0.001)
        d = props.m + 1
        resolvent_route = np.linalg.solve(np.eye(d) - props.h * props.D,
                                          props.Sigma)
        assert props.R == pytest.approx(resolvent_route, rel=0, abs=1e-13)

    def test_defect_is_a_single_two_entry_row(self):
        props = build_discrete_propagators(_problem(tau=-0.006), h=0.001)
        m, beta = props.m, props.coeffs.beta
        expected = np.zeros_like(props.E)
        expected[0, m - 1] = beta
        expected[0, m] = -beta
        assert np.array_equal(props.E, expected)

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
            assert inf_norm(props.E) == abs((alpha + beta) - alpha) + abs(beta)
        else:
            assert inf_norm(props.E) == 2 * abs(beta)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(_admissible_labs())
    def test_closed_forms_equal_the_dense_row_sums(self, lab):
        m, a, b, h = lab
        problem = _problem(a=a, b=b, tau=-m * h)
        props = build_discrete_propagators(problem, h=h)
        assert defect_norm(companion_operator(problem, h)) == inf_norm(props.E)
        assert estimate_os_norm(problem, h) == inf_norm(props.H)

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
    def test_uncoupled_radius_is_the_diagonal_weight(self):
        op = CompanionOperator(m=5, alpha=0.8, beta=0.0)
        assert spectral_radius(op) == 0.8

    def test_pure_delay_sits_on_the_unit_circle(self):
        op = CompanionOperator(m=1, alpha=0.0, beta=1.0)
        assert spectral_radius(op) == pytest.approx(1.0, rel=1e-10)

    def test_benchmark_radius(self):
        coeffs = StepCoefficients.from_params(SCALAR_A, SCALAR_B, 0.001)
        op = CompanionOperator(m=257, alpha=coeffs.alpha, beta=coeffs.beta)
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

    # Seeded draws at depths 252 to 586 on which the iteration can stall.
    # The route must either converge to the eigenvalue radius or say it did
    # not.  Freezing a root before applying the correction of the sweep that
    # converged it returns wrong radii on five of them, e.g. 1.0025 against
    # 1.1528 at m 500.
    @pytest.mark.parametrize("m, alpha, beta", [
        (296, 0.41756799619763063, -0.8051049331052236),
        (252, -0.0150714732831152, -0.5362441454955037),
        (500, -1.1528038767952904, -0.5256974595088403),
        (486, -0.09901889992206181, -1.019166076457263),
        (586, 1.2536678406035389, 0.181368507770435),
        (520, -1.1449774337281902, -1.4596004833170104),
        (381, 1.27043194060222, 0.6675096922782964),
    ])
    def test_hard_draws_converge_or_raise(self, m, alpha, beta):
        op = CompanionOperator(m=m, alpha=alpha, beta=beta)
        try:
            rho = spectral_radius(op)
        except RootConvergenceError:
            return
        assert rho == pytest.approx(dense_spectral_radius(op), rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=RootConvergenceError,
                       reason="the Aberth sweeps stall at large depth on some "
                              "coefficients; `ddesplit stability --a "
                              "-139.48195482076895 --b -192.80810321588334 "
                              "--tau -2.96 --h 0.01` exits with no convergence "
                              "after 100 sweeps")
    def test_converges_on_a_draw_at_depth_296(self):
        op = CompanionOperator(m=296, alpha=0.41756799619763063,
                               beta=-0.8051049331052236)
        assert spectral_radius(op) == pytest.approx(dense_spectral_radius(op),
                                                    rel=1e-12)

    def test_radius_tracks_the_characteristic_root_to_first_order(self):
        # log(rho)/h approaches the real part of the rightmost root of
        # lambda = a + b e^{lambda tau} with an O(h) gap, up to m = 2570.
        root = char_root_rightmost(SCALAR_A, SCALAR_B, SCALAR_TAU)
        for h, m in ((1e-3, 257), (2.5e-4, 1028), (1e-4, 2570)):
            coeffs = StepCoefficients.from_params(SCALAR_A, SCALAR_B, h)
            rho = spectral_radius(CompanionOperator(m, coeffs.alpha, coeffs.beta))
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
        coeffs = StepCoefficients.from_params(-0.15, -6.0, 0.05)
        op = CompanionOperator(m=4, alpha=coeffs.alpha, beta=coeffs.beta)
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


class TestPowerNormSums:
    def test_identity_sums_to_the_horizon(self):
        assert power_norm_sum(np.eye(3), 10) == 10.0

    def test_nilpotent_sums_to_one(self):
        assert power_norm_sum(np.zeros((2, 2)), 5) == 1.0

    def test_fast_route_matches_the_dense_route(self):
        coeffs = StepCoefficients.from_params(-0.15, -6.0, 0.04)
        op = CompanionOperator(m=5, alpha=coeffs.alpha, beta=coeffs.beta)
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


class TestFirstRowSequence:
    # m = 1 fills a chunk m + 1 = 2 steps at a time.  m = 4100 exceeds the
    # chunk, so every chunk is shorter than m + 1 steps and its tail reaches
    # back over earlier chunks.
    @pytest.mark.parametrize("m", [1, 257, 4100])
    def test_chunks_match_the_row_update_bit_for_bit(self, m):
        coeffs = StepCoefficients.from_params(SCALAR_A, SCALAR_B, 0.001)
        op = CompanionOperator(m=m, alpha=coeffs.alpha, beta=coeffs.beta)
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
        coeffs = StepCoefficients.from_params(SCALAR_A, SCALAR_B, 0.001)
        op = CompanionOperator(m=257, alpha=coeffs.alpha, beta=coeffs.beta)
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
        sums = [float(np.abs(np.concatenate(([heads[i]], window[m - i:2 * m - i]))).sum())
                for i in range(m + 1)]
        assert len(set(sums)) > 1
        assert stability._max_row_norm(heads, window, m) == max(sums)

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
            coeffs = StepCoefficients.from_params(-0.1 * (k + 1), -0.5, 0.05)
            op = CompanionOperator(m=3, alpha=coeffs.alpha, beta=coeffs.beta)
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
