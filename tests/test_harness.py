"""Order studies, growth fits, root finding, profiles, and timing reports."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import ddesplit.harness as harness
from ddesplit.errors import FitError, ParameterError
from ddesplit.harness import (
    ConvergenceReport,
    GrowthFit,
    RuntimeReport,
    char_root_rightmost,
    compare_runtime,
    convergence_study,
    exp_growth_fit,
)
from ddesplit.history import DelayGrid
from ddesplit.oracle import poly_history
from ddesplit.pde import PdeProblem
from ddesplit.scalar import RunResult, ScalarDelayProblem, SchemeConfig, run

from conftest import SCALAR_A, SCALAR_B


def _osc_field(t, x):
    return 0.3 + 0.2 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * t)


class TestReportSerialization:
    def test_convergence_report_keys(self):
        rep = ConvergenceReport(h_values=np.array([0.1, 0.05]),
                                errors=np.array([1e-2, 5e-3]),
                                slope=1.0, intercept=-2.3)
        data = rep.to_json()
        assert set(data) == {"h", "error", "slope", "intercept", "degenerate"}
        assert data["h"] == [0.1, 0.05]
        assert data["degenerate"] is False
        assert all(isinstance(v, float) for v in data["error"])

    def test_growth_fit_keys(self):
        data = GrowthFit(logM=-0.7, omega=0.3, window=(50.0, 200.0)).to_json()
        assert data == {"logM": -0.7, "omega": 0.3, "window": [50.0, 200.0]}

    def test_runtime_report_keys(self):
        data = RuntimeReport(seconds={"ie": 0.5, "lt": 0.1}, ratio=5.0,
                             repetitions=3).to_json()
        assert data == {"ie": 0.5, "lt": 0.1, "ratio": 5.0}


class TestConvergenceStudy:
    def test_scheme_gap_is_first_order(self):
        prob = ScalarDelayProblem(a=SCALAR_A, b=SCALAR_B, tau=-8.0,
                                  history=poly_history)
        rep = convergence_study(prob, ("ie", "lt"),
                                [0.1, 0.05, 0.025, 0.0125], T=20.0)
        assert 0.9 <= rep.slope <= 1.1
        ratios = rep.errors[:-1] / rep.errors[1:]
        assert np.all((1.8 <= ratios) & (ratios <= 2.2))
        assert not rep.degenerate

    @pytest.mark.parametrize("pair", [("ie", "ie-kernel"), ("lt", "lt-kernel")])
    def test_kernel_and_grid_realizations_converge_together(self, pair):
        prob = ScalarDelayProblem(a=-0.5, b=-1.0, tau=-0.2,
                                  history=lambda t: math.cos(t))
        rep = convergence_study(prob, pair, [0.04, 0.02, 0.01, 0.005], T=4.0)
        assert 0.8 <= rep.slope <= 1.2

    def test_identical_variants_are_degenerate(self):
        # b = 0 makes the two schemes bit-identical, so every gap is zero.
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        rep = convergence_study(prob, ("ie", "lt"), [0.1, 0.05, 0.025], T=1.0)
        assert rep.degenerate
        assert np.all(rep.errors == 0.0)
        assert math.isnan(rep.slope)

    def test_too_few_steps_rejected(self):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError):
            convergence_study(prob, ("ie", "lt"), [0.1, 0.05], T=1.0)

    def test_non_decreasing_steps_rejected(self):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError):
            convergence_study(prob, ("ie", "lt"), [0.1, 0.1, 0.05], T=1.0)

    @pytest.mark.parametrize("h_list", [[0.1, 0.05, math.nan], [math.inf, 0.1, 0.05],
                                        [0.1, 0.05, 0.0], [0.1, 0.05, -0.025]])
    def test_non_finite_or_non_positive_steps_rejected(self, h_list):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError, match="finite and positive"):
            convergence_study(prob, ("ie", "lt"), h_list, T=1.0)

    def test_non_subdividing_steps_rejected(self):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError):
            convergence_study(prob, ("ie", "lt"), [0.1, 0.07, 0.05], T=1.0)

    @pytest.mark.parametrize("pair", [("ie", "rk4"), ("ie-fast", "lt"),
                                      ("ie-kernel-x", "lt")])
    def test_unknown_variant_rejected(self, pair):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError):
            convergence_study(prob, pair, [0.1, 0.05, 0.025], T=1.0)

    @pytest.mark.parametrize("variants", [("ie",), ("ie", "lt", "ie-kernel")])
    def test_other_than_two_variants_rejected(self, variants):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError, match=f"exactly two variants, got {len(variants)}"):
            convergence_study(prob, variants, [0.1, 0.05, 0.025], T=1.0)

    @pytest.mark.parametrize("pair", [("ie", "ie-grid"), ("lt-kernel", "lt-kernel")])
    def test_identical_variants_rejected(self, pair):
        prob = ScalarDelayProblem(a=-1.0, b=0.0, tau=-0.5,
                                  history=lambda t: 1.0)
        with pytest.raises(ParameterError, match=(
                f"the two variants are the same: '{pair[0]}' and '{pair[1]}'")):
            convergence_study(prob, pair, [0.1, 0.05, 0.025], T=1.0)


class _Ran(Exception):
    """Raised by a spied ``run``: the study got past its checks."""


def _spy_on_run(monkeypatch) -> list:
    """Replace the harness's ``run`` by a spy that logs its config and raises ``_Ran``."""
    calls = []

    def spy(problem, config):
        calls.append(config)
        raise _Ran

    monkeypatch.setattr(harness, "run", spy)
    return calls


class TestOneSnapRule:
    """Delay depths, step counts and order-study strides snap by one rule."""

    PROBLEM = ScalarDelayProblem(a=-1.0, b=-0.5, tau=-0.5, history=lambda t: 1.0)

    @staticmethod
    def _delay_grid_snaps(k, ratio):
        try:
            grid = DelayGrid(h=0.01, tau=-0.01 * ratio)
        except ParameterError:
            return False
        return grid.is_integer_lag and grid.m == k

    @staticmethod
    def _config_accepts(k, ratio):
        try:
            return SchemeConfig(h=0.01, T=0.01 * ratio).n_steps == k
        except ParameterError:
            return False

    def _study_accepts(self, monkeypatch, ratio):
        calls = _spy_on_run(monkeypatch)
        try:
            convergence_study(self.PROBLEM, ("ie", "lt"), [0.01, 0.005, 0.0025],
                              T=0.01 * ratio)
        except _Ran:
            return True
        except ParameterError:
            assert calls == []
            return False
        raise AssertionError("the spied run was never reached")

    @pytest.mark.parametrize("k", [1, 3, 257, 4000])
    @pytest.mark.parametrize("rel, snaps", [(0.5e-9, True), (-0.5e-9, True),
                                            (2e-9, False), (-2e-9, False)])
    def test_all_three_agree(self, monkeypatch, k, rel, snaps):
        ratio = k * (1.0 + rel)
        assert self._delay_grid_snaps(k, ratio) is snaps
        assert self._config_accepts(k, ratio) is snaps
        assert self._study_accepts(monkeypatch, ratio) is snaps

    def test_study_rejects_a_last_step_that_does_not_subdivide_the_first(self, monkeypatch):
        calls = _spy_on_run(monkeypatch)
        with pytest.raises(ParameterError, match="does not subdivide"):
            convergence_study(self.PROBLEM, ("ie", "lt"), [0.1, 0.05, 0.03], T=1.5)
        assert calls == []

    def test_study_rejects_a_last_step_that_does_not_divide_the_horizon(self, monkeypatch):
        # T/h0 and h0/h each sit 0.9e-9 off an integer, so each snaps, but
        # T/h sits 1.8e-9 off: only the finest configuration is rejected.
        calls = _spy_on_run(monkeypatch)
        h0 = 0.01
        with pytest.raises(ParameterError, match="does not divide"):
            convergence_study(self.PROBLEM, ("ie", "lt"),
                              [h0, h0 / 2, h0 / (4 * (1 + 0.9e-9))],
                              T=3 * h0 * (1 + 0.9e-9))
        assert calls == []


class TestGrowthFit:
    def test_recovers_an_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        series = RunResult(times=t, values=0.5 * np.exp(0.1 * t),
                           scheme="synthetic")
        fit = exp_growth_fit(series, t_start=2.0)
        assert fit.omega == pytest.approx(0.1, abs=1e-12)
        assert fit.logM == pytest.approx(math.log(0.5), abs=1e-12)
        assert fit.window == (2.0, 10.0)

    def test_too_few_samples_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        series = RunResult(times=t, values=np.exp(t), scheme="synthetic")
        with pytest.raises(FitError):
            exp_growth_fit(series, t_start=9.95)

    @pytest.mark.parametrize("t_start", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_start_rejected(self, t_start):
        t = np.linspace(0.0, 10.0, 101)
        series = RunResult(times=t, values=np.exp(t), scheme="synthetic")
        with pytest.raises(ParameterError, match="t_start must be finite"):
            exp_growth_fit(series, t_start=t_start)

    def test_zero_samples_are_dropped_not_logged(self):
        t = np.linspace(0.0, 1.0, 11)
        values = np.exp(t)
        values[3] = 0.0
        series = RunResult(times=t, values=values, scheme="synthetic")
        fit = exp_growth_fit(series, t_start=0.0)
        assert fit.omega == pytest.approx(1.0, abs=1e-10)


def _other_branch_roots(a, b, tau):
    """Roots a - W_k(z) / tau, z = -b tau e^{a tau}, on the branches k = ±1..±20."""
    log_abs_z = math.log(abs(b)) + math.log(-tau) + a * tau
    ks = [k for k in range(-20, 21) if k != 0]
    if abs(log_abs_z) < 700.0:
        z = math.copysign(math.exp(log_abs_z), b)
        return [a - complex(lambertw(z, k)) / tau for k in ks]
    # z overflows or underflows; then W_k solves w + log w = log z + 2 pi i k.
    roots = []
    for k in ks:
        log_z = complex(log_abs_z, (math.pi if b < 0 else 0.0) + 2.0 * math.pi * k)
        w = log_z - cmath.log(log_z)
        for _ in range(20):
            w -= (w + cmath.log(w) - log_z) * w / (w + 1.0)
        roots.append(a - w / tau)
    return roots


class TestCharacteristicRoot:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(-20.0, 20.0), st.floats(-10.0, -0.003))
    @example(-1.0, -10.0, -2.0)
    @example(-100.0, -6.0, -8.0)
    @example(-1000.0, -6.0, -8.0)
    @example(-0.5, 0.0, -1.0)
    @example(0.0, 1.0, -1.0)
    def test_principal_branch_root_is_rightmost(self, a, b, tau):
        root = char_root_rightmost(a, b, tau)
        assert root.imag >= 0.0
        if b == 0.0:
            assert root == a
            return
        term = b * cmath.exp(root * tau)
        # Rounding reaches the residual magnified by its derivative in the
        # root, 1 + w with w = (a - root) tau, and by the three terms of
        # log|z| = log|b| + log(-tau) + a tau, which the root is formed from.
        # A subnormal z carries an absolute error, which the root divides by tau.
        magnify = (1.0 + abs((a - root) * tau) + abs(math.log(abs(b)))
                   + abs(math.log(-tau)) + abs(a * tau))
        scale = max(abs(root), abs(a), abs(term))
        floor = np.finfo(float).smallest_subnormal * (1.0 - 1.0 / tau)
        tol = 16.0 * (np.finfo(float).eps * magnify * scale + floor)
        assert abs(root - a - term) <= tol
        for other in _other_branch_roots(a, b, tau):
            assert root.real >= other.real - 1e-12 * max(1.0, abs(other))

    def test_overflowing_argument_keeps_the_box_search_root(self):
        # |z| = |b tau| e^{a tau} = 48 e^{800} overflows a double.
        root = char_root_rightmost(-100.0, -6.0, -8.0)
        assert root == pytest.approx(-0.351237488073 + 0.392207097325j, abs=1e-9)

    def test_benchmark_root(self):
        root = char_root_rightmost(-0.15, -6.0, -8.0)
        assert root == pytest.approx(0.29892576384841385 + 0.3160265886485651j,
                                     abs=1e-9)
        residual = abs(root - (-0.15) - (-6.0) * np.exp(root * -8.0))
        assert residual < 1e-12

    def test_uncoupled_root_is_the_coefficient(self):
        root = char_root_rightmost(-0.5, 0.0, -1.0)
        assert root.real == pytest.approx(-0.5, abs=1e-12)
        assert root.imag == pytest.approx(0.0, abs=1e-12)

    def test_unit_delay_fixed_point(self):
        # lambda = exp(-lambda) has the real solution W(1).
        root = char_root_rightmost(0.0, 1.0, -1.0)
        assert root.real == pytest.approx(0.567143290, abs=1e-8)
        assert root.imag == pytest.approx(0.0, abs=1e-8)

    def test_positive_delay_rejected(self):
        with pytest.raises(ParameterError):
            char_root_rightmost(-0.15, -6.0, 0.5)

    @pytest.mark.parametrize("a, b, tau", [(math.nan, -6.0, -8.0),
                                           (-0.15, math.inf, -8.0),
                                           (-0.15, -6.0, math.nan)])
    def test_non_finite_input_rejected(self, a, b, tau):
        with pytest.raises(ParameterError, match="must be finite"):
            char_root_rightmost(a, b, tau)


class TestErrorProfile:
    def test_scheme_gap_swells_then_fades(self):
        # With a(t) = a*t the late ramp is strongly dissipative, so the
        # inter-scheme gap rises from zero, peaks, and dies back down.
        prob = ScalarDelayProblem(a=SCALAR_A, b=SCALAR_B, tau=-8.0,
                                  history=poly_history, a_mode="linear")
        cfg = dict(h=0.1, T=80.0)
        ie = run(prob, SchemeConfig(scheme="ie", **cfg))
        lt = run(prob, SchemeConfig(scheme="lt", **cfg))
        profile = np.abs(ie.values - lt.values)
        assert profile[0] == 0.0
        peak = int(np.argmax(profile))
        assert 0 < peak < profile.size - 1
        assert profile[-1] < 0.15 * profile[peak]


class TestCompareRuntime:
    def test_scalar_smoke(self):
        prob = ScalarDelayProblem(a=-0.3, b=-1.0, tau=-0.5,
                                  history=lambda t: 1.0)
        pair = (SchemeConfig(h=0.05, T=1.0, scheme="ie"),
                SchemeConfig(h=0.05, T=1.0, scheme="lt"))
        rep = compare_runtime(prob, pair)
        assert set(rep.seconds) == {"ie", "lt"}
        assert rep.ratio > 0.0
        assert rep.repetitions == 3

    def test_field_dispatch(self):
        prob = PdeProblem(kappa=0.02, lambda0=-0.8, b=-0.8, tau=-0.6,
                          Nx=4, history=_osc_field)
        pair = (SchemeConfig(h=0.1, T=0.5, scheme="ie"),
                SchemeConfig(h=0.1, T=0.5, scheme="lt"))
        rep = compare_runtime(prob, pair)
        assert set(rep.seconds) == {"ie", "lt"}
        assert rep.ratio > 0.0

    def test_one_scheme_in_two_delay_modes_keeps_both_entries(self):
        prob = ScalarDelayProblem(a=-0.3, b=-1.0, tau=-0.5,
                                  history=lambda t: 1.0)
        pair = (SchemeConfig(h=0.1, T=0.5, scheme="ie", delay_mode="grid"),
                SchemeConfig(h=0.1, T=0.5, scheme="ie", delay_mode="kernel"))
        rep = compare_runtime(prob, pair)
        assert set(rep.seconds) == {"ie-grid", "ie-kernel"}
        assert rep.ratio == rep.seconds["ie-grid"] / rep.seconds["ie-kernel"]

    def test_one_scheme_at_two_steps_keeps_both_entries(self):
        prob = ScalarDelayProblem(a=-0.3, b=-1.0, tau=-0.5,
                                  history=lambda t: 1.0)
        pair = (SchemeConfig(h=0.1, T=0.5, scheme="lt"),
                SchemeConfig(h=0.05, T=0.5, scheme="lt"))
        rep = compare_runtime(prob, pair)
        assert set(rep.seconds) == {"lt-h0.1-T0.5", "lt-h0.05-T0.5"}

    def test_identical_configurations_rejected(self):
        prob = ScalarDelayProblem(a=-0.3, b=-1.0, tau=-0.5,
                                  history=lambda t: 1.0)
        cfg = SchemeConfig(h=0.1, T=0.5, scheme="ie")
        with pytest.raises(ParameterError,
                           match="the two configurations are the same: "):
            compare_runtime(prob, (cfg, SchemeConfig(h=0.1, T=0.5, scheme="ie")))

    @pytest.mark.parametrize("schemes", [("ie",), ("ie", "lt", "ie")])
    def test_other_than_two_configurations_rejected(self, schemes):
        prob = ScalarDelayProblem(a=-0.3, b=-1.0, tau=-0.5,
                                  history=lambda t: 1.0)
        configs = [SchemeConfig(h=0.1, T=0.5, scheme=s) for s in schemes]
        with pytest.raises(ParameterError,
                           match=f"exactly two configurations, got {len(schemes)}"):
            compare_runtime(prob, configs)

    def test_too_few_repetitions_rejected(self):
        prob = ScalarDelayProblem(a=-0.3, b=-1.0, tau=-0.5,
                                  history=lambda t: 1.0)
        pair = (SchemeConfig(h=0.1, T=0.5, scheme="ie"),
                SchemeConfig(h=0.1, T=0.5, scheme="lt"))
        with pytest.raises(ParameterError):
            compare_runtime(prob, pair, repetitions=2)
