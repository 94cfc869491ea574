"""Quadrature benchmark solution, its residual check, and the history fit."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from ddesplit.errors import ParameterError
from ddesplit.oracle import (
    POLY10_COEFFS,
    OhiraParams,
    oo_integrand,
    oo_residual,
    oo_solution,
    poly_history,
)

BENCH = OhiraParams(a=-0.15, b=-6.0, tau=-8.0)
PURE_GAUSSIAN = OhiraParams(a=-0.15, b=0.0, tau=-8.0)


class TestOhiraParams:
    @pytest.mark.parametrize("bad", [
        dict(a=0.0), dict(a=0.2), dict(tau=0.0), dict(tau=1.0),
        dict(omega_max=0.0), dict(omega_max=-1.0),
        dict(n_nodes=1), dict(n_nodes=2000),
    ])
    def test_invalid_parameters_rejected(self, bad):
        kw = dict(a=-0.15, b=-6.0, tau=-8.0)
        kw.update(bad)
        with pytest.raises(ParameterError):
            OhiraParams(**kw)

    @pytest.mark.parametrize("name", ["a", "b", "tau", "omega_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        kw = dict(a=-0.15, b=-6.0, tau=-8.0)
        kw[name] = value
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            OhiraParams(**kw)

    def test_exponent_bound_of_the_benchmark(self):
        assert BENCH.exponent_bound == pytest.approx(-48.333, abs=1e-3)

    def test_insufficient_truncation_rejected(self):
        with pytest.raises(ParameterError, match="truncation criterion unmet"):
            OhiraParams(a=-0.15, b=-6.0, tau=-8.0, omega_max=2.0)

    def test_parameters_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BENCH.a = -1.0


class TestIntegrand:
    def test_zero_frequency_value(self):
        # amp = exp(b/(a tau)), phase = 0.
        val = oo_integrand(0.0, 0.0, BENCH)
        assert val == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert val == pytest.approx(0.00673795, abs=5e-9)

    def test_uncoupled_form_is_a_gaussian_times_cosine(self):
        w = np.linspace(0.0, 4.0, 17)
        t = 1.3
        vals = oo_integrand(w, t, PURE_GAUSSIAN)
        expected = np.exp(w ** 2 / (2.0 * -0.15)) * np.cos(w * t)
        assert vals == pytest.approx(expected, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("t", [0.0, 0.7, -2.0, 5.5])
    def test_even_in_frequency(self, t):
        w = np.linspace(0.1, 4.0, 9)
        assert oo_integrand(w, t, BENCH) == pytest.approx(
            oo_integrand(-w, t, BENCH), rel=1e-15)

    def test_scalar_inputs_give_a_plain_float(self):
        assert isinstance(oo_integrand(0.5, 1.0, BENCH), float)


class TestSolution:
    def test_uncoupled_value_at_zero(self):
        val = oo_solution(0.0, PURE_GAUSSIAN)
        assert val == pytest.approx(math.sqrt(0.15 / (2.0 * math.pi)),
                                    rel=1e-10)

    def test_uncoupled_solution_is_a_gaussian(self):
        t = np.linspace(0.0, 6.0, 61)
        scale = math.sqrt(0.15 / (2.0 * math.pi))
        expected = scale * np.exp(-0.15 * t ** 2 / 2.0)
        gap = np.abs(oo_solution(t, PURE_GAUSSIAN) - expected).max()
        assert gap <= 1e-10

    def test_benchmark_value_at_zero(self):
        val = oo_solution(0.0, BENCH)
        assert val == pytest.approx(0.148151811720, abs=1e-9)
        assert val == pytest.approx(0.14815, abs=5e-6)

    def test_node_doubling_leaves_the_value(self):
        fine = OhiraParams(a=-0.15, b=-6.0, tau=-8.0, n_nodes=4001)
        for t in (0.0, 1.0, 4.0):
            assert abs(oo_solution(t, BENCH)
                       - oo_solution(t, fine)) < 1e-10

    def test_half_line_folding_matches_the_symmetric_grid(self):
        p = BENCH
        full = np.linspace(-p.omega_max, p.omega_max, 2 * p.n_nodes - 1)
        for t in (0.0, 2.5):
            direct = simpson(oo_integrand(full, t, p), x=full) / (2.0 * math.pi)
            assert oo_solution(t, p) == pytest.approx(direct, abs=1e-12)

    def test_array_argument_matches_per_scalar_calls(self):
        t = np.array([0.0, 1.0, 2.0, 7.5])
        arr = oo_solution(t, BENCH)
        assert arr.shape == (4,)
        for ti, vi in zip(t, arr):
            assert vi == oo_solution(float(ti), BENCH)

    def test_scalar_argument_gives_a_plain_float(self):
        assert isinstance(oo_solution(1.0, BENCH), float)


class TestResidual:
    def test_benchmark_residual_is_small(self):
        assert oo_residual(1.0, BENCH) <= 1e-5

    def test_residual_shrinks_quadratically_in_the_width(self):
        # With b = 0 the quadrature is exact to rounding, so the residual
        # is pure central-difference error, O(dt^2).
        widths = [1e-2, 5e-3, 2.5e-3]
        res = [oo_residual(2.0, PURE_GAUSSIAN, dt=dt) for dt in widths]
        for coarse, fine in zip(res, res[1:]):
            assert 3.6 <= coarse / fine <= 4.4

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ParameterError):
            oo_residual(1.0, BENCH, dt=0.0)


class TestPolyHistory:
    def test_value_at_zero_is_the_constant_coefficient(self):
        assert poly_history(0.0) == 0.14815

    def test_value_at_minus_one(self):
        expected = sum(c * (-1.0) ** k for k, c in enumerate(POLY10_COEFFS))
        assert poly_history(-1.0) == pytest.approx(expected, rel=1e-15)
        assert poly_history(-1.0) == pytest.approx(0.141561, abs=5e-7)

    def test_horner_matches_the_naive_sum(self):
        t = np.linspace(-2.0, 0.0, 101)
        naive = sum(c * t ** k for k, c in enumerate(POLY10_COEFFS))
        assert np.abs(poly_history(t) - naive).max() <= 1e-15
        # Near t = -8 the alternating terms cancel ~5 digits, so only a
        # looser absolute agreement is meaningful there.
        t = np.linspace(-8.0, 0.0, 101)
        naive = sum(c * t ** k for k, c in enumerate(POLY10_COEFFS))
        assert np.abs(poly_history(t) - naive).max() <= 1e-11

    def test_warns_outside_the_fit_range(self):
        for t in (-9.0, 0.5, 1, np.float64(0.25), np.array(-9.0), np.array([-1.0, 0.1])):
            with pytest.warns(UserWarning, match="fit range"):
                poly_history(t)

    def test_silent_inside_the_fit_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            poly_history(-4.0)
            poly_history(np.linspace(-8.0, 0.0, 11))

    def test_array_argument_matches_per_scalar_calls(self):
        t = np.linspace(-8.0, 0.0, 9)
        arr = poly_history(t)
        assert arr == pytest.approx([poly_history(float(ti)) for ti in t],
                                    rel=1e-15)

    def test_scalar_path_equals_the_array_path_bit_for_bit(self):
        t = np.linspace(-8.0, 0.0, 1601)
        scalars = [poly_history(ti) for ti in t.tolist()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(scalars, poly_history(t))
        assert poly_history(np.float64(-3.3)) == poly_history(np.array([-3.3]))[0]
        assert type(poly_history(np.array(-3.3))) is float
        assert poly_history(-2) == poly_history(-2.0)

    def test_fit_tracks_the_quadrature_solution(self):
        t = np.linspace(-8.0, 0.0, 200)
        gap = np.abs(oo_solution(t, BENCH) - poly_history(t)).max()
        assert gap <= 3.0e-3

    def test_coefficient_count(self):
        assert len(POLY10_COEFFS) == 11
