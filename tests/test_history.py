"""Ring buffers, delay grids, and the transport-resolvent kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddesplit.errors import InsufficientHistoryError, ParameterError
from ddesplit.history import (
    DelayGrid,
    RingBuffer,
    _suffix_kernel_sums,
    delay_kernel_integral,
    delayed_value,
    init_from_history,
    l2_norm_trapezoid,
    segment_from_history,
    transport_resolvent_apply,
)
from ddesplit.oracle import poly_history


class TestDelayGrid:
    def test_integer_lag_snaps_to_exact_depth(self):
        # 0.257/0.001 lands at 256.99999999999997 in floating point.
        grid = DelayGrid(h=0.001, tau=-0.257)
        assert grid.m == 257
        assert grid.delta == 0.0
        assert grid.is_integer_lag

    def test_fractional_lag_splits_into_depth_and_offset(self):
        grid = DelayGrid(h=0.1, tau=-0.257)
        assert grid.m == 2
        assert grid.delta == pytest.approx(0.057, abs=1e-12)
        assert not grid.is_integer_lag

    @pytest.mark.parametrize("h,tau", [(0.0, -1.0), (-0.1, -1.0),
                                       (0.1, 0.0), (0.1, 0.5)])
    def test_invalid_parameters_rejected(self, h, tau):
        with pytest.raises(ParameterError):
            DelayGrid(h, tau)

    @pytest.mark.parametrize("h,tau,name", [
        (math.nan, -0.5, "h"), (math.inf, -0.5, "h"),
        (0.1, math.nan, "tau"), (0.1, -math.inf, "tau"),
    ])
    def test_non_finite_parameters_rejected(self, h, tau, name):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            DelayGrid(h, tau)

    def test_delay_shorter_than_step_rejected(self):
        with pytest.raises(ParameterError):
            DelayGrid(h=0.5, tau=-0.3)

    def test_depth_and_offset_reconstruct_the_delay(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            h = float(rng.uniform(0.01, 0.5))
            tau = -float(rng.uniform(h, 20.0 * h))
            grid = DelayGrid(h, tau)
            assert grid.m >= 1
            assert 0.0 <= grid.delta < h
            assert grid.m * h + grid.delta == pytest.approx(-tau, rel=1e-9)


class TestRingBuffer:
    def test_push_discards_oldest(self):
        buf = RingBuffer([1, 2, 3])
        buf.push(4)
        assert list(buf) == [2, 3, 4]
        assert buf.oldest == 2

    def test_capacity_two_full_overwrite(self):
        buf = RingBuffer(["x1", "x2"])
        buf.push("y1")
        buf.push("y2")
        assert list(buf) == ["y1", "y2"]

    def test_capacity_one_degenerate(self):
        buf = RingBuffer([5])
        buf.push(7)
        assert list(buf) == [7]
        assert buf.oldest == 7

    def test_empty_initializer_rejected(self):
        with pytest.raises(ParameterError):
            RingBuffer([])

    def test_len_is_capacity(self):
        assert len(RingBuffer([0.0] * 7)) == 7

    def test_fifo_shift_equivalence_on_random_sequences(self):
        # Oldest entry after k >= capacity pushes is the value pushed exactly
        # capacity steps earlier; delayed_value with delta = 0 reads it.
        rng = np.random.default_rng(314)
        for _ in range(25):
            cap = int(rng.integers(1, 12))
            grid = DelayGrid(h=1.0, tau=-float(cap))
            seq = rng.standard_normal(cap + int(rng.integers(5, 40)))
            buf = RingBuffer(list(seq[:cap]))
            for i in range(cap, seq.size):
                assert delayed_value(buf, grid) == seq[i - cap]
                buf.push(seq[i])

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_matches_a_list_fifo_after_every_push(self, cap, data):
        values = st.floats(-1e6, 1e6)
        fifo = data.draw(st.lists(values, min_size=cap, max_size=cap))
        pushes = data.draw(st.lists(values, max_size=40))
        buf = RingBuffer(fifo)
        on_grid = DelayGrid(h=1.0, tau=-float(cap))
        # m = cap - 1 and delta = h/4: the read brackets the two oldest entries.
        off_grid = DelayGrid(h=1.0, tau=-(cap - 0.75)) if cap >= 2 else None
        for value in pushes:
            buf.push(value)
            fifo = fifo[1:] + [value]
            assert list(buf) == fifo
            assert buf.oldest == fifo[0]
            assert [buf[k] for k in range(cap)] == fifo
            assert len(buf) == cap
            assert delayed_value(buf, on_grid) == fifo[0]
            if off_grid is not None:
                w = off_grid.delta / off_grid.h
                assert delayed_value(buf, off_grid) == w * fifo[0] + (1.0 - w) * fifo[1]


class TestInitFromHistory:
    def test_constant_history_fills_all_slots(self):
        grid = DelayGrid(h=0.25, tau=-1.0)
        buf = init_from_history(lambda t: 3.5, grid)
        assert list(buf) == [3.5] * 4

    def test_oldest_slot_samples_the_left_endpoint(self):
        grid = DelayGrid(h=0.25, tau=-1.0)
        buf = init_from_history(lambda t: t, grid)
        assert buf.oldest == -1.0
        assert list(buf) == pytest.approx([-1.0, -0.75, -0.5, -0.25])

    def test_polynomial_history_newest_slot_is_its_constant_term(self):
        # The run loop pushes u_0 = history(0) itself, so the newest slot of
        # an m = 8 grid holds the sample at t = -h.
        grid = DelayGrid(h=1.0, tau=-8.0)
        buf = init_from_history(poly_history, grid)
        assert len(buf) == 8
        assert buf[7] == poly_history(-1.0)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.floats(1e-4, 1.0), st.integers(1, 400),
           st.sampled_from([0.0, 1e-9, 2e-9, 1e-7, 0.5, 0.999, 1 - 2e-9, 1 - 1e-9]))
    def test_buffer_holds_what_the_delayed_read_needs(self, h, m, offset):
        # tau = -(m + offset) h: an integer lag, a fractional one, or a lag
        # near either side of a grid point, snapped or not.
        grid = DelayGrid(h, -(m + offset) * h)
        seen = []
        buf = init_from_history(lambda t: seen.append(t) or 2.0 * t + 1.0, grid)
        assert len(buf) == (grid.m if grid.is_integer_lag else grid.m + 1)
        assert max(seen) < 0.0
        assert seen == [grid.tau + j * grid.h for j in range(len(buf))]
        assert list(buf) == [2.0 * t + 1.0 for t in seen]


class TestDelayedValue:
    def test_integer_lag_returns_oldest(self):
        grid = DelayGrid(h=0.1, tau=-0.3)
        buf = RingBuffer([2.5, 0.0, 0.0])
        assert delayed_value(buf, grid) == 2.5

    def test_half_step_offset_is_the_midpoint(self):
        grid = DelayGrid(h=0.2, tau=-0.3)  # m = 1, delta = h/2
        assert grid.delta == pytest.approx(0.1)
        buf = RingBuffer([1.0, 3.0])
        assert delayed_value(buf, grid) == pytest.approx(2.0)

    def test_constant_buffer_invariant_under_offset(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            h = 0.2
            delta = float(rng.uniform(0.02, 0.18))
            m = int(rng.integers(1, 6))
            grid = DelayGrid(h, -(m * h + delta))
            buf = RingBuffer([4.2] * (m + 1))
            assert delayed_value(buf, grid) == pytest.approx(4.2, rel=1e-14)

    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_affine_contents_interpolate_exactly(self, frac):
        # Slots hold an affine function of time, spacing h, oldest first;
        # the read sits delta before the second slot.
        h, m = 0.2, 3
        delta = frac * h
        grid = DelayGrid(h, -(m * h + delta))
        c0, c1 = 0.7, -1.3
        buf = RingBuffer([c0 + c1 * (j * h) for j in range(m + 1)])
        expected = c0 + c1 * (h - delta)
        assert delayed_value(buf, grid) == pytest.approx(expected, rel=1e-13)

    def test_fractional_lag_needs_one_extra_slot(self):
        grid = DelayGrid(h=0.2, tau=-0.5)  # m = 2, delta > 0
        with pytest.raises(InsufficientHistoryError):
            delayed_value(RingBuffer([1.0, 2.0]), grid)


class TestSegmentFromHistory:
    def test_newest_sample_is_the_inflow(self):
        # 0.1 * arange(4) - 0.3 ends at 5.6e-17, so the last point is set to 0.
        grid = DelayGrid(h=0.1, tau=-0.3)
        seg = segment_from_history(lambda t: 1.0 if t == 0.0 else 2.0, grid)
        assert seg.tolist() == [2.0, 2.0, 2.0, 1.0]

    def test_samples_the_sigma_grid(self):
        grid = DelayGrid(h=0.5, tau=-2.0)
        seg = segment_from_history(lambda t: 2.0 * t, grid)
        assert seg == pytest.approx([-4.0, -3.0, -2.0, -1.0, 0.0])
        assert seg.dtype == float and seg.ndim == 1

    def test_rejects_fractional_lag(self):
        with pytest.raises(ParameterError):
            segment_from_history(lambda t: t, DelayGrid(0.2, -0.5))


class TestTransportResolvent:
    def test_homogeneous_case_is_the_exponential(self):
        # g = 0, f = 1: rho(sigma) = e^{sigma/h} on the grid.
        m, h = 5, 0.3
        rho = transport_resolvent_apply(1.0, np.zeros(m + 1))
        assert rho == pytest.approx(np.exp(np.arange(-m, 1)), rel=1e-14)

    @pytest.mark.parametrize("c,m", [(1.0, 1), (2.5, 4), (-0.7, 9)])
    def test_constant_history_closed_form(self, c, m):
        rho = transport_resolvent_apply(0.0, np.full(m + 1, c))
        sigma_over_h = np.arange(-m, 1, dtype=float)
        assert rho == pytest.approx(c * (1.0 - np.exp(sigma_over_h)),
                                           rel=1e-13, abs=1e-15)

    def test_trace_of_constant_history(self):
        rho = transport_resolvent_apply(0.0, np.full(4, 2.0))
        assert rho[0] == pytest.approx(2.0 * (1.0 - math.exp(-3.0)), rel=1e-13)

    def test_present_value_is_always_the_inflow(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = float(rng.standard_normal())
            g = rng.standard_normal(int(rng.integers(2, 30)))
            rho = transport_resolvent_apply(f, g)
            assert rho[-1] == f

    def test_maximum_principle_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            f = float(3.0 * rng.standard_normal())
            g = 3.0 * rng.standard_normal(int(rng.integers(2, 40)))
            rho = transport_resolvent_apply(f, g)
            bound = max(abs(f), float(np.abs(g).max()))
            assert np.abs(rho).max() <= bound + 1e-12

    def test_accepts_segment_input(self):
        seg = segment_from_history(lambda t: 1.0, DelayGrid(h=0.5, tau=-1.0))
        rho = transport_resolvent_apply(0.0, seg)
        assert rho[-1] == 0.0
        assert np.array_equal(rho, transport_resolvent_apply(0.0, [1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("g", [[1.0], [[1.0, 2.0]], []],
                             ids=["one-sample", "2-D", "empty"])
    def test_malformed_history_rejected(self, g):
        with pytest.raises(ParameterError):
            transport_resolvent_apply(1.0, g)


class TestTraceAtTau:
    def test_pure_inflow_trace_is_exponentially_small(self):
        m = 6
        rho = transport_resolvent_apply(1.0, np.zeros(m + 1))
        assert rho[0] == pytest.approx(math.exp(-m), rel=1e-13)

    def test_constant_segment_traces_to_its_value(self):
        seg = segment_from_history(lambda t: 3.3, DelayGrid(h=0.1, tau=-0.2))
        assert seg[0] == 3.3

    def test_unit_history_single_cell(self):
        # f = 0, g = 1, h = 1, tau = -1: rho(tau) = 1 - e^{-1}.
        rho = transport_resolvent_apply(0.0, np.ones(2))
        assert rho[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert rho[0] == pytest.approx(0.632121, abs=5e-7)


class TestKernelIntegral:
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_constant_integrand_closed_form(self, m):
        # int_tau^0 e^{(tau-s)/h} c ds = c h (1 - e^{tau/h}).
        h, c = 0.4, 1.7
        val = delay_kernel_integral(np.full(m + 1, c), h)
        assert val == pytest.approx(c * h * (1.0 - math.exp(-m)), rel=1e-13)

    def test_single_cell_unit_value(self):
        assert delay_kernel_integral(np.ones(2), 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-14)

    def test_empty_samples_rejected(self):
        with pytest.raises(ParameterError):
            delay_kernel_integral(np.array([]), 1.0)

    @pytest.mark.parametrize("g", [[5.0], [[1.0, 2.0]]], ids=["one-sample", "2-D"])
    def test_malformed_samples_rejected(self, g):
        # The segment check of the transport resolvent, which follows this
        # call in every kernel step.
        with pytest.raises(ParameterError):
            delay_kernel_integral(g, 1.0)


def _numpy_scalar_suffix_sums(g):
    """The kernel recurrence one float64 numpy scalar at a time."""
    e1 = np.exp(-1.0)
    w = e1 * g[:-1] + (1.0 - 2.0 * e1) * g[1:]
    J = np.zeros(g.size)
    for i in range(g.size - 2, -1, -1):
        J[i] = w[i] + e1 * J[i + 1]
    return J


class TestKernelFastPathBits:
    """The Python-float recurrence rounds exactly as the numpy-scalar one."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1),
           st.floats(-1e200, 1e200), st.floats(1e-4, 10.0))
    def test_equal_to_the_numpy_scalar_recurrence(self, m, seed, f, h):
        # Signed samples with magnitudes from 1e-200 to 1e200, a tenth of them zero.
        rng = np.random.default_rng(seed)
        g = rng.choice([-1.0, 1.0], m + 1) * 10.0 ** rng.uniform(-200.0, 200.0, m + 1)
        g[rng.random(m + 1) < 0.1] = 0.0
        J = _numpy_scalar_suffix_sums(g)
        assert np.array_equal(_suffix_kernel_sums(g), J)
        integral = delay_kernel_integral(g, h)
        assert type(integral) is float
        assert integral == float(h * J[0])
        rho = transport_resolvent_apply(f, g)
        assert np.array_equal(rho, np.exp(-1.0) ** np.arange(m, -1, -1) * f + J)

    def test_results_for_one_depth_do_not_share_memory(self):
        # The power vector is kept per depth; writing to one result must
        # not reach the next call's.
        first = transport_resolvent_apply(1.0, np.zeros(4))
        first[:] = 7.0
        second = transport_resolvent_apply(1.0, np.zeros(4))
        assert np.array_equal(second, np.exp(-1.0) ** np.arange(3, -1, -1))

    def test_non_finite_samples_propagate_as_before(self):
        g = np.array([1.0, np.inf, -np.inf, 2.0, np.nan, 3.0])
        with np.errstate(invalid="ignore"):
            J = _numpy_scalar_suffix_sums(g)
            assert np.array_equal(_suffix_kernel_sums(g), J, equal_nan=True)
            assert math.isnan(delay_kernel_integral(g, 0.1))


class TestL2Trapezoid:
    def test_constant_segment(self):
        # |c| sqrt(|tau|) over m cells of width h.
        assert l2_norm_trapezoid(np.full(5, -2.0), 0.25) == pytest.approx(
            2.0 * math.sqrt(1.0), rel=1e-14)

    def test_linear_ramp_hand_value(self):
        assert l2_norm_trapezoid(np.array([0.0, 1.0]), 1.0) == pytest.approx(
            math.sqrt(0.5), rel=1e-14)


def test_trace_bound_on_random_triples():
    """|rho(tau)| <= |f| + (2h)^{-1/2} ||g||_L2 on random inputs."""
    rng = np.random.default_rng(1203)
    for _ in range(300):
        h = float(rng.uniform(0.005, 2.0))
        f = float(5.0 * rng.standard_normal())
        g = 5.0 * rng.standard_normal(int(rng.integers(2, 50)))
        rho = transport_resolvent_apply(f, g)
        bound = abs(f) + l2_norm_trapezoid(g, h) / math.sqrt(2.0 * h)
        assert abs(rho[0]) <= bound + 1e-12
