"""Experiment drivers: order studies, growth fits, timing.

Everything here consumes the scheme runners and produces small, JSON-able
report objects.  Fits are plain least squares with no randomized pieces, so
reports are deterministic for identical inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from statistics import median
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .errors import FitError, ParameterError, require_finite
from .history import snap_ratio
from .pde import PdeProblem, run_pde
from .scalar import RunResult, ScalarDelayProblem, SchemeConfig, run


@dataclass
class ConvergenceReport:
    """Log-log order measurement of the gap between two scheme variants."""

    h_values: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    degenerate: bool = False

    def to_json(self) -> dict:
        return {
            "h": [float(v) for v in self.h_values],
            "error": [float(v) for v in self.errors],
            "slope": self.slope,
            "intercept": self.intercept,
            "degenerate": self.degenerate,
        }


@dataclass
class GrowthFit:
    """Line fit of log|u(t)| over a trailing window [t_start, T]."""

    logM: float
    omega: float
    window: Tuple[float, float]

    def to_json(self) -> dict:
        return {"logM": self.logM, "omega": self.omega,
                "window": [self.window[0], self.window[1]]}


@dataclass
class RuntimeReport:
    """Median wall-clock seconds per configuration label and their ratio."""

    seconds: Dict[str, float]
    ratio: float
    repetitions: int

    def to_json(self) -> dict:
        out = {k: v for k, v in self.seconds.items()}
        out["ratio"] = self.ratio
        return out


def _two(pair, what: str, parse=lambda item: item) -> tuple:
    """The two ``what`` in ``pair``, each through ``parse``, checked to differ."""
    pair = tuple(pair)
    if len(pair) != 2:
        raise ParameterError(f"need exactly two {what}, got {len(pair)}: {pair!r}")
    first, second = map(parse, pair)
    if first == second:
        raise ParameterError(f"the two {what} are the same: "
                             f"{pair[0]!r} and {pair[1]!r}")
    return first, second


def _parse_variant(tag: str) -> Tuple[str, str]:
    """Split a scheme tag like "ie" or "lt-kernel" into (scheme, mode)."""
    scheme, dash, mode = tag.partition("-")
    if scheme not in ("ie", "lt") or (dash and mode not in ("grid", "kernel")):
        raise ParameterError(f"unknown scheme variant {tag!r}")
    return scheme, mode or "grid"


def convergence_study(problem: ScalarDelayProblem,
                      scheme_pair: Tuple[str, str],
                      h_list: Sequence[float],
                      T: float) -> ConvergenceReport:
    """Measure how fast two scheme variants approach each other as h shrinks.

    For each h both variants are run to the shared horizon T and compared in
    sup norm on the coarsest grid (every finer step must subdivide the
    coarsest one).  The fitted log-log slope estimates the order of the gap;
    identically-zero gaps are reported as a degenerate fit instead of a
    meaningless line.
    """
    variants = _two(scheme_pair, "variants", _parse_variant)
    hs = np.asarray(list(h_list), dtype=float)
    if hs.size < 3:
        raise ParameterError("need at least 3 step sizes for a slope")
    if not np.all(np.isfinite(hs) & (hs > 0)):
        raise ParameterError(f"step sizes must be finite and positive, got {hs.tolist()}")
    if np.any(np.diff(hs) >= 0):
        raise ParameterError("step sizes must be strictly decreasing")
    h0 = hs[0]
    # Every step and configuration is checked before the first run.
    strides = [snap_ratio(h0 / h) for h in hs]
    if None in strides:
        raise ParameterError(f"h={hs[strides.index(None)]} does not subdivide "
                             f"the coarsest h={h0}")
    configs = [[SchemeConfig(h=float(h), T=T, scheme=scheme, delay_mode=mode)
                for scheme, mode in variants] for h in hs]
    idx0 = np.arange(configs[0][0].n_steps + 1)
    errors = np.empty(hs.size)
    for i, (stride, pair) in enumerate(zip(strides, configs)):
        first, second = (run(problem, cfg).values[stride * idx0] for cfg in pair)
        errors[i] = float(np.max(np.abs(first - second)))
    if np.any(errors <= 0.0):
        return ConvergenceReport(h_values=hs, errors=errors,
                                 slope=math.nan, intercept=math.nan,
                                 degenerate=True)
    slope, intercept = np.polyfit(np.log(hs), np.log(errors), 1)
    return ConvergenceReport(h_values=hs, errors=errors,
                             slope=float(slope), intercept=float(intercept))


def exp_growth_fit(series: RunResult, t_start: float) -> GrowthFit:
    """Fit log|u(t)| = logM + omega t over the window t >= t_start.

    Samples with |u| <= 1e-300 are dropped to keep the logarithm finite;
    fewer than 3 usable samples is an error rather than a junk fit.
    """
    require_finite(t_start=t_start)
    t = series.times
    u = np.abs(series.values)
    mask = (t >= t_start) & (u > 1e-300)
    if int(mask.sum()) < 3:
        raise FitError(f"only {int(mask.sum())} usable samples at t >= {t_start}")
    omega, logM = np.polyfit(t[mask], np.log(u[mask]), 1)
    return GrowthFit(logM=float(logM), omega=float(omega),
                     window=(float(t_start), float(t[-1])))


def char_root_rightmost(a: float, b: float, tau: float) -> complex:
    """Rightmost root of lambda = a + b exp(lambda tau) for tau < 0.

    With w = (a - lambda) tau the equation reads w e^w = z, z = -b tau
    e^{a tau}, so the roots are a - W_k(z) / tau over the Lambert-W branches
    k.  For real a, b and tau the principal branch W_0 gives the largest real
    part (Shinozaki & Mori, Automatica 42, 2006).  Where z overflows a
    double, W_0 solves w + log w = log z by Newton's method from
    log z - log log z instead.  Conjugate roots are equivalent for growth
    rates; the one with Im >= 0 is returned.
    """
    require_finite(a=a, b=b, tau=tau)
    if tau >= 0:
        raise ParameterError(f"delay must be negative, got {tau}")
    if b == 0:
        return complex(a, 0.0)
    log_abs_z = math.log(abs(b)) + math.log(-tau) + a * tau
    if log_abs_z < 709.0:  # e^709.78 is the largest double
        # Imported here: `ddesplit stability` loads this module but no scipy.
        from scipy.special import lambertw
        w = complex(lambertw(math.copysign(math.exp(log_abs_z), b)))
    else:
        log_z = complex(log_abs_z, math.pi if b < 0 else 0.0)
        w = log_z - cmath.log(log_z)
        for _ in range(3):  # relative steps 1e-5, 1e-13, then rounding
            w -= (w + cmath.log(w) - log_z) * w / (w + 1.0)
    root = a - w / tau
    return complex(root.real, abs(root.imag))


def _runtime_labels(config_pair: Tuple[SchemeConfig, SchemeConfig]) -> Tuple[str, str]:
    """One label per configuration: its scheme, plus what tells two of one scheme apart."""
    first, second = config_pair
    if first.scheme != second.scheme:
        return first.scheme, second.scheme
    if first.delay_mode != second.delay_mode:
        return tuple(f"{cfg.scheme}-{cfg.delay_mode}" for cfg in config_pair)
    return tuple(f"{cfg.scheme}-h{cfg.h!r}-T{cfg.T!r}" for cfg in config_pair)


def compare_runtime(problem: Union[ScalarDelayProblem, PdeProblem],
                    config_pair: Tuple[SchemeConfig, SchemeConfig],
                    repetitions: int = 3) -> RuntimeReport:
    """Median wall-clock comparison of two configurations on one problem.

    One warm-up run per configuration is discarded (imports, caches), then
    ``repetitions`` timed runs feed a median.  Only the ratio is meaningful
    across machines; absolute seconds are reported for context.  Entries are
    keyed by scheme; two configurations of one scheme are told apart by
    delay mode (``ie-grid``, ``ie-kernel``), else by step and horizon.
    """
    if repetitions < 3:
        raise ParameterError(f"need >= 3 repetitions for a median, got {repetitions}")
    config_pair = _two(config_pair, "configurations")
    runner = run_pde if isinstance(problem, PdeProblem) else run
    seconds: Dict[str, float] = {}
    labels = _runtime_labels(config_pair)
    for label, cfg in zip(labels, config_pair):
        runner(problem, cfg)
        times = [runner(problem, cfg).wall_clock for _ in range(repetitions)]
        seconds[label] = float(median(times))
    ratio = seconds[labels[0]] / seconds[labels[1]]
    return RuntimeReport(seconds=seconds, ratio=float(ratio),
                         repetitions=repetitions)
