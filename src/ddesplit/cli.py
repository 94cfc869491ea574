"""Command-line surface for the solvers and diagnostics.

Every experiment is reachable through one subcommand:

* ``scalar``       time series of the scalar delay equation
* ``pde``          center/L2 traces of the reaction-diffusion delay model
* ``stability``    spectral radius, smallness norms, summability/Ritt profiles
* ``oracle``       semi-analytic benchmark values (t, u)
* ``convergence``  log-log order study between two scheme variants
* ``growth-fit``   exponential growth rate of a long scalar run
* ``timing``       median wall-clock comparison of the two schemes

Each handler returns its text and ``execute`` writes it to stdout or to
``--out``.  Every printed float, CSV or JSON, reports included, has 12
significant digits (``_fmt``); in JSON a non-finite float is ``null``.  Line
endings are always ``\\n``, and wall-clock times go to stderr rather than
into the files, so identical invocations produce byte-identical outputs.
(The ``timing`` subcommand is the one exception: measured seconds are its
payload.)  Exit codes: 0 success, 1 numerical or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterError
from .harness import (
    char_root_rightmost,
    compare_runtime,
    convergence_study,
    exp_growth_fit,
)
from .oracle import OhiraParams, oo_solution, poly_history
from .pde import PdeProblem, PdeRunResult, oscillating_history, run_pde
from .scalar import RunResult, ScalarDelayProblem, SchemeConfig, run
from .stability import (
    companion_operator,
    companion_power_norm_sum,
    companion_profiles,
    defect_norm,
    estimate_os_norm,
    spectral_radius,
)

# The subcommand whose default problem each ``timing`` target runs.
_TIMING_TARGETS = {"scalar": ["scalar"], "pde-auto": ["pde"],
                   "pde-nonauto": ["pde", "--preset", "paper-nonauto-pde"]}


def _checked(convert, ok, what: str):
    """Argparse type: ``convert`` the text, then reject values failing ``ok``."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    check.__name__ = convert.__name__  # argparse: "invalid float value: 'x'"
    return check


_finite = _checked(float, math.isfinite, "finite")
_negative = _checked(float, lambda v: -math.inf < v < 0, "finite and negative")
_positive = _checked(float, lambda v: 0 < v < math.inf, "finite and positive")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_median_reps = _checked(int, lambda v: v >= 3, "at least 3 for a median")


def _float_list(text: str) -> list:
    """Argparse type: comma-separated finite numbers, with no empty item."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated finite numbers, got {text!r}")
    return values


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    """--out and the --format of the series commands."""
    _add_out_flag(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="output format (default: %(default)s)")


def _add_scalar_model_flags(p: argparse.ArgumentParser, tau: float,
                            a_mode: bool = True) -> None:
    """The scalar model's --a, --a-mode (unless a must be constant), --b and --tau."""
    p.add_argument("--a", type=_finite, default=-0.15, help="reaction coefficient")
    if a_mode:
        p.add_argument("--a-mode", choices=["constant", "linear"], default="constant",
                       help="constant a or the law a(t) = a*t")
    p.add_argument("--b", type=_finite, default=-6.0, help="delay coefficient")
    p.add_argument("--tau", type=_negative, default=tau, help="delay (< 0)")


def _add_history_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--history", choices=["poly10", "const", "zero"],
                   default="poly10",
                   help="history profile on [tau, 0] (default: %(default)s)")
    p.add_argument("--history-value", type=_finite, default=1.0,
                   help="value used by --history const (default: %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ddesplit",
        description="Delay-equation time steppers and stability diagnostics.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("scalar", help="run the scalar delay equation")
    p.add_argument("--scheme", choices=["ie", "lt"], default="ie")
    p.add_argument("--delay-mode", choices=["grid", "kernel"], default="grid")
    _add_scalar_model_flags(p, tau=-0.257)
    p.add_argument("--h", type=_positive, default=0.001, help="step size")
    p.add_argument("--T", type=_positive, default=40.0, help="final time")
    _add_history_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("pde", help="run the reaction-diffusion delay model")
    p.add_argument("--scheme", choices=["ie", "lt"], default="ie")
    p.add_argument("--preset", choices=["paper-auto-pde", "paper-nonauto-pde"],
                   default="paper-auto-pde",
                   help="the benchmark with a constant or a sinusoidally modulated "
                        "reaction coefficient, which sets lambda1 to 0 or 0.2 "
                        "unless --lambda1 is given; other explicit flags override "
                        "the benchmark defaults (default: %(default)s)")
    p.add_argument("--kappa", type=_positive, default=0.02)
    p.add_argument("--lambda0", type=_finite, default=-0.8)
    p.add_argument("--lambda1", type=_finite, default=None,
                   help="modulation amplitude (default: set by --preset)")
    p.add_argument("--T-lambda", type=_positive, default=4.0,
                   dest="T_lambda", help="modulation period")
    p.add_argument("--b", type=_finite, default=-0.8)
    p.add_argument("--tau", type=_negative, default=-0.6)
    p.add_argument("--h", type=_positive, default=0.002)
    p.add_argument("--T", type=_positive, default=8.0)
    p.add_argument("--Nx", type=_positive_int, default=300)
    p.add_argument("--L", type=_positive, default=1.0)
    p.add_argument("--field-history", choices=["osc", "zero"], default="osc",
                   help="initial field history (default: %(default)s)")
    _add_output_flags(p)

    p = sub.add_parser("stability", help="one-step operator diagnostics")
    _add_scalar_model_flags(p, tau=-0.257, a_mode=False)
    p.add_argument("--h", type=_positive, default=0.001)
    p.add_argument("--profile-n", type=_non_negative_int, default=0,
                   help="horizon of the summability/Ritt profiles (0 = skip)")
    p.add_argument("--profile-stride", type=_non_negative_int, default=0,
                   help="checkpoint spacing (0 = about 200 checkpoints)")
    _add_out_flag(p)

    p = sub.add_parser("oracle", help="semi-analytic benchmark values")
    p.add_argument("--a", type=_negative, default=-0.15)
    p.add_argument("--b", type=_finite, default=-6.0)
    p.add_argument("--tau", type=_negative, default=-8.0)
    p.add_argument("--omega-max", type=_positive, default=4.0, dest="omega_max")
    p.add_argument("--n-nodes", type=_positive_int, default=2001, dest="n_nodes")
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, default=10.0)
    p.add_argument("--num", type=_positive_int, default=101,
                   help="number of evaluation times")
    _add_output_flags(p)

    p = sub.add_parser("convergence", help="order study between two variants")
    _add_scalar_model_flags(p, tau=-8.0)
    p.add_argument("--T", type=_positive, default=20.0)
    p.add_argument("--h-list", type=_float_list, default="0.1,0.05,0.025,0.0125",
                   dest="h_list", help="comma-separated steps, coarsest first")
    p.add_argument("--pair", default="ie,lt",
                   help="two variants like ie,lt or ie-grid,ie-kernel")
    _add_history_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("growth-fit", help="exponential growth rate of a run")
    p.add_argument("--scheme", choices=["ie", "lt"], default="ie")
    _add_scalar_model_flags(p, tau=-8.0)
    p.add_argument("--h", type=_positive, default=0.01)
    p.add_argument("--T", type=_positive, default=200.0)
    p.add_argument("--t-start", type=_finite, default=50.0, dest="t_start")
    p.add_argument("--char-root", action="store_true", dest="char_root",
                   help="cross-check against the rightmost characteristic root")
    _add_history_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("timing", help="median wall-clock scheme comparison")
    p.add_argument("--target", choices=list(_TIMING_TARGETS),
                   default="pde-nonauto")
    p.add_argument("--h", type=_positive, default=None,
                   help="step override (default per target)")
    p.add_argument("--T", type=_positive, default=None,
                   help="horizon override (default per target)")
    p.add_argument("--reps", type=_median_reps, default=3)
    _add_out_flag(p)
    return top


def parse(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse and validate argv into its namespace (exit code 2 on usage errors)."""
    return _build_parser().parse_args(argv)


def _fmt(value: float) -> str:
    """The one float format: 12 significant digits in scientific notation."""
    return f"{value:.11e}"


def _encode(obj):
    """``obj`` for JSON: floats (float64 too) in 12 digits, non-finite ones None."""
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_encode(v) for v in obj]
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    return obj


def _json(obj) -> str:
    return json.dumps(_encode(obj), indent=2, sort_keys=True) + "\n"


def series_text(result, fmt: str, params: Optional[dict] = None) -> str:
    """A run as CSV text (t,u or t,center,l2) or its JSON mirror.

    Wall clock is deliberately not part of the payload so repeated runs
    serialize identically.
    """
    if isinstance(result, PdeRunResult):
        columns = {"t": result.times, "center": result.center, "l2": result.l2}
    else:
        columns = {"t": result.times, "u": result.values}
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(map(_fmt, row)) for row in zip(*columns.values())]
        return "\n".join(lines) + "\n"
    return _json({**columns, "scheme": result.scheme, "parameters": params or {}})


def _make_history(name: str, value: float):
    if name == "poly10":
        return poly_history
    if name == "zero":
        return lambda t: 0.0
    return lambda t: value


def _scalar_problem(ns) -> ScalarDelayProblem:
    return ScalarDelayProblem(a=ns.a, b=ns.b, tau=ns.tau,
                              history=_make_history(ns.history, ns.history_value),
                              a_mode=ns.a_mode)


def _pde_problem(ns) -> PdeProblem:
    lambda1 = ns.lambda1
    if lambda1 is None:
        lambda1 = 0.2 if ns.preset == "paper-nonauto-pde" else 0.0
    history = oscillating_history if ns.field_history == "osc" \
        else (lambda t, x: np.zeros_like(x))
    return PdeProblem(kappa=ns.kappa, lambda0=ns.lambda0, b=ns.b, tau=ns.tau,
                      Nx=ns.Nx, history=history, lambda1=lambda1,
                      T_lambda=ns.T_lambda, L=ns.L)


def _cmd_scalar(ns: argparse.Namespace) -> str:
    config = SchemeConfig(h=ns.h, T=ns.T, scheme=ns.scheme,
                          delay_mode=ns.delay_mode)
    result = run(_scalar_problem(ns), config)
    meta = {"a": ns.a, "a_mode": ns.a_mode, "b": ns.b, "tau": ns.tau,
            "h": ns.h, "T": ns.T, "history": ns.history}
    print(f"wall clock: {result.wall_clock:.3f} s", file=sys.stderr)
    return series_text(result, ns.format, params=meta)


def _cmd_pde(ns: argparse.Namespace) -> str:
    problem = _pde_problem(ns)
    config = SchemeConfig(h=ns.h, T=ns.T, scheme=ns.scheme, delay_mode="grid")
    result = run_pde(problem, config)
    meta = {"kappa": problem.kappa, "lambda0": problem.lambda0,
            "lambda1": problem.lambda1, "T_lambda": problem.T_lambda,
            "b": problem.b, "tau": problem.tau, "Nx": problem.Nx,
            "L": problem.L, "h": ns.h, "T": ns.T}
    print(f"wall clock: {result.wall_clock:.3f} s", file=sys.stderr)
    return series_text(result, ns.format, params=meta)


def _cmd_stability(ns: argparse.Namespace) -> str:
    problem = ScalarDelayProblem(a=ns.a, b=ns.b, tau=ns.tau,
                                 history=lambda t: 0.0)
    op = companion_operator(problem, ns.h)
    report = {
        "m": op.m,
        "spectral_radius": spectral_radius(op),
        "os_norm": estimate_os_norm(problem, ns.h),
        "defect_norm": defect_norm(op),
        "checkpoints": [],
        "summability": [],
        "ritt": [],
    }
    if ns.profile_n > 0:
        n_max = ns.profile_n
        stride = ns.profile_stride if ns.profile_stride > 0 \
            else max(1, n_max // 200)
        ks = list(range(stride, n_max + 1, stride))
        if not ks or ks[-1] != n_max:
            ks.append(n_max)
        report["checkpoints"] = ks
        report["summability"], report["ritt"] = companion_profiles(op, ks)
        report["power_norm_sum"] = companion_power_norm_sum(op, n_max)
    return _json(report)


def _cmd_oracle(ns: argparse.Namespace) -> str:
    p = OhiraParams(a=ns.a, b=ns.b, tau=ns.tau, omega_max=ns.omega_max,
                    n_nodes=ns.n_nodes)
    times = np.linspace(ns.t0, ns.t1, ns.num)
    values = oo_solution(times, p)
    result = RunResult(times=times, values=values, scheme="oracle")
    meta = {"a": ns.a, "b": ns.b, "tau": ns.tau,
            "omega_max": ns.omega_max, "n_nodes": ns.n_nodes}
    return series_text(result, ns.format, params=meta)


def _cmd_convergence(ns: argparse.Namespace) -> str:
    pair = [tok.strip() for tok in ns.pair.split(",")]
    report = convergence_study(_scalar_problem(ns), pair, ns.h_list, ns.T)
    return _json(report.to_json())


def _cmd_growth_fit(ns: argparse.Namespace) -> str:
    if ns.char_root and ns.a_mode != "constant":
        raise ParameterError("characteristic-root cross-check needs a "
                             "constant reaction coefficient")
    config = SchemeConfig(h=ns.h, T=ns.T, scheme=ns.scheme, delay_mode="grid")
    result = run(_scalar_problem(ns), config)
    report = exp_growth_fit(result, ns.t_start).to_json()
    if ns.char_root:
        report["omega_ref"] = char_root_rightmost(ns.a, ns.b, ns.tau).real
    return _json(report)


def _cmd_timing(ns: argparse.Namespace) -> str:
    defaults = parse(_TIMING_TARGETS[ns.target])
    problem = (_scalar_problem if ns.target == "scalar" else _pde_problem)(defaults)
    h = ns.h if ns.h is not None else defaults.h
    T = ns.T if ns.T is not None else defaults.T
    pair = (SchemeConfig(h=h, T=T, scheme="ie"),
            SchemeConfig(h=h, T=T, scheme="lt"))
    report = compare_runtime(problem, pair, repetitions=ns.reps)
    return _json(report.to_json())


_HANDLERS = {
    "scalar": _cmd_scalar,
    "pde": _cmd_pde,
    "stability": _cmd_stability,
    "oracle": _cmd_oracle,
    "convergence": _cmd_convergence,
    "growth-fit": _cmd_growth_fit,
    "timing": _cmd_timing,
}


def execute(ns: argparse.Namespace) -> int:
    """Run a parsed command; 0 on success, 1 on numerical or I/O failure."""
    try:
        text = _HANDLERS[ns.subcommand](ns)
        if ns.out is None or ns.out == "-":
            sys.stdout.write(text)
        else:
            with open(ns.out, "w", newline="") as fh:
                fh.write(text)
    except (ParameterError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return execute(parse(argv))


if __name__ == "__main__":
    sys.exit(main())
