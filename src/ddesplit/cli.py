"""Command-line surface for the solvers and diagnostics.

Every experiment is reachable through one subcommand:

* ``scalar``       time series of the scalar delay equation
* ``pde``          center/L2 traces of the reaction-diffusion delay model
* ``stability``    spectral radius, smallness norms, summability/Ritt profiles
* ``oracle``       semi-analytic benchmark values (t, u)
* ``convergence``  log-log order study between two scheme variants
* ``growth-fit``   exponential growth rate of a long scalar run
* ``timing``       median wall-clock comparison of the two schemes

Outputs are deterministic: numbers are written with 12 significant digits in
scientific notation, line endings are always ``\\n``, and wall-clock times go
to stderr rather than into the files, so identical invocations produce
byte-identical outputs.  (The ``timing`` subcommand is the one exception:
measured seconds are its payload.)  Exit codes: 0 success, 1 numerical or
I/O failure, 2 usage error.
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

# Bundled benchmark defaults of the scalar model (scalar, stability, timing).
SCALAR_DEFAULTS = dict(a=-0.15, b=-6.0, tau=-0.257, h=0.001, T=40.0)

# Bundled benchmark defaults of the field model; --mode toggles the modulation.
PDE_DEFAULTS = dict(kappa=0.02, lambda0=-0.8, b=-0.8, tau=-0.6,
                    h=0.002, Nx=300, T=8.0, L=1.0, T_lambda=4.0)


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


def _add_output_flags(p: argparse.ArgumentParser, formats=("csv", "json"),
                      default: str = "csv") -> None:
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")
    p.add_argument("--format", choices=list(formats), default=default,
                   help="output format (default: %(default)s)")


def _add_history_flags(p: argparse.ArgumentParser, default: str = "poly10") -> None:
    p.add_argument("--history", choices=["poly10", "const", "zero"],
                   default=default,
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
    p.add_argument("--a", type=_finite, default=SCALAR_DEFAULTS["a"],
                   help="reaction coefficient")
    p.add_argument("--a-mode", choices=["constant", "linear"], default="constant",
                   help="constant a or the law a(t) = a*t")
    p.add_argument("--b", type=_finite, default=SCALAR_DEFAULTS["b"],
                   help="delay coefficient")
    p.add_argument("--tau", type=_negative, default=SCALAR_DEFAULTS["tau"],
                   help="delay (< 0)")
    p.add_argument("--h", type=_positive, default=SCALAR_DEFAULTS["h"], help="step size")
    p.add_argument("--T", type=_positive, default=SCALAR_DEFAULTS["T"], help="final time")
    _add_history_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("pde", help="run the reaction-diffusion delay model")
    p.add_argument("--scheme", choices=["ie", "lt"], default="ie")
    modes = p.add_mutually_exclusive_group()
    modes.add_argument("--mode", choices=["auto", "nonauto"], default=None,
                       help="constant or sinusoidally modulated reaction "
                            "coefficient (default: auto)")
    modes.add_argument("--preset", choices=["paper-auto-pde", "paper-nonauto-pde"],
                       default=None,
                       help="the benchmark in the auto or nonauto mode, which sets "
                            "lambda1 to 0 or 0.2 unless --lambda1 is given; other "
                            "explicit flags override the benchmark defaults")
    p.add_argument("--kappa", type=_positive, default=PDE_DEFAULTS["kappa"])
    p.add_argument("--lambda0", type=_finite, default=PDE_DEFAULTS["lambda0"])
    p.add_argument("--lambda1", type=_finite, default=None,
                   help="modulation amplitude (default: 0.2 for nonauto, 0 for auto)")
    p.add_argument("--T-lambda", type=_positive, default=PDE_DEFAULTS["T_lambda"],
                   dest="T_lambda", help="modulation period")
    p.add_argument("--b", type=_finite, default=PDE_DEFAULTS["b"])
    p.add_argument("--tau", type=_negative, default=PDE_DEFAULTS["tau"])
    p.add_argument("--h", type=_positive, default=PDE_DEFAULTS["h"])
    p.add_argument("--T", type=_positive, default=PDE_DEFAULTS["T"])
    p.add_argument("--Nx", type=_positive_int, default=PDE_DEFAULTS["Nx"])
    p.add_argument("--L", type=_positive, default=PDE_DEFAULTS["L"])
    p.add_argument("--field-history", choices=["osc", "zero"], default="osc",
                   help="initial field history (default: %(default)s)")
    _add_output_flags(p)

    p = sub.add_parser("stability", help="one-step operator diagnostics")
    p.add_argument("--a", type=_finite, default=SCALAR_DEFAULTS["a"])
    p.add_argument("--b", type=_finite, default=SCALAR_DEFAULTS["b"])
    p.add_argument("--tau", type=_negative, default=SCALAR_DEFAULTS["tau"])
    p.add_argument("--h", type=_positive, default=SCALAR_DEFAULTS["h"])
    p.add_argument("--profile-n", type=_non_negative_int, default=0,
                   help="horizon of the summability/Ritt profiles (0 = skip)")
    p.add_argument("--profile-stride", type=_non_negative_int, default=0,
                   help="checkpoint spacing (0 = about 200 checkpoints)")
    _add_output_flags(p, formats=("json",), default="json")

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
    p.add_argument("--a", type=_finite, default=-0.15)
    p.add_argument("--a-mode", choices=["constant", "linear"], default="constant")
    p.add_argument("--b", type=_finite, default=-6.0)
    p.add_argument("--tau", type=_negative, default=-8.0)
    p.add_argument("--T", type=_positive, default=20.0)
    p.add_argument("--h-list", type=_float_list, default="0.1,0.05,0.025,0.0125",
                   dest="h_list", help="comma-separated steps, coarsest first")
    p.add_argument("--pair", default="ie,lt",
                   help="two variants like ie,lt or ie-grid,ie-kernel")
    _add_history_flags(p)
    _add_output_flags(p, formats=("json",), default="json")

    p = sub.add_parser("growth-fit", help="exponential growth rate of a run")
    p.add_argument("--scheme", choices=["ie", "lt"], default="ie")
    p.add_argument("--a", type=_finite, default=-0.15)
    p.add_argument("--a-mode", choices=["constant", "linear"], default="constant")
    p.add_argument("--b", type=_finite, default=-6.0)
    p.add_argument("--tau", type=_negative, default=-8.0)
    p.add_argument("--h", type=_positive, default=0.01)
    p.add_argument("--T", type=_positive, default=200.0)
    p.add_argument("--t-start", type=_finite, default=50.0, dest="t_start")
    p.add_argument("--char-root", action="store_true", dest="char_root",
                   help="cross-check against the rightmost characteristic root")
    _add_history_flags(p)
    _add_output_flags(p, formats=("json",), default="json")

    p = sub.add_parser("timing", help="median wall-clock scheme comparison")
    p.add_argument("--target", choices=["scalar", "pde-auto", "pde-nonauto"],
                   default="pde-nonauto")
    p.add_argument("--h", type=_positive, default=None,
                   help="step override (default per target)")
    p.add_argument("--T", type=_positive, default=None,
                   help="horizon override (default per target)")
    p.add_argument("--reps", type=_median_reps, default=3)
    _add_output_flags(p, formats=("json",), default="json")
    return top


def parse(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse and validate argv into its namespace (exit code 2 on usage errors)."""
    return _build_parser().parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _sanitize(obj):
    """Replace non-finite floats by None so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_text(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(obj, path: Optional[str]) -> None:
    _write_text(json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n", path)


def write_series(result, fmt: str, path: Optional[str] = None,
                 params: Optional[dict] = None) -> None:
    """Serialize a run as CSV (t,u or t,center,l2) or the JSON mirror.

    Values carry 12 significant digits; wall clock is deliberately not part
    of the payload so repeated runs serialize identically.
    """
    if isinstance(result, PdeRunResult):
        columns = [("t", result.times), ("center", result.center),
                   ("l2", result.l2)]
    else:
        columns = [("t", result.times), ("u", result.values)]
    if fmt == "csv":
        lines = [",".join(name for name, _ in columns)]
        n = len(columns[0][1])
        for i in range(n):
            lines.append(",".join(_fmt(col[i]) for _, col in columns))
        _write_text("\n".join(lines) + "\n", path)
        return
    obj = {name: [_round12(v) for v in col] for name, col in columns}
    obj["scheme"] = result.scheme
    obj["parameters"] = params or {}
    _write_json(obj, path)


def _make_history(name: str, value: float):
    if name == "poly10":
        return poly_history
    if name == "zero":
        return lambda t: 0.0
    return lambda t: value


def _scalar_problem(ns) -> ScalarDelayProblem:
    return ScalarDelayProblem(a=ns.a, b=ns.b, tau=ns.tau,
                              history=_make_history(ns.history, ns.history_value),
                              a_mode=getattr(ns, "a_mode", "constant"))


def _pde_problem(ns) -> PdeProblem:
    lambda1 = ns.lambda1
    if lambda1 is None:
        nonauto = ns.mode == "nonauto" or ns.preset == "paper-nonauto-pde"
        lambda1 = 0.2 if nonauto else 0.0
    history = oscillating_history if ns.field_history == "osc" \
        else (lambda t, x: np.zeros_like(x))
    return PdeProblem(kappa=ns.kappa, lambda0=ns.lambda0, b=ns.b, tau=ns.tau,
                      Nx=ns.Nx, history=history, lambda1=lambda1,
                      T_lambda=ns.T_lambda, L=ns.L)


def _cmd_scalar(ns: argparse.Namespace) -> int:
    config = SchemeConfig(h=ns.h, T=ns.T, scheme=ns.scheme,
                          delay_mode=ns.delay_mode)
    result = run(_scalar_problem(ns), config)
    meta = {"a": ns.a, "a_mode": ns.a_mode, "b": ns.b, "tau": ns.tau,
            "h": ns.h, "T": ns.T, "history": ns.history}
    write_series(result, ns.format, ns.out, params=meta)
    print(f"wall clock: {result.wall_clock:.3f} s", file=sys.stderr)
    return 0


def _cmd_pde(ns: argparse.Namespace) -> int:
    problem = _pde_problem(ns)
    config = SchemeConfig(h=ns.h, T=ns.T, scheme=ns.scheme, delay_mode="grid")
    result = run_pde(problem, config)
    meta = {"kappa": problem.kappa, "lambda0": problem.lambda0,
            "lambda1": problem.lambda1, "T_lambda": problem.T_lambda,
            "b": problem.b, "tau": problem.tau, "Nx": problem.Nx,
            "L": problem.L, "h": ns.h, "T": ns.T}
    write_series(result, ns.format, ns.out, params=meta)
    print(f"wall clock: {result.wall_clock:.3f} s", file=sys.stderr)
    return 0


def _cmd_stability(ns: argparse.Namespace) -> int:
    problem = ScalarDelayProblem(a=ns.a, b=ns.b, tau=ns.tau,
                                 history=lambda t: 0.0)
    op = companion_operator(problem, ns.h)
    report = {
        "m": op.m,
        "spectral_radius": _round12(spectral_radius(op)),
        "os_norm": _round12(estimate_os_norm(problem, ns.h)),
        "defect_norm": _round12(defect_norm(op)),
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
        s_vals, r_vals = companion_profiles(op, ks)
        report["checkpoints"] = ks
        report["summability"] = [_round12(v) for v in s_vals]
        report["ritt"] = [_round12(v) for v in r_vals]
        report["power_norm_sum"] = _round12(companion_power_norm_sum(op, n_max))
    _write_json(report, ns.out)
    return 0


def _cmd_oracle(ns: argparse.Namespace) -> int:
    p = OhiraParams(a=ns.a, b=ns.b, tau=ns.tau, omega_max=ns.omega_max,
                    n_nodes=ns.n_nodes)
    times = np.linspace(ns.t0, ns.t1, ns.num)
    values = oo_solution(times, p)
    result = RunResult(times=times, values=values, scheme="oracle")
    meta = {"a": ns.a, "b": ns.b, "tau": ns.tau,
            "omega_max": ns.omega_max, "n_nodes": ns.n_nodes}
    write_series(result, ns.format, ns.out, params=meta)
    return 0


def _cmd_convergence(ns: argparse.Namespace) -> int:
    pair = tuple(tok.strip() for tok in ns.pair.split(","))
    if len(pair) != 2:
        raise ParameterError(f"--pair needs exactly two variants, got {ns.pair!r}")
    report = convergence_study(_scalar_problem(ns), pair, ns.h_list, ns.T)
    _write_json(report.to_json(), ns.out)
    return 0


def _cmd_growth_fit(ns: argparse.Namespace) -> int:
    config = SchemeConfig(h=ns.h, T=ns.T, scheme=ns.scheme, delay_mode="grid")
    result = run(_scalar_problem(ns), config)
    fit = exp_growth_fit(result, ns.t_start)
    report = fit.to_json()
    if ns.char_root:
        if ns.a_mode != "constant":
            raise ParameterError("characteristic-root cross-check needs a "
                                 "constant reaction coefficient")
        root = char_root_rightmost(ns.a, ns.b, ns.tau)
        report["omega_ref"] = _round12(root.real)
    _write_json(report, ns.out)
    return 0


def _cmd_timing(ns: argparse.Namespace) -> int:
    if ns.target == "scalar":
        defaults = SCALAR_DEFAULTS
        problem = ScalarDelayProblem(a=defaults["a"], b=defaults["b"],
                                     tau=defaults["tau"], history=poly_history)
    else:
        defaults = PDE_DEFAULTS
        problem = PdeProblem(
            **{k: v for k, v in defaults.items() if k not in ("h", "T")},
            history=oscillating_history,
            lambda1=0.2 if ns.target == "pde-nonauto" else 0.0)
    h = ns.h if ns.h is not None else defaults["h"]
    T = ns.T if ns.T is not None else defaults["T"]
    pair = (SchemeConfig(h=h, T=T, scheme="ie"),
            SchemeConfig(h=h, T=T, scheme="lt"))
    report = compare_runtime(problem, pair, repetitions=ns.reps)
    _write_json(report.to_json(), ns.out)
    return 0


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
        return _HANDLERS[ns.subcommand](ns)
    except (ParameterError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return execute(parse(argv))


if __name__ == "__main__":
    sys.exit(main())
