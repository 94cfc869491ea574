"""Workloads of the ddesplit benchmark and the checks on their outputs.

Each workload is split into three parts that are timed separately: its
``ie`` runs, its ``lt`` runs (the same horizons, so the two times give the
paper's wall-clock ratio) and one pass of the companion diagnostics.  Every
workload reports every end-to-end metric, so the field workloads run the
diagnostics too, on the one operator real callers analyse: that of the
scalar benchmark problem, as the CLI's ``stability`` command does by
default.  One operation is one scheme run or one diagnostic call.  Every
operation's output is checked as soon as it is produced, against values recorded in
``expected.json`` (see ``record_expected.py``).

Seed 0 runs the paper configurations exactly.  Any other seed multiplies
every history by a seeded factor c in [0.5, 2].  The schemes are linear, so
the expected output is c times the seed-0 output while the work per step
stays the same; the diagnostics do not depend on the history.

The package is always called through module attributes at call time
(``pde.run_pde``, not a name bound at import), so the timing wrappers of a
traced run see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ddesplit import oracle, pde, scalar, stability

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# ``paper-auto-pde`` / ``paper-nonauto-pde`` presets of the CLI.
FIELD = dict(kappa=0.02, lambda0=-0.8, b=-0.8, tau=-0.6, Nx=300, T_lambda=4.0, L=1.0)
FIELD_H = 0.002
# The scalar benchmark problem: m = 257 at h = 1e-3.
SCALAR = dict(a=-0.15, b=-6.0, tau=-0.257)
SCALAR_H = 1e-3

# The CLI's ``stability`` default is N = 2e5 with a checkpoint every 1000
# steps.  That call takes about 4 s, too long for the median of a third of a
# run to settle, so the timed passes run the same recurrences to N = 2e4
# (20 checkpoints, each step costing the same) and the full-size call runs
# once per scalar-m257 run, untimed, to check S_N against the pin.
FULL_DIAG_N = 200_000
DIAG_N = 20_000
DIAG_STRIDE = 1_000
SMOKE_DIAG_N = 2_000

# Relative tolerance of every value check.  The seeded rescaling moves each
# recorded sample by less than 2e-13 of its own value.
RTOL = 1e-9

COMPONENTS = ("ie", "lt", "diag")


def history_factor(seed: int) -> float:
    """c = 1 for seed 0, else a seeded draw from [0.5, 2]."""
    if seed == 0:
        return 1.0
    return float(np.random.default_rng(seed).uniform(0.5, 2.0))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


@dataclass
class Op:
    """One checked operation: a scheme run or a diagnostic call."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when the output is right
    counts: Dict[str, int] = field(default_factory=dict)  # closed-form calls


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want)


def series_check(ref: dict, c: float, h: float, values_of) -> Callable:
    """Check a trajectory at the recorded times that fall inside the run."""
    ts, vs = ref["t"], ref["value"]

    def check(result) -> Optional[str]:
        values = values_of(result)
        n_last = values.size - 1
        for t, v in zip(ts, vs):
            i = int(round(t / h))
            if i > n_last:
                break
            if not _close(float(values[i]), c * v):
                return f"t={t}: got {float(values[i])!r}, expected {c * v!r}"
        return None
    return check


def _field_counts(scheme: str, autonomous: bool, n: int) -> Dict[str, int]:
    fresh = scheme == "ie" and not autonomous   # assembled and solved densely each step
    return {
        "pde.run_pde": 1,
        f"pde.{scheme}_pde_step": n,
        "pde.assemble_system": n if fresh else 1,
        "pde.Tridiag.factorize": 0 if fresh else 1,
        "pde.thomas_solve": 0 if fresh else n,
        "history.RingBuffer.push": n,
        "history.init_from_history": 1,
    }


def _scalar_counts(scheme: str, mode: str, n: int) -> Dict[str, int]:
    if mode == "kernel":
        return {
            "scalar.run": 1,
            f"scalar.{scheme}_step_kernel": n,
            "history.delay_kernel_integral": n,
            "history.transport_resolvent_apply": n,
        }
    return {
        "scalar.run": 1,
        f"scalar.{scheme}_step": n,
        "history.RingBuffer.push": n,
        "history.delayed_value": n,
        "history.init_from_history": 1,
    }


@dataclass
class Workload:
    """How to build a workload's problems and operators, and list its operations.

    ``ops(built, expected, c, smoke, horizon_scale)`` maps each component to
    the operations of one pass; ``smoke`` picks tiny horizons.  With
    ``full_diag`` the warm-up also runs the diagnostics at ``FULL_DIAG_N``.
    """

    build: Callable[[float], dict]
    ops: Callable[..., Dict[str, List[Op]]]
    full_diag: bool = False


def _field_problem(lambda1: float, c: float) -> pde.PdeProblem:
    def history(t, x):
        return c * pde.oscillating_history(t, x)
    return pde.PdeProblem(history=history, lambda1=lambda1, **FIELD)


def _companion() -> stability.CompanionOperator:
    """The companion operator of the scalar benchmark problem (m = 257)."""
    props = stability.build_discrete_propagators(
        scalar.ScalarDelayProblem(history=lambda t: 0.0, **SCALAR), SCALAR_H)
    return stability.CompanionOperator(m=props.m, alpha=props.coeffs.alpha,
                                       beta=props.coeffs.beta)


def diag_ops(op: stability.CompanionOperator, ref: dict, n: int) -> List[Op]:
    """The three companion diagnostics up to horizon ``n``."""
    ks = list(range(DIAG_STRIDE, n + 1, DIAG_STRIDE))

    def check_rho(rho) -> Optional[str]:
        return None if _close(rho, ref["rho"]) else f"rho {rho!r} != {ref['rho']!r}"

    def check_profiles(out) -> Optional[str]:
        if len(out[0]) != len(ks) or len(out[1]) != len(ks):
            return f"{len(out[0])} profile values for {len(ks)} checkpoints"
        for label, got, want in (("S", out[0], ref["S"]), ("ritt", out[1], ref["ritt"])):
            for k, g, w in zip(ks, got, want):
                if not _close(float(g), w):
                    return f"{label}[{k}] {g!r} != {w!r}"
        return None

    def check_pns(total) -> Optional[str]:
        want = ref["power_norm_sum"][str(n)]
        return None if _close(total, want) else f"power-norm sum {total!r} != {want!r}"

    return [
        Op("spectral_radius", lambda: stability.spectral_radius(op),
           check_rho, {"stability.spectral_radius": 1}),
        Op(f"companion_profiles-N{n}",
           lambda: stability.companion_profiles(op, ks),
           check_profiles, {"stability.companion_profiles": 1}),
        Op(f"companion_power_norm_sum-N{n}",
           lambda: stability.companion_power_norm_sum(op, n),
           check_pns, {"stability.companion_power_norm_sum": 1}),
    ]


# -- field workloads -------------------------------------------------------

FIELD_T = 8.0
SMOKE_FIELD_T = 0.1


def _build_field(lambda1: float):
    def build(c: float) -> dict:
        return {"problem": _field_problem(lambda1, c), "operator": _companion()}
    return build


def _field_ops(reps: int):
    """``reps`` T = 8 runs per scheme and pass."""
    def ops(built: dict, expected: dict, c: float, smoke: bool,
            horizon_scale: float = 1.0) -> Dict[str, List[Op]]:
        problem = built["problem"]
        T = (SMOKE_FIELD_T if smoke else FIELD_T) * horizon_scale
        n = int(round(T / FIELD_H))
        preset = "auto" if problem.autonomous else "nonauto"
        out: Dict[str, List[Op]] = {}
        for scheme in ("ie", "lt"):
            cfg = scalar.SchemeConfig(h=FIELD_H, T=T, scheme=scheme)
            check = series_check(expected["field"][f"{preset}-{scheme}"], c, FIELD_H,
                                 lambda r: r.center)
            counts = _field_counts(scheme, problem.autonomous, n)
            out[scheme] = [
                Op(f"{preset}-{scheme}-T{T:g}",
                   lambda cfg=cfg: pde.run_pde(problem, cfg), check, counts)
                for _ in range(1 if smoke else reps)
            ]
        out["diag"] = diag_ops(built["operator"], expected["diag"],
                               SMOKE_DIAG_N if smoke else DIAG_N)
        return out
    return ops


# -- scalar workload -------------------------------------------------------

# (a_mode, delay_mode, T, repetitions per pass, smoke T).  The repetitions
# keep each part above a fifth of its scheme's time; linear-a horizons stay
# at T <= 100, beyond which the trajectory decays into subnormals.
SCALAR_RUNS = (
    ("constant", "grid", 40.0, 4, 0.5),
    ("linear", "grid", 100.0, 2, 0.5),
    ("constant", "kernel", 1.0, 1, 0.05),
)


def _build_scalar(c: float) -> dict:
    def history(t):
        return c * oracle.poly_history(t)
    problems = {mode: scalar.ScalarDelayProblem(history=history, a_mode=mode, **SCALAR)
                for mode in ("constant", "linear")}
    return {"problems": problems, "operator": _companion()}


def _scalar_ops(built: dict, expected: dict, c: float, smoke: bool,
                horizon_scale: float = 1.0) -> Dict[str, List[Op]]:
    out: Dict[str, List[Op]] = {"ie": [], "lt": []}
    for a_mode, delay_mode, T_full, reps, T_smoke in SCALAR_RUNS:
        T = (T_smoke if smoke else T_full) * horizon_scale
        n = int(round(T / SCALAR_H))
        problem = built["problems"][a_mode]
        for scheme in ("ie", "lt"):
            key = f"{a_mode}-{delay_mode}-{scheme}"
            cfg = scalar.SchemeConfig(h=SCALAR_H, T=T, scheme=scheme, delay_mode=delay_mode)
            check = series_check(expected["scalar"][key], c, SCALAR_H, lambda r: r.values)
            counts = _scalar_counts(scheme, delay_mode, n)
            out[scheme] += [
                Op(f"{key}-T{T:g}",
                   lambda cfg=cfg, problem=problem: scalar.run(problem, cfg),
                   check, counts)
                for _ in range(1 if smoke else reps)
            ]
    out["diag"] = diag_ops(built["operator"], expected["diag"],
                           SMOKE_DIAG_N if smoke else DIAG_N)
    return out


# Why each workload is in the benchmark: see ``BENCHMARK.json``.  An
# autonomous field run takes about 80 ms, too short to settle alone, so its
# pass repeats it five times; the modulated ie run already takes about 8 s.
WORKLOADS = {
    "field-autonomous": Workload(_build_field(0.0), _field_ops(reps=5)),
    "field-modulated": Workload(_build_field(0.2), _field_ops(reps=1)),
    "scalar-m257": Workload(_build_scalar, _scalar_ops, full_diag=True),
}
