"""Record the reference outputs that the benchmark checks against.

Run from the repository root:

    python3 bench/record_expected.py

It runs every workload's operations at seed 0 (the paper configurations)
and writes ``bench/expected.json``.  The field center values at integer
seconds are the ``COMPUTED_CENTER`` pins of ``tests/test_acceptance.py``,
copied verbatim after this run has matched them at rel 1e-9, and the
summability value S_N and spectral radius are checked against that file's
``COMPUTED_PARTIAL_SUM_NORM`` and ``COMPUTED_RHO``.  The other samples are
this code's own outputs, kept with all 17 digits.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ddesplit import pde, scalar, stability  # noqa: E402

import workloads as wl  # noqa: E402

FIELD_TIMES = [0.0, 0.02, 0.1, 0.2, 0.5] + [float(t) for t in range(1, 9)]
SCALAR_TIMES = {
    "constant-grid": [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0],
    "linear-grid": [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
    "constant-kernel": [0.0, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0],
}


def acceptance_pins() -> dict:
    """The ``COMPUTED_*`` constants of the acceptance tests, read without importing them."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    pins = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", "")
            if name.startswith("COMPUTED_"):
                pins[name] = ast.literal_eval(node.value)
    return pins


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * abs(want)


def _sample(values, h: float, times) -> list:
    return [float(values[int(round(t / h))]) for t in times]


def record() -> dict:
    pins = acceptance_pins()
    out = {"field": {}, "scalar": {}}
    for preset, lambda1 in (("auto", 0.0), ("nonauto", 0.2)):
        problem = wl._field_problem(lambda1, 1.0)
        for scheme in ("ie", "lt"):
            res = pde.run_pde(problem, scalar.SchemeConfig(h=wl.FIELD_H, T=wl.FIELD_T,
                                                           scheme=scheme))
            values = _sample(res.center, wl.FIELD_H, FIELD_TIMES)
            pinned = pins["COMPUTED_CENTER"][(preset, scheme)]
            for k, t in enumerate(FIELD_TIMES):
                if t.is_integer():
                    if not _close(values[k], pinned[int(t)]):
                        raise SystemExit(f"{preset}-{scheme} t={t}: {values[k]!r} "
                                         f"does not match the pin {pinned[int(t)]!r}")
                    values[k] = pinned[int(t)]
            out["field"][f"{preset}-{scheme}"] = {"t": FIELD_TIMES, "value": values}
            print(f"field {preset}-{scheme}: matches COMPUTED_CENTER")

    built = wl._build_scalar(1.0)
    for a_mode, delay_mode, T, _, _ in wl.SCALAR_RUNS:
        times = SCALAR_TIMES[f"{a_mode}-{delay_mode}"]
        for scheme in ("ie", "lt"):
            cfg = scalar.SchemeConfig(h=wl.SCALAR_H, T=T, scheme=scheme,
                                      delay_mode=delay_mode)
            res = scalar.run(built["problems"][a_mode], cfg)
            out["scalar"][f"{a_mode}-{delay_mode}-{scheme}"] = {
                "t": times, "value": _sample(res.values, wl.SCALAR_H, times)}
            print(f"scalar {a_mode}-{delay_mode}-{scheme}: recorded to T={T:g}")

    op = built["operator"]
    ks = list(range(wl.DIAG_STRIDE, wl.FULL_DIAG_N + 1, wl.DIAG_STRIDE))
    S, ritt = stability.companion_profiles(op, ks)
    ref = out["diag"] = {
        "m": op.m,
        "rho": stability.spectral_radius(op),
        "S": [float(v) for v in S],
        "ritt": [float(v) for v in ritt],
        "power_norm_sum": {str(n): stability.companion_power_norm_sum(op, n)
                           for n in (wl.SMOKE_DIAG_N, wl.DIAG_N, wl.FULL_DIAG_N)},
    }
    for got, want, label in ((ref["S"][-1], pins["COMPUTED_PARTIAL_SUM_NORM"], "S_N"),
                             (ref["rho"], pins["COMPUTED_RHO"], "rho")):
        if not _close(got, want):
            raise SystemExit(f"diag {label} {got!r} does not match the pin {want!r}")
    print(f"diag: m={op.m} matches COMPUTED_PARTIAL_SUM_NORM and COMPUTED_RHO")
    return out


if __name__ == "__main__":
    data = record()
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED_PATH.relative_to(ROOT)}")
