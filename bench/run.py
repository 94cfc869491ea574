"""ddesplit benchmark: end-to-end scheme times, and a layer trace taken from outside.

Run from the repository root:

    python3 bench/run.py --workload field-modulated --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` times the workload's ``ie`` runs, its ``lt`` runs and its
companion diagnostics, each in whole passes, until each has been measured for
a third of ``--seconds``, and reports the median pass time of each as
``ie_s``, ``lt_s`` and ``diag_s``.  Before timing, one small pass of each
warms up; on ``scalar-m257`` the diagnostics also run once at the CLI's full
horizon, N = 2e5, checked against the acceptance pins but not timed.
``setup_s`` is the median time of several fresh interpreters that import
``ddesplit`` and build the workload's problems and operators;
``peak_rss_mb`` is this process's peak resident memory.

``--trace 1`` runs one untraced pass and then one pass with every function
of ``layertrace.TARGETS`` wrapped, and reports each function's calls, self
time and errors, plus the tracing overhead (traced minus untraced pass
time).  Each operation's call counts are compared with the closed forms of
``workloads.py``; a difference is reported, not counted as a failure,
because later changes to the package are meant to move these counts.

Every operation's output is checked; a wrong output or an exception counts
as a failed operation.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with sample quartiles and the machine, goes to ``bench/out/``.

``--smoke`` runs tiny horizons and asserts that every metric of
``BENCHMARK.json`` is reported with its unit, that the traced call counts
follow their closed forms at two horizons, and that a corrupted expected
value is reported as a failed operation.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def _import_package():
    """Import ``ddesplit`` from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "ddesplit" / "__init__.py").is_file():
        sys.exit(f"error: no ddesplit package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import ddesplit
    if Path(ddesplit.__file__).resolve().parent != src / "ddesplit":
        sys.exit(f"error: imported ddesplit from {ddesplit.__file__}, not {src}")


_import_package()

import workloads as wl  # noqa: E402
from layertrace import TARGETS, LayerTrace  # noqa: E402


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.seconds: dict = {}    # operation name -> its run times

    def run(self, op: wl.Op) -> float:
        """Run and check one operation; return its seconds (the check is not timed)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed one
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self.seconds.setdefault(op.name, []).append(dt)
        problem = op.check(out)
        if problem is not None:
            self._fail(op, problem)
        return dt

    def _fail(self, op: wl.Op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.name}: {message}")


def run_pass(ops: list, tally: Tally) -> float:
    return sum(tally.run(op) for op in ops)


def timed_passes(ops: dict, seconds: float, tally: Tally) -> dict:
    """Pass times per component until each has a third of ``seconds``.

    The component measured least so far runs next, so the three interleave.
    """
    budget = seconds / len(wl.COMPONENTS)
    samples = {c: [] for c in wl.COMPONENTS}
    total = dict.fromkeys(wl.COMPONENTS, 0.0)
    while True:
        pending = [c for c in wl.COMPONENTS if total[c] < budget or not samples[c]]
        if not pending:
            return samples
        comp = min(pending, key=total.__getitem__)
        dt = run_pass(ops[comp], tally)
        samples[comp].append(dt)
        total[comp] += dt


def summary(values: list) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def setup_times(name: str, seed: int, repeats: int) -> list:
    """Wall time of fresh interpreters that import the package and build the workload."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
            f"import workloads as wl; "
            f"wl.WORKLOADS[{name!r}].build(wl.history_factor({seed}))")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def count_mismatches(op: wl.Op, delta: dict) -> dict:
    """Functions whose traced calls differ from the operation's closed form."""
    return {f: {"traced": delta[f], "closed_form": op.counts.get(f, 0)}
            for f in TARGETS if delta[f] != op.counts.get(f, 0)}


def traced_pass(ops: dict, tracer: LayerTrace, tally: Tally) -> tuple:
    """One pass under the tracer.

    Returns the seconds of each component, each operation's nonzero call
    counts and the operations whose counts differ from their closed form.
    """
    seconds, op_counts, mismatches = dict.fromkeys(wl.COMPONENTS, 0.0), {}, {}
    with tracer:
        for comp in wl.COMPONENTS:
            for op in ops[comp]:
                before = tracer.counts()
                seconds[comp] += tally.run(op)
                after = tracer.counts()
                delta = {f: after[f] - before[f] for f in TARGETS}
                op_counts.setdefault(op.name, {f: n for f, n in delta.items() if n})
                diff = count_mismatches(op, delta)
                if diff:
                    mismatches.setdefault(op.name, diff)
    return seconds, op_counts, mismatches


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _blas_threads():
    """Threads of the OpenBLAS bundled with the numpy wheel, or None if there is none."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
            expected: dict = None, horizon_scale: float = 1.0) -> dict:
    """Run one workload and return the full record (``result`` is the printed line)."""
    workload = wl.WORKLOADS[name]
    expected = expected if expected is not None else wl.load_expected()
    c = wl.history_factor(seed)
    record = {"workload": name, "seed": seed, "history_factor": c, "seconds": seconds,
              "trace": int(trace), "smoke": smoke}
    if not trace:
        record["setup_s_samples"] = setup_times(name, seed, 1 if smoke else SETUP_REPEATS)
    built = workload.build(c)
    tally = Tally()
    warmup = workload.ops(built, expected, c, smoke=True)
    for comp in wl.COMPONENTS:
        run_pass(warmup[comp], tally)
    if workload.full_diag and not smoke:
        run_pass(wl.diag_ops(built["operator"], expected["diag"], wl.FULL_DIAG_N), tally)
    ops = workload.ops(built, expected, c, smoke=smoke, horizon_scale=horizon_scale)
    record["operations"] = {comp: [op.name for op in ops[comp]] for comp in wl.COMPONENTS}

    if trace:
        untraced = {comp: run_pass(ops[comp], tally) for comp in wl.COMPONENTS}
        tracer = LayerTrace()
        traced, op_counts, mismatches = traced_pass(ops, tracer, tally)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in tracer.metrics().items()}
        overhead = sum(traced.values()) - sum(untraced.values())
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record.update(untraced_s=untraced, traced_s=traced, op_counts=op_counts,
                      count_mismatches=mismatches)
        if not smoke:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{name}.npz"
            record["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                               "count": tracer.write_spans(spans_path)}
    else:
        samples = timed_passes(ops, seconds, tally)
        samples["setup"] = record["setup_s_samples"]
        stats = {f"{comp}_s": summary(v) for comp, v in samples.items()}
        record["samples"] = stats
        metrics = {k: {"value": stats[k]["median"], "unit": "s"}
                   for k in ("ie_s", "lt_s", "diag_s", "setup_s")}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        record["ie_lt_ratio"] = stats["ie_s"]["median"] / stats["lt_s"]["median"]
        record["op_seconds"] = {k: summary(v) for k, v in tally.seconds.items()}

    record["failures"] = tally.failures
    record["result"] = {"correct": tally.failed == 0, "attempted": tally.attempted,
                        "failed": tally.failed, "metrics": metrics}
    return record


def _layer_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def report(record: dict) -> None:
    """Print the human-readable lines, write the record, print the result line."""
    result = record["result"]
    for key, m in result["metrics"].items():
        if record["trace"] and m["value"] == 0:
            continue
        line = f"{key:44s} {m['value']:.6g} {m['unit']}"
        s = record.get("samples", {}).get(key)
        if s:
            line += f"  (median of {s['n']}"
            line += f", q1 {s['q1']:.6g}, q3 {s['q3']:.6g})" if "q1" in s else ")"
        print(line)
    if "ie_lt_ratio" in record:
        print(f"ie_s / lt_s = {record['ie_lt_ratio']:.3f} (information only)")
    for op, diff in record.get("count_mismatches", {}).items():
        print(f"calls differ from the closed form in {op}: {diff}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    OUT_DIR.mkdir(exist_ok=True)
    record["machine"] = machine_record()
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(result))


def smoke(seed: int) -> int:
    """The benchmark's own checks at tiny horizons; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in wl.WORKLOADS:
        runs = [measure(name, seed, 0.01, False, smoke=True)]
        runs += [measure(name, seed, 0.01, True, smoke=True, horizon_scale=scale)
                 for scale in (1.0, 2.0)]
        for rec in runs:
            label = f"{name} trace {rec['trace']}"
            got = {k: m["unit"] for k, m in rec["result"]["metrics"].items()}
            if got != wanted[rec["trace"]]:
                problems.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= {sorted(wanted[rec['trace']].items())}")
            if rec["result"]["failed"]:
                problems.append(f"{label}: failures {rec['failures']}")
            if rec.get("count_mismatches"):
                problems.append(f"{label}: calls differ from the closed form "
                                f"{rec['count_mismatches']}")
        print(f"smoke {name}: metrics, units, outputs and closed-form counts at two "
              f"horizons checked")

    corrupted = copy.deepcopy(wl.load_expected())
    corrupted["field"]["auto-lt"]["value"][1] *= 1.0 + 1e-6
    rec = measure("field-autonomous", seed, 0.01, False, smoke=True, expected=corrupted)
    failed = rec["result"]["failed"]
    if failed == 0 or any(not f.startswith("auto-lt-") for f in rec["failures"]):
        problems.append(f"corrupted auto-lt value not reported alone: {rec['failures']}")
    else:
        print(f"smoke corrupted value: reported as {failed} failed auto-lt operations")
    for p in problems:
        print(f"SMOKE FAILURE {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own checks at tiny horizons")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
