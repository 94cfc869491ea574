"""Write one trajectory point, ``bench/trajectory/BENCH_<n>.json``.

Run from the repository root:

    python3 bench/trajectory.py --index 0

For each workload of ``BENCHMARK.json`` this runs the benchmark command once
per seed (1..10) with ``--trace 0`` and once with ``--seed 0 --trace 1``, as
separate processes.  For every end-to-end metric it stores the median, the
quartiles and the spread (interquartile distance over the median) of the
ten values, next to the metric's bound; the traced run adds the per-layer
metrics and each operation's call counts.  Compare two points with the same
seeds and settings, and measure both on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    """Run the benchmark command; return its result line and its written record."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread_of(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", type=int, required=True, help="n of BENCH_<n>.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"run_seconds": spec["run_seconds"],
             "seeds": list(SEEDS), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict = {}
        attempted = failed = 0
        for seed in point["seeds"]:
            result, record = run_once(spec, name, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            point["machine"] = record["machine"]
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            s = spread_of(values[m["name"]])
            s.update(unit=m["unit"], bound=m["bound"])
            end_to_end[m["name"]] = s
        traced, trace_record = run_once(spec, name, 0, 1)
        point["workloads"][name] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": end_to_end,
            "ie_lt_ratio": end_to_end["ie_s"]["median"] / end_to_end["lt_s"]["median"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items() if m["value"]},
            "op_counts": trace_record["op_counts"],
            "count_mismatches": trace_record["count_mismatches"],
        }
        for key, s in end_to_end.items():
            print(f"{name} {key}: median {s['median']:.5g} {s['unit']}, "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    out = BENCH / "trajectory" / f"BENCH_{args.index}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
