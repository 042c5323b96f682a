"""Regenerate the benchmark's reference figures.

Usage (from the repository root):

    python3 perfbench/reference.py --out perfbench/reference.json

Runs every workload of BENCHMARK.json once for each of the seeds 1-10
untraced and once traced (seed 1), one after the other, at the run
length of BENCHMARK.json, and measures the bare-interpreter floor.
Writes the per-run values and, per end-to-end metric, the median, the
quartiles and the spread (quartile distance over median) that the
benchmark's bounds are compared with.  One run takes 30-50 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    result["run_s"] = time.perf_counter() - t0
    return result


def floor_s(repeats: int = 10) -> float:
    """Median wall-clock of `python3 -c pass`: the cost of any command before hdspec."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"seconds": seconds, "floor_s": floor_s(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(values), "bound": bound[name]}
            print(f"{workload:12s} {name:18s} median {summary[name]['median']:.4g}  "
                  f"spread {summary[name]['spread']:.3f}  bound {bound[name]}", flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in runs}),
            "run_s": [r["run_s"] for r in runs],
            "end_to_end": summary,
            "values": {name: [r["metrics"][name]["value"] for r in runs] for name in summary},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{workload:12s} correct {out['workloads'][workload]['correct']}  "
              f"failed/attempted {out['workloads'][workload]['failed_share']}", flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
