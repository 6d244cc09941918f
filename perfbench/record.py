"""Measure baselines: run.py over several seeds per workload.

    python3 perfbench/record.py --runs 10 --seconds 30 [--first-seed 1]

For every workload, makes --runs untraced runs with seeds first-seed,
first-seed+1, ... and one traced run with the first seed. For each
end-to-end metric it prints and records the median, the quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, next to
the metric's bound in BENCHMARK.json. The record, with the machine's core
count, the Python version and the git commit measured, is written to
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    record = {
        "commit": git.stdout.strip() or None,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for name, w in WORKLOADS.items():
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [bench(name, seed, args.seconds, 0) for seed in seeds]
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            metrics[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"{name:15} {metric:18} median {med:12.4f}  spread {spread:.4f}  "
                  f"bound {bound:.2f}{'  WIDE' if spread > bound / 3 else ''}", flush=True)
        traced = bench(name, args.first_seed, args.seconds, 1)
        record["workloads"][name] = {
            "programs": list(w.programs),
            "flags": [*w.flags, "--seed", "<seed>", "--jobs", "1"],
            "runs": args.runs,
            "seeds": list(seeds),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
