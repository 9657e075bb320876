"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--trace 0|1] [--out FILE.json]

Runs `run.py` once per seed on every workload of BENCHMARK.json, for its
run_seconds, one run at a time, and prints
per metric the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, and for each bounded end-to-end
metric but setup_s that spread as a share of the metric's bound.  --out
writes the same summary, with every run's values and notes on the
machine, as JSON.
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


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def machine_notes() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary: dict = {"machine": machine_notes(), "seconds": seconds,
                     "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **summarise(values), "values": values}
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        print(f"{workload}:")
        for name, m in metrics.items():
            bound = bounds.get(name)
            mark = ""
            if bound and name != "setup_s":
                mark = f"  (bound {bound}, spread/bound {m['spread'] / bound:.2f})"
                worst = max(worst, m["spread"] / bound)
            print(f"  {name:32s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} "
                  f"spread {m['spread']:.4f}{mark}", flush=True)
    if args.trace == 0:
        print(f"largest spread/bound: {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
