#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

    python3 repobench/steady.py [--workloads kernels,corpus,serve]
        [--runs 10] [--first-seed 1]

Each run uses another seed and BENCHMARK.json's ``run_seconds``.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile spread as
a share of the median, next to the metric's bound from BENCHMARK.json,
plus each run's share of failed operations.  It exits 1 when a spread
exceeds its bound or the failed share differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(workload: str, results: list, spec: dict) -> bool:
    """Print the spread table; True when every spread is within its
    bound and every run failed the same share of its operations."""
    steady = True
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'/bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = spread / metric["bound"]
        flag = ""
        if spread > metric["bound"]:
            flag, steady = "  OVER BOUND", False
        elif ratio > 1 / 3:
            flag = "  above a third"
        print(f"  {name:<22} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>8.4f} {metric['bound']:>6.2f} {ratio:>7.2f}{flag}")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print("  failed/attempted per run: "
          + ", ".join(f"{f}/{a}" for f, a in shares))
    if len({f / a for f, a in shares}) > 1:
        print("  failed share differs between runs")
        steady = False
    return steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    steady = True
    for workload in args.workloads.split(","):
        results = []
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(_run(workload, seed, spec["run_seconds"]))
        steady &= summarize(workload, results, spec)
        print(f"  ({time.perf_counter() - started:.0f} s)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
