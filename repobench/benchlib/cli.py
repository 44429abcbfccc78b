"""Command line of ``repobench/run.py``.

``run.py --workload W --seed N --seconds S --trace 0|1`` prints a short
human-readable report, then, as its last line, the JSON result: the
end-to-end metrics of an untraced run (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``), each with its unit, plus the
operations attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from repro.obs import to_chrome_trace, to_folded_stacks

from .metrics import END_TO_END, PER_LAYER, WORKLOADS, median, result_line
from .workloads import WORKLOAD_RUNNERS, setup

__all__ = ["main", "BENCH_DIR", "ROOT", "SETUP_PROBES"]

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Fresh set-ups per untraced run, half before and half after the
#: rounds so that they sample the host at different times; ``setup_s``
#: is their median.
SETUP_PROBES = 16


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repobench/run.py",
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this many "
                             "seconds have passed (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    return parser


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has done the
    workload's whole set-up (for ``serve``: the service is healthy)."""
    started = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload,
             str(seed)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{err.strip()[-500:]}")
    return elapsed


def _report(workload: str, outcome, traced: bool) -> None:
    catalogue = PER_LAYER if traced else END_TO_END
    kind = "traced" if traced else "untraced"
    print(f"repobench {workload} ({kind}): {outcome.attempted} operations, "
          f"{outcome.failed} failed")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    for metric in catalogue:
        print(f"  {metric.name:<28} {outcome.values[metric.name]:>14.4f} "
              f"{metric.unit}")
    if traced:
        tracer = outcome.tracer
        layers_ms = sum(tracer.self_s.values()) * 1e3
        print(f"  layers' self time {layers_ms:.1f} ms + unattributed "
              f"{tracer.unattributed_s() * 1e3:.1f} ms = traced window "
              f"{tracer.elapsed_s * 1e3:.1f} ms")


def _export(workload: str, seed: int, tracer) -> List[Path]:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    chrome = stem.with_suffix(".chrome.json")
    folded = stem.with_suffix(".folded")
    chrome.write_text(json.dumps(to_chrome_trace(tracer.root, "repobench")))
    folded.write_text(to_folded_stacks(tracer.root) + "\n")
    return [chrome, folded]


def main(argv: List[str]) -> int:
    args = _parser().parse_args(argv)
    probes = 0 if args.trace else SETUP_PROBES
    setup_times = [probe_setup(args.workload, args.seed)
                   for _ in range(probes // 2)]
    state = setup(args.workload, args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOAD_RUNNERS[args.workload](
            state, workdir, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times += [probe_setup(args.workload, args.seed)
                    for _ in range(probes - len(setup_times))]
    if not args.trace:
        outcome.values["setup_s"] = median(setup_times)
    _report(args.workload, outcome, bool(args.trace))
    if args.trace:
        for path in _export(args.workload, args.seed, outcome.tracer):
            print(f"  wrote {path.relative_to(ROOT)}")
    print(result_line(outcome.correct, outcome.attempted, outcome.failed,
                      outcome.values, bool(args.trace)))
    return 0

