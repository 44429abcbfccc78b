#!/usr/bin/env python3
"""One fresh set-up of a workload, for measuring ``setup_s``.

    python3 repobench/probe.py WORKLOAD SEED

Does everything a benchmark run does before its first timed operation
(imports, input load and regeneration; for ``serve`` also starting the
service until it is healthy), prints ``ready``, then stops the service.
"""

import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

if __name__ == "__main__":
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    from benchlib.service import Server
    from benchlib.workloads import setup

    workload, seed = sys.argv[1], int(sys.argv[2])
    setup(workload, seed)
    if workload != "serve":
        print("ready", flush=True)
        sys.exit(0)
    workdir = BENCH_DIR / "out" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    server = Server(ROOT, workdir, "probe")
    try:
        server.start()
        print("ready", flush=True)
    finally:
        server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
