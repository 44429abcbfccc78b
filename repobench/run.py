#!/usr/bin/env python3
"""The repository benchmark (see README.md in this directory).

    python3 repobench/run.py --workload kernels|corpus|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported
from ``src/`` of that checkout.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repobench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    from benchlib.cli import main
    sys.exit(main(sys.argv[1:]))
