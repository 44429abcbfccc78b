"""The benchmark's metric catalogue, percentile rule and result line.

``BENCHMARK.json`` at the repository root is the only declaration of the
workloads and metrics: every metric's unit, better direction and, for
end-to-end metrics, the bound by which it may worsen before a change
counts as a regression.  README.md says what each metric measures on
each workload.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["Metric", "SPEC", "END_TO_END", "PER_LAYER", "WORKLOADS",
           "SELF_TIME_LAYERS", "NAME_RE", "UNIT_RE", "percentile",
           "median", "geomean", "result_line"]

#: Metric name grammar of BENCHMARK.json: letter/digit first, at most 64
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end metrics only: allowed worsening as a share of the
    #: parent's median
    bound: Optional[float] = None


SPEC: dict = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
WORKLOADS: List[str] = [w["name"] for w in SPEC["workloads"]]
END_TO_END: List[Metric] = [Metric(**m) for m in SPEC["end_to_end"]]
PER_LAYER: List[Metric] = [Metric(**m) for m in SPEC["per_layer"]]

#: Layer name -> self-time metric.  These, plus
#: ``trace.unattributed_ms``, partition the traced window.
SELF_TIME_LAYERS: Dict[str, str] = {
    "frontend": "frontend.ms",
    "frontend.parse": "frontend.parse_ms",
    "engines.codegen": "engines.codegen_ms",
    "engines.execute": "engines.execute_ms",
    "depgraph": "depgraph.ms",
    "disambig": "disambig.self_ms",
    "spd.heuristic": "spd.heuristic_ms",
    "spd.transform": "spd.transform_ms",
    "timing": "timing.ms",
    "sched": "sched.ms",
    "hwsim": "hwsim.ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "pipeline": "pipeline.self_ms",
    "corpus.regen": "corpus.regen_ms",
}


def _beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-quantile of *n*."""
    return n - math.ceil(q * n)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, refused unless at least ten samples lie
    beyond it (a median needs one sample)."""
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if q > 0.5 and _beyond(n, q) < 10:
        raise ValueError(f"p{round(q * 100)} of {n} samples has fewer "
                         f"than ten samples beyond it")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], traced: bool) -> str:
    """The final stdout line: exactly the declared metrics of the run
    kind, each with its unit."""
    catalogue = PER_LAYER if traced else END_TO_END
    missing = [m.name for m in catalogue if m.name not in values]
    extra = sorted(set(values) - {m.name for m in catalogue})
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"undeclared {extra}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit}
                    for m in catalogue},
    })
