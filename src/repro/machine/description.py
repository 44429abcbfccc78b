"""LIFE machine descriptions (paper Sections 6.1-6.2).

The experiments use LIFE implementations with one to eight *universal*
functional units — every unit can execute any operation — plus the
idealised infinite machine.  Guarded (conditional) execution is modelled
by the timing rule that an operation may issue before its guard is
ready, but cannot complete earlier than one cycle after the guard value
becomes available (Section 3.2 / Figure 3-1).

The dynamically scheduled hardware counterpart (register renaming,
issue window, load/store queue) is :class:`~repro.machine.hw.HwMachine`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .latencies import LatencyTable, TABLE_6_1_MEM2, TABLE_6_1_MEM6

__all__ = ["LifeMachine", "INFINITE", "paper_machines", "machine"]


@dataclass(frozen=True)
class LifeMachine:
    """One LIFE implementation: issue width plus the latency table.

    ``num_fus=None`` denotes the infinite machine of the paper's
    first-stage simulator (unbounded issue width).
    """

    num_fus: Optional[int] = None
    latencies: LatencyTable = TABLE_6_1_MEM2
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_fus is not None and self.num_fus < 1:
            raise ValueError("num_fus must be >= 1 (or None for infinite)")
        if not self.name:
            width = "inf" if self.num_fus is None else str(self.num_fus)
            object.__setattr__(
                self, "name", f"life-{width}fu-mem{self.latencies.memory}"
            )

    @property
    def is_infinite(self) -> bool:
        return self.num_fus is None

    @property
    def memory_latency(self) -> int:
        return self.latencies.memory

    def with_fus(self, num_fus: Optional[int]) -> "LifeMachine":
        return replace(self, num_fus=num_fus, name="")

    def as_dict(self) -> Dict[str, object]:
        """The machine as JSON exports and serve bodies describe it."""
        return {"name": self.name, "num_fus": self.num_fus,
                "memory_latency": self.memory_latency}


#: The idealised machine used by the profiling simulator.
INFINITE = LifeMachine(num_fus=None)


def machine(num_fus: Optional[int], memory_latency: int = 2) -> LifeMachine:
    """Convenience constructor for the paper's configurations."""
    if memory_latency == 2:
        table = TABLE_6_1_MEM2
    elif memory_latency == 6:
        table = TABLE_6_1_MEM6
    else:
        table = LatencyTable(memory=memory_latency)
    return LifeMachine(num_fus=num_fus, latencies=table)


def paper_machines(memory_latency: int = 2) -> List[LifeMachine]:
    """The 1..8-FU sweep of Figure 6-3 for one memory latency."""
    return [machine(n, memory_latency) for n in range(1, 9)]
