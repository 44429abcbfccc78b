"""Sharded on-disk artifact cache for many concurrent clients.

:class:`ShardedArtifactStore` keeps the :class:`ArtifactStore` layout —
entries live under ``root/<stage>/<fingerprint[:2]>/<fingerprint>.pkl``,
every write is tempfile + ``os.replace`` — and layers three properties
on top that a long-running, multi-client service needs:

* **per-shard locks** — writers and readers of one hash-prefix
  directory serialise against each other *within* a process (threads
  sharing one store never interleave a read-modify sequence on the same
  shard); cross-process safety still comes from atomic renames, so a
  fleet of workers and servers can share one cache directory;
* **LRU eviction under a size budget** — ``size_budget_bytes`` bounds
  the total on-disk footprint.  Reads refresh an entry's mtime, so the
  eviction order is least-recently-*used*: when the budget is exceeded,
  the oldest-mtime entries are unlinked first and hot fingerprints
  survive.  Enforcement is opportunistic (every
  ``evict_check_interval`` writes, or on an explicit
  :meth:`enforce_budget` call) and crash-safe — an eviction is a single
  ``unlink`` of a complete entry.

Counters (``repro.obs``): ``pipeline.shard.evictions`` and the
``pipeline.shard.bytes`` gauge.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import obs
from .store import _FROM_ENV, ArtifactStore

__all__ = ["ShardedArtifactStore"]


class ShardedArtifactStore(ArtifactStore):
    """Artifact store with per-shard locks and an LRU size budget."""

    def __init__(self, root=_FROM_ENV, max_memory_entries: int = 1024,
                 size_budget_bytes: Optional[int] = None,
                 evict_check_interval: int = 64):
        super().__init__(root, max_memory_entries)
        if size_budget_bytes is not None and size_budget_bytes < 0:
            raise ValueError("size_budget_bytes must be >= 0 (or None)")
        if evict_check_interval < 1:
            raise ValueError("evict_check_interval must be >= 1")
        self.size_budget_bytes = size_budget_bytes
        self.evict_check_interval = evict_check_interval
        self._shard_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._puts_since_check = 0

    # -- per-shard locking ---------------------------------------------------

    def _shard_lock(self, stage: str, fingerprint: str) -> threading.Lock:
        key = (stage, fingerprint[:2])
        lock = self._shard_locks.get(key)
        if lock is None:
            with self._locks_guard:
                lock = self._shard_locks.setdefault(key, threading.Lock())
        return lock

    # -- disk tier (locked, LRU-touched) -------------------------------------

    def _disk_get(self, stage: str, fingerprint: str):
        if self.root is None:
            return None
        with self._shard_lock(stage, fingerprint):
            artifact = super()._disk_get(stage, fingerprint)
            if artifact is not None:
                self._touch(self._path(stage, fingerprint))
            return artifact

    def _disk_put(self, stage: str, fingerprint: str, artifact) -> None:
        if self.root is None:
            return
        with self._shard_lock(stage, fingerprint):
            super()._disk_put(stage, fingerprint, artifact)
        if self.size_budget_bytes is None:
            return
        self._puts_since_check += 1
        if self._puts_since_check >= self.evict_check_interval:
            self._puts_since_check = 0
            self.enforce_budget()

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh the entry's mtime so eviction sees it as hot."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- size-budget eviction ------------------------------------------------

    def _scan_entries(self) -> List[Tuple[float, int, Path, str, str]]:
        """Every complete entry file as (mtime, size, path, stage, shard)."""
        entries: List[Tuple[float, int, Path, str, str]] = []
        if self.root is None or not self.root.is_dir():
            return entries
        for stage_dir in self.root.iterdir():
            if not stage_dir.is_dir():
                continue
            for path in stage_dir.glob("*/*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # evicted or replaced under our feet
                entries.append((stat.st_mtime, stat.st_size, path,
                                stage_dir.name, path.parent.name))
        return entries

    def disk_usage_bytes(self) -> int:
        """Total size of all complete on-disk entries."""
        return sum(size for _, size, _, _, _ in self._scan_entries())

    def enforce_budget(self) -> int:
        """Evict least-recently-used entries until the on-disk footprint
        fits ``size_budget_bytes``; return the number evicted."""
        if self.root is None or self.size_budget_bytes is None:
            return 0
        entries = self._scan_entries()
        total = sum(size for _, size, _, _, _ in entries)
        evicted = 0
        for mtime, size, path, stage, shard in sorted(entries):
            if total <= self.size_budget_bytes:
                break
            with self._shard_lock(stage, shard):
                try:
                    os.unlink(path)
                except OSError:
                    continue
            # the memory tier may still hold the value; that is fine —
            # it is an LRU of its own and the disk copy can always be
            # rebuilt from a pipeline rerun
            total -= size
            evicted += 1
        if evicted:
            obs.incr("pipeline.shard.evictions", evicted)
        obs.set_gauge("pipeline.shard.bytes", total)
        return evicted

    def shard_stats(self) -> Dict[str, object]:
        """JSON-ready footprint summary for the service stats endpoint."""
        entries = self._scan_entries()
        per_stage: Dict[str, int] = {}
        for _, size, _, stage, _ in entries:
            per_stage[stage] = per_stage.get(stage, 0) + 1
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _, _, _ in entries),
            "budget_bytes": self.size_budget_bytes,
            "per_stage": dict(sorted(per_stage.items())),
        }
