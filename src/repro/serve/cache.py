"""Plan/result cache keyed on workload fingerprints.

Optimizing a query enumerates and prices the full physical search
space (transfer methods x placements x strategies x join orders), which
dominates the cost of serving a request whose *answer* is already
known: the registry workloads are deterministic, so two requests for
the same workload on the same machine compile to the same plan and
price to the same phases.  The cache stores the whole solo-priced
artifact — phases, solo makespan, modeled bytes, and the per-query
manifest base.  An entry is shared by every query priced from it and
never handed out: a cache hit costs a lookup, and a query's private
manifest is copied out (:meth:`PlanCacheEntry.manifest_copy`, the only
deep copy in the serving layer) the first time someone reads
``ServedQuery.manifest`` — so a hit is observably identical to a fresh
pricing (the isolation tests pin this) without the serve pass paying
for manifests nobody looks at.

Hit/miss counters are exposed via :meth:`PlanCache.stats` and surface
in the serving benchmark's results section.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.costmodel.model import PhaseCost


def workload_fingerprint(workload: str, machine: str) -> str:
    """Cache key: the registry workload pinned to a machine."""
    return f"{workload}@{machine}"


@dataclass
class PlanCacheEntry:
    """One solo-priced workload: everything a repeat request needs."""

    fingerprint: str
    phases: List[PhaseCost]
    solo_seconds: float
    modeled_bytes: float
    #: solo manifest dict (no ``serving`` section); shared, read-only —
    #: callers get :meth:`manifest_copy`, never this dict.
    manifest: Dict[str, Any] = field(default_factory=dict)

    def manifest_copy(self) -> Dict[str, Any]:
        """A private deep copy of the solo manifest (one per reader)."""
        return copy.deepcopy(self.manifest)


class PlanCache:
    """In-memory fingerprint -> priced-plan cache with hit metrics."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self._entries: Dict[str, PlanCacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> Optional[PlanCacheEntry]:
        """Look up a priced plan, counting the hit or miss."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, entry: PlanCacheEntry) -> None:
        """Insert ``entry``, evicting the oldest at capacity."""
        if (
            self.capacity is not None
            and entry.fingerprint not in self._entries
            and len(self._entries) >= self.capacity
        ):
            # Evict the oldest entry (insertion order); the workload
            # registry is small, so anything smarter is untestable.
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[entry.fingerprint] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-ready counters (benchmark/report input)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


__all__ = [
    "PlanCache",
    "PlanCacheEntry",
    "workload_fingerprint",
]
