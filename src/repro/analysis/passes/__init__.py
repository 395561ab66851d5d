"""The domain-specific analysis passes, in reporting order."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.base import AnalysisPass
from repro.analysis.passes.coherence import SimulatedCoherencePass
from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.executor_boundary import ExecutorBoundaryPass
from repro.analysis.passes.lock_discipline import LockDisciplinePass
from repro.analysis.passes.unit_safety import UnitSafetyPass
from repro.analysis.passes.vectorization import VectorizationPass

ALL_PASSES: List[AnalysisPass] = [
    UnitSafetyPass(),
    DeterminismPass(),
    VectorizationPass(),
    SimulatedCoherencePass(),
    ExecutorBoundaryPass(),
    LockDisciplinePass(),
]


def get_passes(names: Optional[Sequence[str]] = None) -> List[AnalysisPass]:
    """Resolve a rule-name selection; ``None`` means every pass."""
    if names is None:
        return list(ALL_PASSES)
    by_name = {p.name: p for p in ALL_PASSES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        valid = ", ".join(sorted(by_name))
        raise ValueError(f"unknown rule(s) {unknown}; valid rules: {valid}")
    return [by_name[n] for n in names]


__all__ = [
    "ALL_PASSES",
    "DeterminismPass",
    "ExecutorBoundaryPass",
    "LockDisciplinePass",
    "SimulatedCoherencePass",
    "UnitSafetyPass",
    "VectorizationPass",
    "get_passes",
]
