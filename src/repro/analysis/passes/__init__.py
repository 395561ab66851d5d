"""The domain-specific analysis passes, in reporting order."""

from __future__ import annotations

from typing import List

from repro.analysis.base import AnalysisPass
from repro.analysis.passes.executor_boundary import ExecutorBoundaryPass
from repro.analysis.passes.lock_discipline import LockDisciplinePass

ALL_PASSES: List[AnalysisPass] = [
    ExecutorBoundaryPass(),
    LockDisciplinePass(),
]

__all__ = [
    "ALL_PASSES",
    "ExecutorBoundaryPass",
    "LockDisciplinePass",
]
