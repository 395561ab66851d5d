"""The domain-specific analysis passes, in reporting order."""

from __future__ import annotations

from typing import List

from repro.analysis.base import ProjectPass
from repro.analysis.passes.lock_discipline import LockDisciplinePass

ALL_PASSES: List[ProjectPass] = [
    LockDisciplinePass(),
]

__all__ = [
    "ALL_PASSES",
    "LockDisciplinePass",
]
