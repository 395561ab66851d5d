"""Morsel-parallel execution backend (``repro.exec``).

Runs the functional layer — hash-table builds, probes, predicate
cascades — across a pool of worker threads pulling morsels from the
thread-safe :class:`~repro.core.scheduler.morsel.MorselDispatcher`,
with results merged deterministically so parallel output is
bit-identical to serial and the measured TableStats (hence every priced
manifest) are the same at any worker count.

Operators expose it through a ``backend="serial" | "threads"`` knob.
"""

from repro.exec.functional import (
    execute_build,
    execute_masks,
    execute_probe,
)
from repro.exec.pool import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    EXEC_BACKENDS,
    AbortedError,
    MorselExecutor,
    MorselFailedError,
    MorselOutcome,
    check_backend,
    make_executor,
)

__all__ = [
    "AbortedError",
    "DEFAULT_EXEC_MORSEL_TUPLES",
    "DEFAULT_WORKERS",
    "EXEC_BACKENDS",
    "MorselExecutor",
    "MorselFailedError",
    "MorselOutcome",
    "check_backend",
    "execute_build",
    "execute_masks",
    "execute_probe",
    "make_executor",
]
