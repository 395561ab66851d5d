"""Morsel-parallel execution backend (``repro.exec``).

Runs the functional layer — hash-table builds, probes, predicate
cascades — across a pool of worker threads pulling morsels from the
thread-safe :class:`~repro.core.scheduler.morsel.MorselDispatcher`,
with results merged deterministically so parallel output is
bit-identical to serial and the measured TableStats (hence every priced
manifest) are the same at any worker count.

The join facades (``NoPartitioningJoin``, ``CoopJoin``) and the scan
facades (``SelectionScan``, ``TpchQ6``) take a ``backend`` of ``None``
(the default: the host tier of the executed rows, :func:`host_tier`,
with its threads capped at the CPUs the process may use), ``"serial"``
or ``"threads"``.  Every hash-table build and probe outside
``repro.core.hashtable`` goes through :func:`execute_build` and
:func:`execute_probe`.
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
    exec_tier,
    host_tier,
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
    "exec_tier",
    "host_tier",
    "make_executor",
]
