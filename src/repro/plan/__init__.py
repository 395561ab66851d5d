"""Declarative phase-plan IR and its pricing executor.

Operators compile their work into a :class:`Plan` — a validated
sequence of :class:`PhaseSpec` steps run in declared order — and hand
it to the :class:`PlanExecutor`, which owns all pricing, overlap
arithmetic, concurrency solving, and observability emission.  New
operators emit a phase sequence; they do not re-implement the runtime.
"""

from repro.plan.executor import PhaseOutcome, PlanExecutor, PlanResult
from repro.plan.ingest import IngestSpec, ingest
from repro.plan.overlap import pipeline_makespan
from repro.plan.spec import (
    Chunked,
    MorselWorker,
    PhaseKind,
    PhaseSpec,
    Plan,
    PlanError,
    Surcharge,
    WorkerLoad,
    concurrent_phase,
    fixed_phase,
    morsel_phase,
    priced_phase,
)

__all__ = [
    "Chunked",
    "IngestSpec",
    "MorselWorker",
    "PhaseKind",
    "PhaseOutcome",
    "PhaseSpec",
    "Plan",
    "PlanError",
    "PlanExecutor",
    "PlanResult",
    "Surcharge",
    "WorkerLoad",
    "concurrent_phase",
    "fixed_phase",
    "ingest",
    "morsel_phase",
    "pipeline_makespan",
    "priced_phase",
]
