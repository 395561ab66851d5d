"""The declarative phase-plan IR.

Operators *compile to plans* instead of orchestrating pricing inline: a
:class:`Plan` is a validated sequence of :class:`PhaseSpec` steps, each
carrying the access profiles (or solver loads, or a precomputed cost)
of one execution phase.  Phases run in declared order, each after the
one before it finishes (build, then probe; partition, then join).  One
:class:`~repro.plan.executor.PlanExecutor` prices every phase through
the cost model, applies chunked transfer/compute overlap, runs
concurrent workers within a phase through the max-min fair solver or
the morsel discrete-event simulation, and emits observability
spans/metrics exactly once per phase.

Four phase kinds cover every operator in the repro:

* ``PRICED`` — one access profile, priced by ``CostModel.phase_cost``
  (optionally with :class:`Chunked` overlap and :class:`Surcharge`
  add-ons such as hash-table broadcasts);
* ``CONCURRENT`` — several workers progress together; per-worker
  occupancy demands feed the max-min fair rate solver.  With
  ``shared_units`` set the workers drain one shared pool of work
  (co-processed build/probe); without it every worker must finish its
  own units and the phase ends at the slowest (barrier semantics,
  e.g. parallel per-dimension builds);
* ``MORSEL`` — like ``CONCURRENT`` pool mode, but the shared pool is
  handed out by the morsel dispatcher inside a discrete-event
  simulation (end-of-input skew, GPU batching);
* ``FIXED`` — a precomputed :class:`~repro.costmodel.model.PhaseCost`
  (closed-form phases like the radix baseline's in-cache join pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.costmodel.access import AccessProfile
from repro.costmodel.model import PhaseCost


class PlanError(ValueError):
    """Raised for invalid plans (empty, duplicate or malformed phases)."""


class PhaseKind(Enum):
    """How the executor prices a phase (one runner per kind)."""

    PRICED = "priced"
    CONCURRENT = "concurrent"
    MORSEL = "morsel"
    FIXED = "fixed"


@dataclass(frozen=True)
class Chunked:
    """Chunked transfer/compute overlap of a push-based pipeline.

    Section 4.1: with ``chunks`` chunks in flight, a two-stage pipeline
    whose slowest stage takes ``T`` seconds total completes in
    ``T * (1 + 1/chunks)`` plus per-chunk overheads — the executor
    computes this via :func:`repro.plan.overlap.pipeline_makespan`
    instead of operators folding it into ``makespan_factor`` by hand.
    """

    chunks: int
    per_chunk_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.chunks <= 0:
            raise PlanError(f"need at least one chunk, got {self.chunks}")
        if self.per_chunk_overhead < 0:
            raise PlanError(
                f"negative per-chunk overhead: {self.per_chunk_overhead}"
            )


@dataclass(frozen=True)
class Surcharge:
    """Extra serial seconds a phase pays on one resource.

    Used for synchronous hash-table broadcasts (GPU+Het step 2,
    replicated multi-GPU placement): the copy rides on top of the
    priced build and occupies the builder's link.
    """

    seconds: float
    resource: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise PlanError(f"negative surcharge: {self.seconds}")


@dataclass(frozen=True)
class WorkerLoad:
    """One worker's access profile and work-unit count in a phase."""

    profile: AccessProfile
    units: float

    def __post_init__(self) -> None:
        if self.units <= 0:
            raise PlanError(f"worker load needs positive units: {self.units}")


@dataclass(frozen=True)
class MorselWorker:
    """Dispatcher configuration of one morsel-phase worker."""

    dispatch_latency: float
    #: morsels per grant; ``None`` auto-tunes from the solved rate.
    batch_morsels: Optional[int] = None


@dataclass
class PhaseSpec:
    """One phase of a plan: payload and span metadata."""

    name: str
    kind: PhaseKind
    # -- PRICED ---------------------------------------------------------
    profile: Optional[AccessProfile] = None
    chunked: Optional[Chunked] = None
    surcharges: Tuple[Surcharge, ...] = ()
    # -- CONCURRENT / MORSEL -------------------------------------------
    loads: Dict[str, WorkerLoad] = field(default_factory=dict)
    #: pool mode: total shared units the workers drain together; the
    #: phase takes ``shared_units / sum(rates)``.  ``None`` = barrier
    #: mode: every load finishes its own units, slowest wins.
    shared_units: Optional[float] = None
    # -- MORSEL ---------------------------------------------------------
    morsel_tuples: int = 0
    morsel_workers: Dict[str, MorselWorker] = field(default_factory=dict)
    # -- FIXED ----------------------------------------------------------
    fixed_cost: Optional[PhaseCost] = None
    # -- span metadata --------------------------------------------------
    span_worker: str = ""
    span_units: float = 0.0
    span_attrs: Dict[str, Any] = field(default_factory=dict)
    #: attributes annotated onto the span after execution (e.g. the
    #: functional match count), alongside the phase's bottleneck.
    annotations: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanError("phase needs a non-empty name")
        if self.kind is PhaseKind.PRICED and self.profile is None:
            raise PlanError(f"priced phase {self.name!r} needs a profile")
        if self.kind in (PhaseKind.CONCURRENT, PhaseKind.MORSEL):
            if not self.loads:
                raise PlanError(
                    f"{self.kind.value} phase {self.name!r} needs worker loads"
                )
        if self.kind is PhaseKind.MORSEL:
            if self.morsel_tuples <= 0:
                raise PlanError(
                    f"morsel phase {self.name!r} needs a positive morsel size"
                )
            if self.shared_units is None:
                raise PlanError(
                    f"morsel phase {self.name!r} needs shared_units "
                    "(the dispatcher pool)"
                )
            missing = set(self.loads) - set(self.morsel_workers)
            if missing:
                raise PlanError(
                    f"morsel phase {self.name!r} lacks dispatcher config "
                    f"for worker(s) {sorted(missing)}"
                )
        if self.kind is PhaseKind.FIXED and self.fixed_cost is None:
            raise PlanError(f"fixed phase {self.name!r} needs a cost")


def priced_phase(
    name: str,
    profile: AccessProfile,
    chunked: Optional[Chunked] = None,
    surcharges: Tuple[Surcharge, ...] = (),
    span_worker: str = "",
    span_units: float = 0.0,
    span_attrs: Optional[Dict[str, Any]] = None,
    annotations: Optional[Dict[str, Any]] = None,
) -> PhaseSpec:
    """A single-profile phase priced by ``CostModel.phase_cost``."""
    return PhaseSpec(
        name=name,
        kind=PhaseKind.PRICED,
        profile=profile,
        chunked=chunked,
        surcharges=tuple(surcharges),
        span_worker=span_worker or (profile.processor or ""),
        span_units=span_units,
        span_attrs=dict(span_attrs or {}),
        annotations=dict(annotations or {}),
    )


def concurrent_phase(
    name: str,
    loads: Dict[str, WorkerLoad],
    shared_units: Optional[float] = None,
    surcharges: Tuple[Surcharge, ...] = (),
    span_worker: str = "",
    span_units: float = 0.0,
    span_attrs: Optional[Dict[str, Any]] = None,
    annotations: Optional[Dict[str, Any]] = None,
) -> PhaseSpec:
    """A solver-priced phase: pool mode (shared_units) or barrier mode."""
    return PhaseSpec(
        name=name,
        kind=PhaseKind.CONCURRENT,
        loads=dict(loads),
        shared_units=shared_units,
        surcharges=tuple(surcharges),
        span_worker=span_worker or ",".join(loads),
        span_units=span_units,
        span_attrs=dict(span_attrs or {}),
        annotations=dict(annotations or {}),
    )


def morsel_phase(
    name: str,
    loads: Dict[str, WorkerLoad],
    shared_units: float,
    morsel_tuples: int,
    morsel_workers: Dict[str, MorselWorker],
    span_worker: str = "",
    span_units: float = 0.0,
    span_attrs: Optional[Dict[str, Any]] = None,
    annotations: Optional[Dict[str, Any]] = None,
) -> PhaseSpec:
    """A morsel-dispatched phase run as a discrete-event simulation."""
    return PhaseSpec(
        name=name,
        kind=PhaseKind.MORSEL,
        loads=dict(loads),
        shared_units=shared_units,
        morsel_tuples=morsel_tuples,
        morsel_workers=dict(morsel_workers),
        span_worker=span_worker or ",".join(loads),
        span_units=span_units,
        span_attrs=dict(span_attrs or {}),
        annotations=dict(annotations or {}),
    )


def fixed_phase(
    name: str,
    cost: PhaseCost,
    span_worker: str = "",
    span_units: float = 0.0,
    span_attrs: Optional[Dict[str, Any]] = None,
    annotations: Optional[Dict[str, Any]] = None,
) -> PhaseSpec:
    """A phase with a precomputed closed-form cost."""
    return PhaseSpec(
        name=name,
        kind=PhaseKind.FIXED,
        fixed_cost=cost,
        span_worker=span_worker,
        span_units=span_units,
        span_attrs=dict(span_attrs or {}),
        annotations=dict(annotations or {}),
    )


@dataclass
class Plan:
    """A validated sequence of phases, executed in declared order."""

    phases: List[PhaseSpec]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise PlanError("a plan needs at least one phase")
        seen = set()
        for phase in self.phases:
            if phase.name in seen:
                raise PlanError(f"duplicate phase name {phase.name!r}")
            seen.add(phase.name)

    def __iter__(self):
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)
