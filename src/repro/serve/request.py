"""Request/response records of the multi-query serving engine.

A :class:`QueryRequest` names a workload from the shared
:mod:`repro.logical.explain` registry, the tenant submitting it, its
virtual arrival time, and (optionally) a deadline — a latency budget in
virtual seconds the scheduler enforces by cancelling the query
mid-phase when it expires.  The service answers with a
:class:`ServedQuery`: the solo-priced phases, the contention-stretched
start/finish times the scheduler assigned, the terminal outcome the
resilience layer decided (finished / deadline-exceeded / failed), and a
per-query schema-versioned manifest whose ``serving`` section
(:meth:`ServingRecord.section`) records how the shared machine treated
this query — arrival-to-finish latency, solo seconds, stretch, retries,
cancellation time, and the workload's circuit-breaker state.  The
``serving`` section is built when the query terminates; the rest of the
manifest stays in the shared plan-cache entry until
:attr:`ServedQuery.manifest` is first read, which copies it out once.

Requests turned away *before* running land in two typed buckets:
:class:`Rejection` (admission quota or open breaker) and
:class:`ShedQuery` (overload control — bounded queue or predicted
stretch).  :meth:`ServingReport.conservation` accounts for every
submitted request across all five terminal buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.costmodel.model import PhaseCost

from repro.serve.cache import PlanCacheEntry
from repro.serve.policy import (
    OUTCOME_DEADLINE,
    OUTCOME_FAILED,
    OUTCOME_FINISHED,
    OUTCOMES,
    ShedError,
)

#: version of the per-query ``serving`` manifest section.  ``1.1``
#: added the resilience fields: ``outcome``, ``deadline``,
#: ``cancelled_at``, ``retries``, ``shed_reason``, ``breaker_state``.
SERVING_SCHEMA_VERSION = "1.1"


@dataclass(frozen=True)
class QueryRequest:
    """One submitted query: who wants what, and when it arrives."""

    request_id: int
    tenant: str
    workload: str
    machine: str
    #: virtual arrival time (seconds on the serving simulator's clock).
    arrival: float
    #: latency budget in virtual seconds from ``arrival`` (None = no
    #: deadline).  The scheduler cancels the query — mid-phase, wherever
    #: it is — when ``arrival + deadline`` passes before completion.
    deadline: Optional[float] = None

    @property
    def absolute_deadline(self) -> Optional[float]:
        """The virtual timestamp the deadline fires at, or None."""
        if self.deadline is None:
            return None
        return self.arrival + self.deadline

    def describe(self) -> str:
        """One-line human-readable summary of the request."""
        budget = (
            f" deadline={self.deadline:.6f}s" if self.deadline is not None else ""
        )
        return (
            f"request #{self.request_id} [{self.tenant}] "
            f"{self.workload}@{self.machine} at t={self.arrival:.6f}{budget}"
        )


@dataclass
class ServingRecord:
    """The serving-layer outcome of one query (manifest section)."""

    request_id: int
    tenant: str
    workload: str
    machine: str
    arrival: float
    start: float
    finish: float
    solo_seconds: float
    cache_hit: bool
    #: terminal state: one of :data:`repro.serve.policy.OUTCOMES`.
    outcome: str = OUTCOME_FINISHED
    #: the request's latency budget (virtual seconds), or None.
    deadline: Optional[float] = None
    #: virtual time the query was cancelled (deadline) or failed, None
    #: for completed queries.
    cancelled_at: Optional[float] = None
    #: serving-level resubmissions this query consumed.
    retries: int = 0
    #: typed shed reason — always None here (shed requests never run;
    #: they are reported as :class:`ShedQuery`), kept in the schema so
    #: the section's key set states the full vocabulary.
    shed_reason: Optional[str] = None
    #: the workload's circuit-breaker state when the query terminated,
    #: or None when no breaker was configured (the inert default).
    breaker_state: Optional[str] = None

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(
                f"unknown serving outcome {self.outcome!r}; valid: "
                + ", ".join(OUTCOMES)
            )

    @property
    def latency(self) -> float:
        """Arrival-to-termination virtual latency (queueing + stretch)."""
        return self.finish - self.arrival

    @property
    def stretch(self) -> float:
        """Latency over solo runtime; 1.0 means no contention."""
        if self.solo_seconds <= 0:
            return 1.0
        return self.latency / self.solo_seconds

    def section(self) -> Dict[str, Any]:
        """The manifest's ``serving`` section (schema-checked)."""
        return {
            "schema_version": SERVING_SCHEMA_VERSION,
            "request_id": self.request_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "machine": self.machine,
            "arrival": self.arrival,
            "start": self.start,
            "finish": self.finish,
            "latency": self.latency,
            "solo_seconds": self.solo_seconds,
            "stretch": self.stretch,
            "cache_hit": self.cache_hit,
            "outcome": self.outcome,
            "deadline": self.deadline,
            "cancelled_at": self.cancelled_at,
            "retries": self.retries,
            "shed_reason": self.shed_reason,
            "breaker_state": self.breaker_state,
        }


@dataclass
class ServedQuery:
    """One admitted query: priced phases in, scheduled times out."""

    request: QueryRequest
    #: the solo-priced phase costs the scheduler stretches.
    phases: List[PhaseCost]
    #: solo makespan: the in-order sum of the phases' seconds
    #: (contention-free latency).
    solo_seconds: float
    cache_hit: bool = False
    #: the plan-cache entry this query was priced from — shared with
    #: every other query of the workload and never handed out;
    #: :attr:`manifest` copies out of it on first read.
    entry: Optional[PlanCacheEntry] = None
    #: filled by the scheduler (virtual seconds).  ``finish`` is the
    #: time the query *terminated* — completion, cancellation, or
    #: failure; ``outcome`` says which.
    start: float = 0.0
    finish: float = 0.0
    outcome: str = OUTCOME_FINISHED
    #: virtual time a deadline/failure removed the query mid-flight.
    cancelled_at: Optional[float] = None
    #: serving-level resubmissions consumed (fault retries).
    retries: int = 0
    #: the workload's circuit-breaker state at termination (None when
    #: no breaker was configured).
    breaker_state: Optional[str] = None
    #: the ``serving`` section, built by the service once the query
    #: terminated (None until then).
    serving: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False
    )
    _manifest: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def latency(self) -> float:
        return self.finish - self.request.arrival

    @property
    def manifest(self) -> Dict[str, Any]:
        """This query's private manifest: solo sections + ``serving``.

        Copied out of the shared cache entry on first read and kept, so
        a serve pass costs nothing for manifests nobody looks at; the
        dict is plain, JSON-serialisable and the caller's to mutate
        (``{}`` for a query built without an entry).
        """
        if self._manifest is None:
            manifest = (
                self.entry.manifest_copy() if self.entry is not None else {}
            )
            if self.serving is not None:
                manifest["serving"] = self.serving
            self._manifest = manifest
        return self._manifest

    def serving_record(self) -> ServingRecord:
        """This query's ``serving`` manifest-section record."""
        return ServingRecord(
            request_id=self.request.request_id,
            tenant=self.request.tenant,
            workload=self.request.workload,
            machine=self.request.machine,
            arrival=self.request.arrival,
            start=self.start,
            finish=self.finish,
            solo_seconds=self.solo_seconds,
            cache_hit=self.cache_hit,
            outcome=self.outcome,
            deadline=self.request.deadline,
            cancelled_at=self.cancelled_at,
            retries=self.retries,
            breaker_state=self.breaker_state,
        )


@dataclass
class Rejection:
    """One request turned away before running (quota or open breaker)."""

    request: QueryRequest
    #: the typed error: :class:`repro.serve.admission.AdmissionError`
    #: or :class:`repro.serve.policy.CircuitOpenError`.
    error: Exception

    def describe(self) -> str:
        return f"{self.request.describe()} — rejected: {self.error}"


@dataclass
class ShedQuery:
    """One request load-shed by overload control (typed, pre-admission)."""

    request: QueryRequest
    #: one of :data:`repro.serve.policy.SHED_REASONS`.
    reason: str
    #: the observed value that tripped the policy (queue depth or
    #: predicted stretch).
    detail: float
    #: virtual time the shed decision was made.
    at: float

    def describe(self) -> str:
        """One-line human-readable summary of the shed decision."""
        return (
            f"{self.request.describe()} — shed at t={self.at:.6f} "
            f"({self.reason}: {self.detail:g})"
        )

    def as_error(self) -> "ShedError":
        """This shed decision as its typed error (for raising callers)."""
        return ShedError(
            reason=self.reason,
            request_id=self.request.request_id,
            detail=self.detail,
        )


@dataclass
class ServingReport:
    """Everything one :meth:`QueryService.serve` call produced."""

    #: queries that ran to completion.
    served: List[ServedQuery]
    #: requests turned away before running (quota or open breaker).
    rejections: List[Rejection]
    #: plan/result cache counters (``PlanCache.stats()``).
    cache: Dict[str, Any]
    #: virtual time the last query finished.
    makespan: float
    #: most queries simultaneously active on the simulated machine.
    peak_concurrency: int
    #: queries cancelled mid-flight by their deadline.
    deadline_exceeded: List[ServedQuery] = field(default_factory=list)
    #: queries that terminally failed (retry budget spent, or the
    #: half-open probe of an open breaker failed again).
    failed: List[ServedQuery] = field(default_factory=list)
    #: requests load-shed by overload control.
    shed: List[ShedQuery] = field(default_factory=list)
    #: per-workload circuit-breaker counters (``CircuitBreaker.snapshot``).
    breaker: Dict[str, Any] = field(default_factory=dict)
    #: serving-level resilience audit (``ResilienceLog.section`` dump)
    #: for chaos runs; None when no fault plan was installed.
    resilience: Optional[Dict[str, Any]] = None

    def latencies(self) -> List[float]:
        """Per-query virtual latencies in request-id order."""
        ordered = sorted(self.served, key=lambda q: q.request.request_id)
        return [q.latency for q in ordered]

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the served latencies."""
        return percentile(self.latencies(), fraction)

    def query(self, request_id: int) -> Optional[ServedQuery]:
        """The terminated query with ``request_id``, or ``None``."""
        for bucket in (self.served, self.deadline_exceeded, self.failed):
            for served in bucket:
                if served.request.request_id == request_id:
                    return served
        return None

    def outcome_counts(self) -> Dict[str, int]:
        """Terminal-bucket sizes, zero-filled (report/bench input)."""
        return {
            OUTCOME_FINISHED: len(self.served),
            OUTCOME_DEADLINE: len(self.deadline_exceeded),
            OUTCOME_FAILED: len(self.failed),
            "rejected": len(self.rejections),
            "shed": len(self.shed),
        }

    def total_retries(self) -> int:
        """Serving-level resubmissions across every terminated query."""
        return sum(
            q.retries
            for bucket in (self.served, self.deadline_exceeded, self.failed)
            for q in bucket
        )

    def conservation(self, submitted: int) -> bool:
        """Every submitted request landed in exactly one terminal bucket."""
        return submitted == sum(self.outcome_counts().values())


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction out of range: {fraction}")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]
