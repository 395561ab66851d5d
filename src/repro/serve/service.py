"""The serving front door: submit queries, serve them, get manifests.

:class:`QueryService` is the entry point of the multi-query engine
(ROADMAP item 1).  Callers — a thread pool, a load generator, a test —
``submit()`` requests naming a workload from the shared
:mod:`repro.logical.explain` registry; ``serve()`` then:

1. **compiles** each distinct workload through the logical layer
   (:func:`repro.logical.optimizer.optimize`) and prices the chosen
   plan with a *fresh* :class:`~repro.obs.Observability` bundle and
   cost model per workload — per-query metrics and spans can never
   bleed between co-running queries because no two queries ever share
   a registry (pinned by the isolation tests);
2. **caches** the priced artifact by workload fingerprint
   (:mod:`repro.serve.cache`), so repeat requests skip the optimizer's
   search-space enumeration entirely — every query keeps a reference
   to its shared cache entry, nothing is copied per request;
3. **admits** each request against its workload's circuit breaker and
   its tenant's quota at its virtual arrival time
   (:mod:`repro.serve.admission`), converting typed
   :class:`~repro.serve.admission.AdmissionError` /
   :class:`~repro.serve.policy.CircuitOpenError` rejections into
   report entries instead of aborting the run;
4. **schedules** the admitted queries over one simulated machine
   (:mod:`repro.serve.scheduler`), where overlapping phases contend
   through the max-min fair rate solver — with the resilience layer
   active: per-request deadlines cancel overrunning queries mid-phase,
   an installed :class:`~repro.faults.FaultPlan` can fail in-flight
   queries (resubmitted with the policy's capped virtual-time backoff)
   or degrade link capacity mid-serving, and overload beyond the
   policy's bounds is load-shed with typed reasons;
5. **builds** each terminated query's schema-versioned ``serving``
   section (arrival, start, finish, latency, stretch, cache hit,
   outcome, deadline, cancellation time, retries, breaker state) and
   returns everything as a
   :class:`~repro.serve.request.ServingReport`, then audits that every
   admission share returned exactly to zero.  A query's manifest —
   a private copy of the cached solo manifest plus that ``serving``
   section — is materialised when ``ServedQuery.manifest`` is first
   read, not here.

``submit()`` is thread-safe (a lock guards the request log); the serve
pass itself is deterministic and single-threaded — virtual time, not
wall-clock, decides every latency, backoff, and breaker transition.
With no fault plan installed and the default (inert)
:class:`~repro.serve.policy.ServicePolicy`, a serve pass is
bit-identical to the fair-weather PR 9 engine.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.costmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.costmodel.model import CostModel
from repro.faults.plan import FaultPlan, QueryFault
from repro.faults.resilience import ResilienceLog
from repro.faults.runtime import active_plan
from repro.logical.algebra import Scan
from repro.logical.explain import MACHINES, WORKLOADS
from repro.logical.optimizer import optimize
from repro.obs import Observability
from repro.obs.manifest import build_manifest
from repro.plan import PlanExecutor

from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    TenantQuota,
)
from repro.serve.cache import (
    PlanCache,
    PlanCacheEntry,
    workload_fingerprint,
)
from repro.serve.policy import CircuitOpenError, ServicePolicy
from repro.serve.request import (
    QueryRequest,
    Rejection,
    ServedQuery,
    ServingReport,
)
from repro.serve.scheduler import CapacityHook, ContentionScheduler, PhaseFault


def modeled_query_bytes(query: Any) -> float:
    """Modeled input bytes of a logical query: sum over its scans.

    This is the paper-scale data volume the cost model prices (what a
    tenant's quota should meter), not the scaled-down executed arrays.
    """
    root = query.node if hasattr(query, "node") else query
    total = 0.0
    for node in root.walk():
        if isinstance(node, Scan):
            total += node.modeled_rows * sum(node.column_bytes())
    return total


def _capacity_hook(plan: FaultPlan) -> CapacityHook:
    """``plan.resource_factor`` answered from a table for one serve pass.

    ``resource_factor`` reads only the plan's frozen rules and the state
    a :class:`~repro.faults.plan.DegradeLink` record moves, and each such
    record bumps ``plan.link_faults``.  So an answer from a call that
    recorded nothing stays exact until that count moves, and a call that
    did record is never stored; a ``FailQuery`` record leaves every
    answer standing.  The hook exposes the count as ``epoch()``, so the
    scheduler also skips asking again for a phase whose vector it derived
    at the current epoch.  ``serve`` drives the scheduler from one
    thread, so the table needs no lock.
    """
    answers: Dict[str, Tuple[int, float]] = {}

    def capacity(resource: str) -> float:
        count = plan.link_faults
        known = answers.get(resource)
        if known is not None and known[0] == count:
            return known[1]
        factor = plan.resource_factor(resource)
        if plan.link_faults == count:
            answers[resource] = (count, factor)
        return factor

    capacity.epoch = lambda: plan.link_faults  # type: ignore[attr-defined]
    return capacity


class QueryService:
    """Front door of the multi-query serving engine."""

    def __init__(
        self,
        machine: str = "ibm-ac922",
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        cache: Optional[PlanCache] = None,
        policy: Optional[ServicePolicy] = None,
    ) -> None:
        if machine not in MACHINES:
            raise KeyError(
                f"unknown machine {machine!r}; valid: "
                f"{', '.join(sorted(MACHINES))}"
            )
        self.machine_name = machine
        self.calibration = calibration
        self.admission = AdmissionController(
            quotas=quotas,
            default=default_quota
            if default_quota is not None
            else TenantQuota(),
        )
        self.cache = cache if cache is not None else PlanCache()
        self.scheduler = ContentionScheduler()
        self.policy = policy if policy is not None else ServicePolicy()
        #: persistent across serve passes: an opened circuit stays open
        #: into the next pass until its (virtual-time) cooldown elapses.
        self.breaker = self.policy.build_breaker()
        self._lock = threading.Lock()
        self._requests: List[QueryRequest] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        workload: str,
        arrival: float,
        deadline: Optional[float] = None,
    ) -> QueryRequest:
        """Register a request (thread-safe); served on ``serve()``.

        ``deadline`` is a latency budget in virtual seconds from
        ``arrival``; omitted, the policy's ``default_deadline`` (if
        any) applies.
        """
        if workload not in WORKLOADS:
            raise KeyError(
                f"unknown workload {workload!r}; valid: "
                f"{', '.join(sorted(WORKLOADS))}"
            )
        if not math.isfinite(arrival) or arrival < 0:
            raise ValueError(
                f"arrival must be finite and >= 0, got {arrival}"
            )
        if deadline is None:
            deadline = self.policy.default_deadline
        elif not math.isfinite(deadline) or deadline <= 0:
            raise ValueError(
                f"deadline must be finite and positive, got {deadline}"
            )
        with self._lock:
            request = QueryRequest(
                request_id=self._next_id,
                tenant=tenant,
                workload=workload,
                machine=self.machine_name,
                arrival=arrival,
                deadline=deadline,
            )
            self._next_id += 1
            self._requests.append(request)
        return request

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._requests)

    # ------------------------------------------------------------------
    # Pricing (cache-aware)
    # ------------------------------------------------------------------
    def _price_workload(self, workload: str) -> PlanCacheEntry:
        """Optimize + solo-price one workload with isolated obs state."""
        fingerprint = workload_fingerprint(workload, self.machine_name)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            return cached
        _description, build_query = WORKLOADS[workload]
        query = build_query()
        modeled_bytes = modeled_query_bytes(query)
        decision = optimize(
            query,
            MACHINES[self.machine_name](),
            calibration=self.calibration,
            label=workload,
        )
        # Re-execute the chosen plan against a fresh machine, cost
        # model, and observability bundle: the optimizer prices on the
        # inert bundle and records nothing, and the manifest needs the
        # chosen plan's spans and metrics, recorded on a bundle of its
        # own so it describes exactly one query's phases.
        machine = MACHINES[self.machine_name]()
        obs = Observability.create()
        model = CostModel(machine, self.calibration, obs=obs)
        result = PlanExecutor(model).execute(decision.chosen_plan)
        manifest = build_manifest(
            kind=f"serve[{fingerprint}]",
            machine=machine,
            phases=result.phase_costs(),
            workload={
                "name": workload,
                "description": WORKLOADS[workload][0],
                "modeled_bytes": modeled_bytes,
            },
            config={"physical": decision.chosen.config.describe()},
            results={
                "solo_seconds": result.makespan,
                "predicted_seconds": decision.chosen.seconds,
            },
            obs=obs,
            calibration=self.calibration,
            optimizer=decision.section(),
        )
        entry = PlanCacheEntry(
            fingerprint=fingerprint,
            phases=result.phase_costs(),
            solo_seconds=result.makespan,
            modeled_bytes=modeled_bytes,
            manifest=manifest.to_dict(),
        )
        self.cache.put(entry)
        return entry

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self) -> ServingReport:
        """Price, admit, and schedule everything submitted so far."""
        with self._lock:
            requests = list(self._requests)
            self._requests = []
        requests.sort(key=lambda r: (r.arrival, r.request_id))

        queries: List[ServedQuery] = []
        modeled: Dict[int, float] = {}
        for request in requests:
            hit = (
                workload_fingerprint(request.workload, request.machine)
                in self.cache
            )
            entry = self._price_workload(request.workload)
            modeled[request.request_id] = entry.modeled_bytes
            queries.append(
                ServedQuery(
                    request=request,
                    phases=list(entry.phases),
                    solo_seconds=entry.solo_seconds,
                    cache_hit=hit,
                    entry=entry,
                )
            )

        rejections: List[Rejection] = []
        resilience = ResilienceLog()
        plan: Optional[FaultPlan] = active_plan()

        def admit(query: ServedQuery, now: float) -> bool:
            workload = query.request.workload
            if not self.breaker.allow(workload, now):
                resilience.record(
                    "breaker_fastfail",
                    request_id=query.request.request_id,
                    workload=workload,
                    at=now,
                )
                rejections.append(
                    Rejection(
                        request=query.request,
                        error=CircuitOpenError(
                            workload=workload,
                            request_id=query.request.request_id,
                            opened_at=self.breaker.opened_at(workload),
                        ),
                    )
                )
                return False
            try:
                self.admission.admit(
                    query.request, modeled[query.request.request_id]
                )
            except AdmissionError as error:
                rejections.append(
                    Rejection(request=query.request, error=error)
                )
                return False
            return True

        def on_finish(query: ServedQuery, now: float) -> None:
            self.admission.release(
                query.request, modeled[query.request.request_id]
            )
            if self.breaker.enabled:
                query.breaker_state = self.breaker.record_success(
                    query.request.workload, now
                )

        def on_evict(query: ServedQuery, _now: float) -> None:
            # A deadline cancellation or fault eviction removed an
            # admitted query mid-flight; return its exact ledger share.
            self.admission.release(
                query.request, modeled[query.request.request_id]
            )

        def fault(
            query: ServedQuery, phase_index: int, attempt: int, now: float
        ) -> Optional[PhaseFault]:
            assert plan is not None
            try:
                plan.check_query(
                    workload=query.request.workload,
                    tenant=query.request.tenant,
                    request_id=query.request.request_id,
                    phase_index=phase_index,
                    attempt=attempt,
                )
            except QueryFault as error:
                retry = self.policy.retry
                if attempt + 1 < retry.max_attempts:
                    # delay() is 1-based: the backoff before the next
                    # serving attempt (attempt + 1 in 0-based terms).
                    delay = retry.delay(attempt + 1)
                    resilience.record(
                        "serving_retry",
                        request_id=query.request.request_id,
                        workload=query.request.workload,
                        phase_index=phase_index,
                        attempt=attempt,
                        delay=delay,
                        at=now,
                    )
                    return PhaseFault(retry_delay=delay, reason=str(error))
                # Retry budget spent: terminal failure, counted by the
                # workload's breaker at this virtual time.
                if self.breaker.enabled:
                    query.breaker_state = self.breaker.record_failure(
                        query.request.workload, now
                    )
                return PhaseFault(retry_delay=None, reason=str(error))
            return None

        outcome = self.scheduler.run(
            queries,
            admit=admit,
            on_finish=on_finish,
            on_evict=on_evict,
            fault=fault if plan is not None else None,
            capacity=_capacity_hook(plan) if plan is not None else None,
            policy=self.policy,
        )

        for query in sorted(
            outcome.deadline_exceeded,
            key=lambda q: (q.cancelled_at, q.request.request_id),
        ):
            if self.breaker.enabled:
                query.breaker_state = self.breaker.state(
                    query.request.workload
                )
            resilience.record(
                "deadline_cancel",
                request_id=query.request.request_id,
                workload=query.request.workload,
                deadline=query.request.deadline,
                at=query.cancelled_at,
            )
        for shed in outcome.shed:
            resilience.record(
                "shed",
                request_id=shed.request.request_id,
                workload=shed.request.workload,
                reason=shed.reason,
                detail=shed.detail,
                at=shed.at,
            )
        for query in (
            outcome.finished + outcome.deadline_exceeded + outcome.failed
        ):
            query.serving = query.serving_record().section()
        # Drain invariant: every admission share is back to exactly zero
        # no matter how each query terminated.
        self.admission.audit()
        return ServingReport(
            served=outcome.finished,
            rejections=rejections,
            cache=self.cache.stats(),
            makespan=outcome.makespan,
            peak_concurrency=outcome.peak_concurrency,
            deadline_exceeded=outcome.deadline_exceeded,
            failed=outcome.failed,
            shed=outcome.shed,
            breaker=self.breaker.snapshot(),
            resilience=(
                resilience.section(plan)
                if plan is not None or len(resilience)
                else None
            ),
        )


__all__ = ["QueryService", "modeled_query_bytes"]
