"""Multi-query serving engine over the simulated machine.

The paper's numbers assume one query owns the whole machine; this
package serves *traffic*: a :class:`QueryService` front door compiles
each request through the cost-based optimizer, an admission controller
enforces per-tenant quotas with typed rejections, a plan/result cache
skips repeat optimizations, and a DES-backed scheduler multiplexes the
admitted queries over one machine — co-running phases contend for
memory channels and interconnect bandwidth through the max-min fair
rate solver instead of each pretending to own the hardware.  Headline
number: tail latency under concurrency, not single-query makespan
(``repro.bench.serving_latency``).

The serving path is resilient, not just fair-weather: per-request
deadlines are enforced inside the DES (cancellable events, mid-phase
cancellation), an installed :class:`~repro.faults.FaultPlan` can fail
in-flight queries (retried with capped virtual-time backoff, guarded
by a per-workload circuit breaker) or degrade link capacity
mid-serving, and overload beyond the :class:`ServicePolicy` bounds is
load-shed with typed reasons instead of unbounded latency
(``repro.bench.serving_resilience``).
"""

from repro.serve.admission import (
    AdmissionAuditError,
    AdmissionController,
    AdmissionError,
    TenantQuota,
)
from repro.serve.cache import PlanCache, PlanCacheEntry, workload_fingerprint
from repro.serve.policy import (
    CircuitBreaker,
    CircuitOpenError,
    ServicePolicy,
    ShedError,
)
from repro.serve.request import (
    QueryRequest,
    Rejection,
    ServedQuery,
    ServingRecord,
    ServingReport,
    ShedQuery,
    percentile,
)
from repro.serve.scheduler import (
    ContentionScheduler,
    PhaseFault,
    ScheduleOutcome,
    SchedulerError,
)
from repro.serve.service import QueryService, modeled_query_bytes

__all__ = [
    "AdmissionAuditError",
    "AdmissionController",
    "AdmissionError",
    "CircuitBreaker",
    "CircuitOpenError",
    "ContentionScheduler",
    "PhaseFault",
    "PlanCache",
    "PlanCacheEntry",
    "QueryRequest",
    "QueryService",
    "Rejection",
    "ScheduleOutcome",
    "SchedulerError",
    "ServedQuery",
    "ServicePolicy",
    "ServingRecord",
    "ServingReport",
    "ShedError",
    "ShedQuery",
    "TenantQuota",
    "modeled_query_bytes",
    "percentile",
    "workload_fingerprint",
]
