"""Open-loop serving-latency benchmark: tail latency under traffic.

The single-query benchmarks ask "how fast is one join?"; this one asks
the serving question: with a Poisson stream of mixed Q6/join requests
multiplexed over one simulated machine, what do the p50/p99
*virtual-time* latencies look like once co-running queries contend for
memory channels and interconnect bandwidth?

The load is open-loop (arrivals don't wait for completions), seeded,
and entirely virtual — the numbers are deterministic, and
:func:`run_benchmark` (one served manifest per workload plus the
``serving[latency]`` summary run) is the ``serving_latency`` entry of
:mod:`repro.bench.baselines`.  ``tests/bench/test_liveness.py`` asserts
the summary's liveness conditions on the committed file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.serve import QueryService, ServingReport, TenantQuota, percentile

#: deterministic arrival/workload sampling.
SEED = 20

#: the request mix (uniform draw per arrival).
MIX: Tuple[str, ...] = ("q6", "join-a", "join-b")

#: well-behaved tenants, assigned round-robin.
TENANTS: Tuple[str, ...] = ("alpha", "beta", "gamma")

#: a tenant with a tiny in-flight quota that bursts at t=0 — its
#: rejections exercise typed admission control on every run.
GREEDY_TENANT = "zeta"
GREEDY_QUOTA = TenantQuota(max_in_flight=2)
GREEDY_BURST = 8

#: mean inter-arrival gap (virtual seconds).  The mix's mean solo
#: makespan is ~0.36s, so this offers ~0.8 utilization — the classic
#: tail-latency regime: busy, but stable.
MEAN_GAP = 0.45

#: open-loop queries (greedy burst on top).
QUERIES = 120

#: headline percentile fractions.
P50 = 0.5
P99 = 0.99

MACHINE = "ibm-ac922"


def build_service() -> QueryService:
    return QueryService(
        machine=MACHINE,
        quotas={GREEDY_TENANT: GREEDY_QUOTA},
    )


def submit_load(service: QueryService, n_queries: int) -> None:
    """Seeded open-loop arrivals plus the greedy tenant's burst."""
    rng = np.random.default_rng(SEED)
    gaps = rng.exponential(MEAN_GAP, size=n_queries)
    picks = rng.integers(0, len(MIX), size=n_queries)
    arrival = 0.0
    for i in range(n_queries):
        arrival += float(gaps[i])
        service.submit(
            TENANTS[i % len(TENANTS)], MIX[int(picks[i])], arrival
        )
    for _ in range(GREEDY_BURST):
        service.submit(GREEDY_TENANT, "join-b", 0.0)


def latency_summary(report: ServingReport) -> Dict[str, Any]:
    """The headline numbers of one serving run."""
    latencies = report.latencies()
    return {
        "queries": len(report.served),
        "rejected": len(report.rejections),
        "p50_seconds": percentile(latencies, P50),
        "p99_seconds": percentile(latencies, P99),
        "max_seconds": max(latencies) if latencies else 0.0,
        "mean_seconds": (
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        "makespan": report.makespan,
        "peak_concurrency": report.peak_concurrency,
        "cache": report.cache,
    }


def representative_manifests(report: ServingReport) -> List[Dict[str, Any]]:
    """One served manifest per workload kind (first occurrence)."""
    manifests: Dict[str, Dict[str, Any]] = {}
    for query in sorted(report.served, key=lambda q: q.request.request_id):
        manifests.setdefault(query.request.workload, query.manifest)
    return list(manifests.values())


def run_benchmark() -> List[Dict[str, Any]]:
    """The served manifests and the ``serving[latency]`` summary run."""
    service = build_service()
    submit_load(service, QUERIES)
    report = service.serve()
    return representative_manifests(report) + [
        {"kind": "serving[latency]", "results": latency_summary(report)}
    ]
