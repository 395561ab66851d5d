"""Serving-resilience benchmark: tails under overload, faults, chaos.

``serving_latency`` asks what tail latency looks like when the serving
engine is healthy; this benchmark asks what the engine *does* when it
is not:

* **overload** — a seeded arrival storm against a bounded
  :class:`~repro.serve.ServicePolicy` (concurrency cap, bounded FIFO
  queue, stretch-based shedding, default deadline).  The engine must
  degrade to typed rejections — queue-full and stretch sheds, deadline
  cancellations — instead of unbounded latency.
* **chaos-transients** — the seeded serving fault plan
  (:func:`repro.faults.serving_chaos_plan` seed 404) fails first
  attempts at phase boundaries; every faulted query must recover
  through the retry-with-backoff path (retries > 0, nothing failed).
* **chaos-breaker** — seed 606 fails one workload on every attempt;
  its queries burn the retry budget into terminal failures and the
  per-workload circuit breaker must open and fast-fail the rest.

Everything is virtual-time and seeded: :func:`run_benchmark`'s three
summary runs are the ``serving_resilience`` entry of
:mod:`repro.bench.baselines`, whose tier-1 refresh test also proves
them reproducible.  ``tests/bench/test_liveness.py`` asserts on the
committed file that every mechanism above fired: deadlines, sheds,
retries with no failure, an opened breaker, and conservation of every
submitted request.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench import serving_latency
from repro.faults.scenarios import serving_chaos_plan
from repro.serve import (
    QueryService,
    ServicePolicy,
    ServingReport,
    percentile,
)

MACHINE = serving_latency.MACHINE
MIX = serving_latency.MIX
P50 = serving_latency.P50
P99 = serving_latency.P99

#: arrival seeding of the resilience scenarios (distinct from the
#: fault-free latency bench so the two loads cannot be conflated).
OVERLOAD_SEED = 21
CHAOS_SEED = 22

#: the overload storm: arrivals ~9x denser than the stable latency
#: bench, far beyond what the bounded policy admits.
OVERLOAD_GAP = 0.05
OVERLOAD_SUBMITTED = 120

#: chaos scenarios run at the stable gap — the point is fault
#: recovery, not queueing.
CHAOS_GAP = 0.45
CHAOS_SUBMITTED = 60

#: the bounded policy the overload storm runs against.
OVERLOAD_POLICY = ServicePolicy(
    max_active=4,
    queue_depth=6,
    stretch_limit=3.0,
    default_deadline=2.0,
)

#: breaker configuration of the chaos-breaker scenario.
BREAKER_POLICY = ServicePolicy(breaker_threshold=3, breaker_cooldown=5.0)


def resilience_summary(
    report: ServingReport, submitted: int
) -> Dict[str, Any]:
    """The headline numbers of one resilience run (JSON-ready)."""
    latencies = report.latencies()
    shed_reasons: Dict[str, int] = {}
    for shed in report.shed:
        shed_reasons[shed.reason] = shed_reasons.get(shed.reason, 0) + 1
    return {
        "submitted": submitted,
        "outcomes": report.outcome_counts(),
        "conservation": report.conservation(submitted),
        "retries": report.total_retries(),
        "shed_reasons": shed_reasons,
        "breaker": report.breaker,
        "p50_seconds": percentile(latencies, P50),
        "p99_seconds": percentile(latencies, P99),
        "max_seconds": max(latencies) if latencies else 0.0,
        "makespan": report.makespan,
        "peak_concurrency": report.peak_concurrency,
    }


def _scenario(
    name: str,
    n_queries: int,
    seed: int,
    mean_gap: float,
    policy: Optional[ServicePolicy] = None,
    fault_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Seeded open-loop arrivals over the shared mix, served (under the
    serving chaos plan ``fault_seed``, if any) as one summary run."""
    service = QueryService(machine=MACHINE, policy=policy)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap, size=n_queries)
    picks = rng.integers(0, len(MIX), size=n_queries)
    arrival = 0.0
    for i in range(n_queries):
        arrival += float(gaps[i])
        service.submit("tenant-r", MIX[int(picks[i])], arrival)
    faults = (
        contextlib.nullcontext()
        if fault_seed is None
        else serving_chaos_plan(fault_seed).install()
    )
    with faults:
        report = service.serve()
    return {
        "kind": f"serving[{name}]",
        "results": resilience_summary(report, n_queries),
    }


def run_benchmark() -> List[Dict[str, Any]]:
    """The three scenarios, one ``serving[<scenario>]`` run each."""
    return [
        _scenario(
            "overload",
            OVERLOAD_SUBMITTED,
            OVERLOAD_SEED,
            OVERLOAD_GAP,
            policy=OVERLOAD_POLICY,
        ),
        _scenario(
            "chaos-transients",
            CHAOS_SUBMITTED,
            CHAOS_SEED,
            CHAOS_GAP,
            fault_seed=404,
        ),
        _scenario(
            "chaos-breaker",
            CHAOS_SUBMITTED,
            CHAOS_SEED,
            CHAOS_GAP,
            policy=BREAKER_POLICY,
            fault_seed=606,
        ),
    ]
