"""Serving-resilience benchmark: tails under overload, faults, chaos.

``serving_latency`` asks what tail latency looks like when the serving
engine is healthy; this benchmark asks what the engine *does* when it
is not:

* **overload** — a seeded arrival storm against a bounded
  :class:`~repro.serve.ServicePolicy` (concurrency cap, bounded FIFO
  queue, stretch-based shedding, default deadline).  The engine must
  degrade to typed rejections — queue-full and stretch sheds, deadline
  cancellations — instead of unbounded latency, and the counts are
  committed so CI fails if deadlines are never enforced or shedding
  never triggers.
* **chaos-transients** — the seeded serving fault plan
  (:func:`repro.faults.serving_chaos_plan` seed 404) fails first
  attempts at phase boundaries; every faulted query must recover
  through the retry-with-backoff path (retries > 0, nothing failed).
* **chaos-breaker** — seed 606 fails one workload on every attempt;
  its queries burn the retry budget into terminal failures and the
  per-workload circuit breaker must open and fast-fail the rest.

Everything is virtual-time and seeded: the ``--quick`` runs are the
``serving_resilience`` entry of :mod:`repro.bench.baselines`, and
``--check-resilience`` also replays the chaos scenario twice and fails
unless the two reports are bit-identical.

Usage::

    python -m repro.bench.serving_resilience                 # full load
    python -m repro.bench.serving_resilience --quick --check-resilience
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench import serving_latency
from repro.costmodel.model import PhaseCost
from repro.faults.scenarios import serving_chaos_plan
from repro.logical.explain import MACHINES
from repro.obs.manifest import RunManifest, build_manifest
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
OVERLOAD_QUERIES = 400
OVERLOAD_QUICK = 120

#: chaos scenarios run at the stable gap — the point is fault
#: recovery, not queueing.
CHAOS_GAP = 0.45
CHAOS_QUERIES = 200
CHAOS_QUICK = 60

#: the bounded policy the overload storm runs against.
OVERLOAD_POLICY = ServicePolicy(
    max_active=4,
    queue_depth=6,
    stretch_limit=3.0,
    default_deadline=2.0,
)

#: breaker configuration of the chaos-breaker scenario.
BREAKER_POLICY = ServicePolicy(breaker_threshold=3, breaker_cooldown=5.0)


def _submit_mixed(
    service: QueryService, n_queries: int, seed: int, mean_gap: float
) -> int:
    """Seeded open-loop arrivals over the shared workload mix."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap, size=n_queries)
    picks = rng.integers(0, len(MIX), size=n_queries)
    arrival = 0.0
    for i in range(n_queries):
        arrival += float(gaps[i])
        service.submit("tenant-r", MIX[int(picks[i])], arrival)
    return n_queries


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


def _scenario_manifest(
    kind: str,
    summary: Dict[str, Any],
    workload: Dict[str, Any],
    config: Dict[str, Any],
) -> RunManifest:
    """Percentiles as phases, resilience counts as results.

    Same trick as ``serving_latency``: the baseline diff compares
    phases by label with a relative seconds tolerance, so the
    committed p50/p99/makespan gate tail regressions under overload
    and chaos.
    """
    machine = MACHINES[MACHINE]()
    phases = [
        PhaseCost(
            seconds=summary["p50_seconds"],
            bottleneck="virtual-latency",
            occupancy={},
            label="p50",
        ),
        PhaseCost(
            seconds=summary["p99_seconds"],
            bottleneck="virtual-latency",
            occupancy={},
            label="p99",
        ),
        PhaseCost(
            seconds=summary["makespan"],
            bottleneck="virtual-latency",
            occupancy={},
            label="makespan",
        ),
    ]
    return build_manifest(
        kind=kind,
        machine=machine,
        phases=phases,
        workload=workload,
        config=config,
        results=summary,
    )


def run_overload(n_queries: int) -> Dict[str, Any]:
    """The seeded overload storm against the bounded policy."""
    service = QueryService(machine=MACHINE, policy=OVERLOAD_POLICY)
    submitted = _submit_mixed(
        service, n_queries, OVERLOAD_SEED, OVERLOAD_GAP
    )
    report = service.serve()
    return resilience_summary(report, submitted)


def run_chaos_transients(n_queries: int) -> Dict[str, Any]:
    """Seeded first-attempt faults; every query recovers via retry."""
    service = QueryService(machine=MACHINE)
    submitted = _submit_mixed(service, n_queries, CHAOS_SEED, CHAOS_GAP)
    with serving_chaos_plan(404).install():
        report = service.serve()
    return resilience_summary(report, submitted)


def run_chaos_breaker(n_queries: int) -> Dict[str, Any]:
    """One workload fails every attempt; its breaker must open."""
    service = QueryService(machine=MACHINE, policy=BREAKER_POLICY)
    submitted = _submit_mixed(service, n_queries, CHAOS_SEED, CHAOS_GAP)
    with serving_chaos_plan(606).install():
        report = service.serve()
    return resilience_summary(report, submitted)


def run_benchmark(
    quick: bool,
) -> Tuple[Dict[str, Dict[str, Any]], List[RunManifest]]:
    """All three scenarios: their summaries and one run each."""
    n_overload = OVERLOAD_QUICK if quick else OVERLOAD_QUERIES
    n_chaos = CHAOS_QUICK if quick else CHAOS_QUERIES

    overload = run_overload(n_overload)
    transients = run_chaos_transients(n_chaos)
    breaker = run_chaos_breaker(n_chaos)

    manifests = [
        _scenario_manifest(
            "serving[overload]",
            overload,
            workload={
                "queries": n_overload,
                "mix": list(MIX),
                "mean_gap": OVERLOAD_GAP,
                "seed": OVERLOAD_SEED,
            },
            config={
                "machine": MACHINE,
                "max_active": OVERLOAD_POLICY.max_active,
                "queue_depth": OVERLOAD_POLICY.queue_depth,
                "stretch_limit": OVERLOAD_POLICY.stretch_limit,
                "default_deadline": OVERLOAD_POLICY.default_deadline,
            },
        ),
        _scenario_manifest(
            "serving[chaos-transients]",
            transients,
            workload={
                "queries": n_chaos,
                "mix": list(MIX),
                "mean_gap": CHAOS_GAP,
                "seed": CHAOS_SEED,
            },
            config={"machine": MACHINE, "fault_seed": 404},
        ),
        _scenario_manifest(
            "serving[chaos-breaker]",
            breaker,
            workload={
                "queries": n_chaos,
                "mix": list(MIX),
                "mean_gap": CHAOS_GAP,
                "seed": CHAOS_SEED,
            },
            config={
                "machine": MACHINE,
                "fault_seed": 606,
                "breaker_threshold": BREAKER_POLICY.breaker_threshold,
                "breaker_cooldown": BREAKER_POLICY.breaker_cooldown,
            },
        ),
    ]
    summaries = {
        "overload": overload,
        "chaos-transients": transients,
        "chaos-breaker": breaker,
    }
    return summaries, manifests


def check_resilience(
    summaries: Dict[str, Dict[str, Any]], quick: bool
) -> List[str]:
    """Liveness gates (CI ``--check-resilience``).

    The resilience machinery must actually *fire* under the committed
    scenarios — a policy knob that silently stops triggering is a
    regression even if every fair-weather number still matches.
    """
    failures = []
    overload = summaries["overload"]
    if overload["outcomes"]["deadline_exceeded"] < 1:
        failures.append(
            "overload scenario never enforced a deadline "
            f"(outcomes: {overload['outcomes']})"
        )
    if overload["outcomes"]["shed"] < 1:
        failures.append(
            "overload scenario never shed load "
            f"(outcomes: {overload['outcomes']})"
        )
    for name, summary in summaries.items():
        if not summary["conservation"]:
            failures.append(
                f"{name}: conservation violated — submitted "
                f"{summary['submitted']} != outcome sum "
                f"{summary['outcomes']}"
            )
    transients = summaries["chaos-transients"]
    if transients["retries"] < 1:
        failures.append("chaos-transients scenario never retried")
    if transients["outcomes"]["failed"] > 0:
        failures.append(
            "chaos-transients faults are first-attempt-only and must "
            f"all recover; got outcomes {transients['outcomes']}"
        )
    breaker = summaries["chaos-breaker"]
    opens = sum(
        entry["opens_total"] for entry in breaker["breaker"].values()
    )
    if opens < 1:
        failures.append("chaos-breaker scenario never opened a breaker")
    if breaker["outcomes"]["failed"] < 1:
        failures.append("chaos-breaker scenario never failed a query")
    # Chaos determinism: the same seeds must reproduce the identical
    # report, bit for bit.
    n_chaos = CHAOS_QUICK if quick else CHAOS_QUERIES
    replay = run_chaos_transients(n_chaos)
    if json.dumps(replay, sort_keys=True) != json.dumps(
        transients, sort_keys=True
    ):
        failures.append(
            "chaos-transients replay diverged from the first run — "
            "serving chaos is not deterministic"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI subset of every scenario",
    )
    parser.add_argument(
        "--check-resilience",
        action="store_true",
        help=(
            "exit non-zero unless deadlines, sheds, retries, and the "
            "breaker all fired, conservation holds, and the chaos "
            "replay is bit-identical"
        ),
    )
    args = parser.parse_args(argv)
    summaries, _manifests = run_benchmark(args.quick)

    for name, summary in summaries.items():
        outcomes = summary["outcomes"]
        print(
            f"{name}: submitted {summary['submitted']} -> "
            f"finished {outcomes['finished']}, "
            f"deadline {outcomes['deadline_exceeded']}, "
            f"failed {outcomes['failed']}, "
            f"rejected {outcomes['rejected']}, shed {outcomes['shed']} "
            f"(retries {summary['retries']})"
        )
        print(
            f"  p50 {summary['p50_seconds']:.6f}s  "
            f"p99 {summary['p99_seconds']:.6f}s  "
            f"makespan {summary['makespan']:.6f}s"
        )

    if args.check_resilience:
        failures = check_resilience(summaries, args.quick)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print("resilience gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
