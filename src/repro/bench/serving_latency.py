"""Open-loop serving-latency benchmark: tail latency under traffic.

The single-query benchmarks ask "how fast is one join?"; this one asks
the serving question: with a Poisson stream of mixed Q6/join requests
multiplexed over one simulated machine, what do the p50/p99
*virtual-time* latencies look like once co-running queries contend for
memory channels and interconnect bandwidth?

The load is open-loop (arrivals don't wait for completions), seeded,
and entirely virtual — the numbers are deterministic and committed as
``BENCH_pr9.json``, which CI regenerates with ``--quick`` and diffs
via ``repro.bench.diff_manifest``.  The document also embeds the
``nopa``/``coop[het]`` reference manifests so a second diff against
the PR-2 baseline (``--ignore-new-runs``) proves the serving layer
left single-query pricing untouched.

Usage::

    python -m repro.bench.serving_latency                # full load
    python -m repro.bench.serving_latency --quick --check-serving
    python -m repro.bench.serving_latency --quick --out BENCH_pr9.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.costmodel.model import PhaseCost
from repro.logical.explain import MACHINES
from repro.obs.manifest import RunManifest, build_manifest, write_manifest_file
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
N_QUERIES = 400
QUICK_QUERIES = 120

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


def latency_manifest(summary: Dict[str, Any], n_queries: int) -> RunManifest:
    """Tail latencies as a diffable run: percentiles become phases.

    ``diff_manifest`` compares phases by label with a relative seconds
    tolerance, so encoding p50/p99 as phase seconds turns the committed
    baseline into a tail-latency regression gate.
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
        kind="serving[latency]",
        machine=machine,
        phases=phases,
        workload={
            "queries": n_queries,
            "greedy_burst": GREEDY_BURST,
            "mix": list(MIX),
            "tenants": list(TENANTS),
            "mean_gap": MEAN_GAP,
            "seed": SEED,
        },
        config={
            "machine": MACHINE,
            "greedy_quota_in_flight": GREEDY_QUOTA.max_in_flight,
        },
        results=summary,
    )


def representative_manifests(report: ServingReport) -> List[RunManifest]:
    """One served manifest per workload kind (first occurrence)."""
    manifests: List[RunManifest] = []
    seen: set = set()
    for query in sorted(
        report.served, key=lambda q: q.request.request_id
    ):
        name = query.request.workload
        if name in seen:
            continue
        seen.add(name)
        manifest = RunManifest(
            kind=query.manifest["kind"],
            machine=query.manifest["machine"],
            workload=query.manifest["workload"],
            config=query.manifest["config"],
            phases=query.manifest["phases"],
            results=query.manifest["results"],
            metrics=query.manifest["metrics"],
            spans=query.manifest["spans"],
            calibration=query.manifest["calibration"],
            resilience=query.manifest["resilience"],
            optimizer=query.manifest["optimizer"],
            serving=query.manifest["serving"],
        )
        manifests.append(manifest)
    return manifests


def reference_manifests() -> List[RunManifest]:
    """The PR-2 nopa/coop[het] reference joins, silenced.

    Embedding them lets CI diff this document against the PR-2
    baseline (``--ignore-new-runs``) to prove single-query pricing is
    untouched by the serving layer.
    """
    from repro.bench.run_all import _collect_manifests

    with contextlib.redirect_stdout(io.StringIO()):
        return list(_collect_manifests(scale=2.0**-13))


def run_benchmark(
    n_queries: int,
) -> Tuple[ServingReport, Dict[str, Any], List[RunManifest]]:
    service = build_service()
    submit_load(service, n_queries)
    report = service.serve()
    summary = latency_summary(report)
    manifests = representative_manifests(report)
    manifests.append(latency_manifest(summary, n_queries))
    manifests.extend(reference_manifests())
    return report, summary, manifests


def check_serving(report: ServingReport) -> List[str]:
    """Liveness gates on the headline numbers (CI ``--check-serving``)."""
    summary = latency_summary(report)
    failures = []
    # Fault-free, so a request ends at its finish or its rejected arrival.
    last_terminal = max(
        [q.finish for q in report.served]
        + [r.request.arrival for r in report.rejections]
    )
    if report.makespan != last_terminal:
        failures.append(
            f"makespan {report.makespan!r} is not the last terminal "
            f"event ({last_terminal!r}): a superseded event fired"
        )
    if summary["queries"] < 100:
        failures.append(
            f"expected >= 100 served queries, got {summary['queries']}"
        )
    if summary["rejected"] < 1:
        failures.append("expected the greedy tenant to be rejected")
    if summary["cache"]["hit_rate"] <= 0:
        failures.append("expected plan-cache hits on the repeated mix")
    if summary["p99_seconds"] < summary["p50_seconds"]:
        failures.append("p99 below p50: percentile arithmetic broken")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI subset: {QUICK_QUERIES} open-loop queries",
    )
    parser.add_argument(
        "--check-serving",
        action="store_true",
        help="exit non-zero unless rejections and cache hits occurred",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the manifest document (BENCH_pr9.json layout)",
    )
    args = parser.parse_args(argv)
    n_queries = QUICK_QUERIES if args.quick else N_QUERIES
    report, summary, manifests = run_benchmark(n_queries)

    print(f"open-loop serving, {n_queries} queries over {MACHINE}")
    print(
        f"  served {summary['queries']} "
        f"(rejected {summary['rejected']}), "
        f"peak concurrency {summary['peak_concurrency']}"
    )
    print(
        f"  latency p50 {summary['p50_seconds']:.6f}s  "
        f"p99 {summary['p99_seconds']:.6f}s  "
        f"max {summary['max_seconds']:.6f}s"
    )
    print(
        f"  cache hit rate {summary['cache']['hit_rate']:.3f} "
        f"({summary['cache']['hits']} hits / "
        f"{summary['cache']['misses']} misses)"
    )
    print(f"  virtual makespan {summary['makespan']:.6f}s")

    if args.out:
        path = write_manifest_file(
            args.out, manifests, generator="repro.bench.serving_latency"
        )
        print(f"wrote {path} ({len(manifests)} runs)")

    if args.check_serving:
        failures = check_serving(report)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
