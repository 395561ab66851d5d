"""Per-phase occupancy and bottleneck reports for priced joins.

The CLI answer to "which resource explains this number?": runs a NOPA
join and a cooperative (Het) join with a shared observability bundle,
prints each phase's occupancy table and bottleneck chain, and writes a
schema-versioned JSON run manifest.

Usage::

    python -m repro.obs.report                       # print breakdowns
    python -m repro.obs.report --out manifest.json   # also write JSON
    python -m repro.obs.report --machine intel       # PCI-e machine
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Tuple

from repro.core.join.coop import CoopJoin, CoopResult
from repro.core.join.nopa import JoinResult, NoPartitioningJoin
from repro.hardware.topology import Machine, ibm_ac922, intel_xeon_v100
from repro.obs import Observability
from repro.obs.explain import explain, render_chain
from repro.obs.manifest import RunManifest, build_manifest, write_manifest_file
from repro.workloads.builders import JoinWorkload, workload_a

#: default execution scale: small enough to run in well under a second.
DEFAULT_SCALE = 2.0**-13


def _machine(name: str) -> Machine:
    if name == "ibm":
        return ibm_ac922()
    if name == "intel":
        return intel_xeon_v100()
    raise SystemExit(f"unknown machine {name!r}; valid: ibm, intel")


def _workload_summary(workload: JoinWorkload) -> Dict[str, Any]:
    return {
        "name": workload.name,
        "description": workload.description,
        "modeled_r_tuples": workload.r.modeled_tuples,
        "modeled_s_tuples": workload.s.modeled_tuples,
        "executed_r_tuples": workload.r.executed_tuples,
        "executed_s_tuples": workload.s.executed_tuples,
        "r_location": workload.r.location,
        "r_kind": workload.r.kind.value,
        "s_location": workload.s.location,
        "s_kind": workload.s.kind.value,
    }


def report_nopa(
    machine: Machine,
    workload: JoinWorkload,
    placement: str = "gpu",
    method: str = "coherence",
    processor: str = "gpu0",
) -> Tuple[JoinResult, RunManifest]:
    """Run one NOPA join, print its breakdown, return (result, manifest)."""
    workload = workload.placed_for(method)
    obs = Observability.create()
    join = NoPartitioningJoin(
        machine,
        hash_table_placement=placement,
        transfer_method=method,
        obs=obs,
    )
    result = join.run(workload.r, workload.s, processor=processor)
    print(
        f"== NOPA join on {machine.name} "
        f"(table={placement}, method={method}, {processor}) =="
    )
    print(
        f"matches: {result.matches}  "
        f"throughput: {result.throughput_gtuples:.2f} G Tuples/s"
    )
    for cost in (result.build_cost, result.probe_cost):
        print()
        print(explain(cost))
        print(f"chain: {render_chain(cost)}")
    manifest = build_manifest(
        kind="nopa",
        machine=machine,
        phases=[result.build_cost, result.probe_cost],
        workload=_workload_summary(workload),
        config={
            "hash_table_placement": placement,
            "transfer_method": method,
            "processor": processor,
        },
        results={
            "matches": result.matches,
            "aggregate": result.aggregate,
            "runtime_seconds": result.runtime,
            "throughput_gtuples": result.throughput_gtuples,
            "placement_fractions": dict(result.placement.fractions),
            "payload_lines_loaded": result.payload_lines_loaded,
        },
        obs=obs,
        calibration=join.cost_model.calibration,
    )
    return result, manifest


def report_coop(
    machine: Machine,
    workload: JoinWorkload,
    strategy: str = "het",
    workers: Tuple[str, ...] = ("cpu0", "gpu0"),
) -> Tuple[CoopResult, RunManifest]:
    """Run one cooperative join, print its breakdown and worker shares."""
    obs = Observability.create()
    join = CoopJoin(machine, strategy=strategy, obs=obs)
    result = join.run(workload.r, workload.s, workers=workers)
    print(
        f"== Cooperative join on {machine.name} "
        f"(strategy={strategy}, workers={'+'.join(workers)}) =="
    )
    print(
        f"matches: {result.matches}  "
        f"throughput: {result.throughput_gtuples:.2f} G Tuples/s"
    )
    for cost in (result.build_cost, result.probe_cost):
        print()
        print(explain(cost))
        print(f"chain: {render_chain(cost)}")
    print()
    print("probe shares (morsel dispatch):")
    for worker in result.workers:
        share = result.worker_shares.get(worker, 0.0)
        rate = result.worker_rates.get(worker, 0.0)
        print(f"  {worker:>6}: {share:6.1%} of S at {rate / 1e9:.2f} G Tuples/s")
    manifest = build_manifest(
        kind=f"coop[{strategy}]",
        machine=machine,
        phases=[result.build_cost, result.probe_cost],
        workload=_workload_summary(workload),
        config={"strategy": strategy, "workers": list(workers)},
        results={
            "matches": result.matches,
            "aggregate": result.aggregate,
            "runtime_seconds": result.runtime,
            "throughput_gtuples": result.throughput_gtuples,
            "worker_rates": dict(result.worker_rates),
            "worker_shares": dict(result.worker_shares),
        },
        obs=obs,
        calibration=join.cost_model.calibration,
    )
    return result, manifest


def reference_manifests(
    machine_name: str = "ibm", scale: float = DEFAULT_SCALE
) -> List[RunManifest]:
    """Run and print the NOPA and cooperative reference joins.

    On the IBM machine these are NOPA over coherence and the Het
    strategy; PCI-e has no coherence and no shared mutable table, so
    the Intel pair uses the Zero-Copy pull method and the
    replicated-table strategy.  The IBM pair at the default scale is
    the ``reference_joins`` entry of :mod:`repro.bench.baselines`.
    """
    if machine_name == "ibm":
        nopa_method, coop_strategy = "coherence", "het"
    else:
        nopa_method, coop_strategy = "zero_copy", "gpu+het"
    machine = _machine(machine_name)
    workload = workload_a(scale=scale)
    _, nopa = report_nopa(machine, workload, method=nopa_method)
    print()
    _, coop = report_coop(machine, workload, strategy=coop_strategy)
    return [nopa, coop]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machine", default="ibm", choices=("ibm", "intel"))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write a JSON manifest"
    )
    args = parser.parse_args(argv)

    manifests = reference_manifests(args.machine, args.scale)

    if args.out:
        path = write_manifest_file(
            args.out, manifests, generator="repro.obs.report"
        )
        print(f"\nwrote {path} ({len(manifests)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
