"""Chaos benchmark: hook overhead + priced runs of the CI seed set.

Usage::

    python -m repro.bench.chaos_overhead                  # full sizes
    python -m repro.bench.chaos_overhead --quick          # smoke sizes
    python -m repro.bench.chaos_overhead --check-overhead

Two things are measured:

* :func:`chaos_runs` — priced run manifests: one fault-free serial
  baseline (``nopa[chaos-baseline]``) plus one NOPA run per canonical
  chaos seed (``nopa[chaos-s101]`` ...), each carrying its
  ``resilience`` section, and a per-seed summary of what each plan
  injected, which recovery actions answered it, and whether the results
  matched the fault-free baseline bit-for-bit.  The priced phases are
  deterministic — crashes and transients are recovered invisibly and
  the OOM seed degrades to the (deterministic) hybrid placement — so
  the ``--quick`` runs are the ``chaos_overhead`` entry of
  :mod:`repro.bench.baselines`.
* the hook overhead — wall-clock cost of the injection *hooks* on the
  hot path: the functional build+probe with no plan installed versus
  with an **empty** plan installed (every hook site active but no rule
  matching).  Informational wall clock, never committed.

``--check-overhead`` asserts the empty-plan overhead stays under
``OVERHEAD_TARGET``.  Wall clock is noisy, so the check takes the best
(minimum) overhead across interleaved measurement rounds — a scheduler
hiccup in one round cannot fail the gate, while a real hot-path
regression inflates every round.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hashtable import create_hash_table
from repro.core.join.nopa import NoPartitioningJoin
from repro.exec import MorselExecutor, execute_build, execute_probe
from repro.faults import CHAOS_SEEDS, FaultPlan, RetryPolicy, chaos_plan
from repro.hardware.topology import ibm_ac922
from repro.obs import Observability
from repro.obs.manifest import build_manifest
from repro.workloads.builders import workload_a

#: acceptance threshold: an installed-but-empty plan may slow the
#: functional build+probe by at most this fraction.
OVERHEAD_TARGET = 0.02

#: interleaved measurement rounds for the overhead section.
OVERHEAD_ROUNDS = 5

#: morsel size of the chaos runs — small enough that the reduced-scale
#: workload decomposes into dozens of injection sites per phase.
CHAOS_MORSEL_TUPLES = 4096


def _chaos_join(machine, **overrides) -> NoPartitioningJoin:
    """The join configuration every chaos run (and the tests) uses."""
    config: Dict[str, Any] = dict(
        hash_table_placement="gpu",
        transfer_method="coherence",
        backend="threads",
        workers=4,
        exec_morsel_tuples=CHAOS_MORSEL_TUPLES,
        oom_policy="spill",
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0),
    )
    config.update(overrides)
    return NoPartitioningJoin(machine, **config)


def chaos_scale(quick: bool) -> float:
    """Execution scale of workload A in the chaos runs."""
    return 2.0**-14 if quick else 2.0**-12


def _run_manifest(join, workload, result, kind, resilience) -> Dict[str, Any]:
    manifest = build_manifest(
        kind=kind,
        machine=join.machine,
        phases=[result.build_cost, result.probe_cost],
        workload={
            "name": "A",
            "executed_r": workload.r.executed_tuples,
            "executed_s": workload.s.executed_tuples,
            "modeled_r": workload.r.modeled_tuples,
            "modeled_s": workload.s.modeled_tuples,
        },
        config={
            "hash_table_placement": "gpu",
            "transfer_method": "coherence",
            "oom_policy": "spill",
            "morsel_tuples": CHAOS_MORSEL_TUPLES,
        },
        results={"matches": result.matches, "aggregate": result.aggregate},
        obs=join.obs,
        resilience=resilience,
    )
    return manifest.to_dict()


def chaos_runs(quick: bool) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """One fault-free baseline + one priced run per canonical chaos seed.

    Returns ``(manifests, summaries)``: the manifests are deterministic
    (recovery never changes the priced phases; the OOM seed's hybrid
    degradation is itself deterministic); the summaries account for the
    injected faults and recovery actions.
    """
    machine = ibm_ac922()
    workload = workload_a(scale=chaos_scale(quick))

    base_join = _chaos_join(machine, backend="serial", obs=Observability.create())
    base = base_join.run(workload.r, workload.s)
    manifests = [
        _run_manifest(base_join, workload, base, "nopa[chaos-baseline]", None)
    ]

    summaries = []
    for seed in CHAOS_SEEDS:
        join = _chaos_join(machine, obs=Observability.create())
        plan = chaos_plan(seed)
        with plan.install():
            result = join.run(workload.r, workload.s)
        section = join.last_resilience.section(plan)
        manifests.append(
            _run_manifest(join, workload, result, f"nopa[chaos-s{seed}]", section)
        )
        summaries.append(
            {
                "seed": seed,
                "plan": plan.name,
                "injected_counts": plan.injected_counts(),
                "recovery_counters": join.last_resilience.counts(),
                "placement": result.placement.label,
                "results_identical": bool(
                    result.matches == base.matches
                    and result.aggregate == base.aggregate
                ),
            }
        )
    return manifests, summaries


def _functional_seconds(
    keys: np.ndarray,
    values: np.ndarray,
    probe: np.ndarray,
    executor: MorselExecutor,
) -> float:
    start = time.perf_counter()
    table = create_hash_table("perfect", len(keys), keys.dtype, values.dtype)
    execute_build(table, keys, values, executor)
    execute_probe(table, probe, executor)
    return time.perf_counter() - start


def _hook_overhead(quick: bool, rounds: int = OVERHEAD_ROUNDS) -> Dict[str, Any]:
    """Best-of interleaved timing: no plan vs installed-but-empty plan.

    An empty plan keeps every hook site live (the morsel-receipt check,
    the allocation check, the bandwidth query) without injecting — the
    purest measure of what chaos-readiness costs a production run.
    Rounds are interleaved so a load spike hits both arms equally.
    """
    build_tuples = 1 << 18 if quick else 1 << 20
    probe_tuples = 1 << 19 if quick else 1 << 21
    morsel_tuples = 1 << 13

    rng = np.random.default_rng(5)
    keys = rng.permutation(build_tuples).astype(np.int64)
    values = (keys * 3 + 1).astype(np.int64)
    probe = rng.integers(0, build_tuples, size=probe_tuples).astype(np.int64)

    executor = MorselExecutor(workers=4, morsel_tuples=morsel_tuples)
    empty_plan = FaultPlan(seed=0, rules=[], name="empty")

    best_off = best_on = float("inf")
    for _ in range(rounds):
        best_off = min(
            best_off, _functional_seconds(keys, values, probe, executor)
        )
        with empty_plan.install():
            best_on = min(
                best_on, _functional_seconds(keys, values, probe, executor)
            )
    overhead = best_on / best_off - 1.0 if best_off else 0.0
    return {
        "build_tuples": build_tuples,
        "probe_tuples": probe_tuples,
        "morsel_tuples": morsel_tuples,
        "rounds": rounds,
        "seconds_without_plan": best_off,
        "seconds_with_empty_plan": best_on,
        "overhead_fraction": overhead,
        "target": OVERHEAD_TARGET,
    }


def run_benchmark(quick: bool = False) -> Dict[str, Any]:
    """Execute the chaos sweep + overhead measurement; return the document."""
    _manifests, summaries = chaos_runs(quick)
    return {
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "name": "A", "scale": chaos_scale(quick), "seeds": list(CHAOS_SEEDS)
        },
        "chaos": summaries,
        "overhead": _hook_overhead(quick),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--check-overhead",
        action="store_true",
        help=f"fail if the empty-plan hook overhead exceeds "
        f"{OVERHEAD_TARGET:.0%} of the functional build+probe",
    )
    args = parser.parse_args(argv)

    document = run_benchmark(quick=args.quick)

    print(
        f"== chaos overhead (workload A scale {document['workload']['scale']}, "
        f"seeds {document['workload']['seeds']}, "
        f"{document['cpu_count']} cores) =="
    )
    for row in document["chaos"]:
        print(
            f"  seed {row['seed']} ({row['plan']}): injected "
            f"{row['injected_counts']} -> recovered {row['recovery_counters']}, "
            f"placement {row['placement']}, "
            f"identical={row['results_identical']}"
        )
    if not all(row["results_identical"] for row in document["chaos"]):
        print("FAIL: a chaos run did not recover to baseline-identical results")
        return 1

    overhead = document["overhead"]
    print(
        f"  hooks: {overhead['seconds_without_plan'] * 1e3:.1f} ms bare, "
        f"{overhead['seconds_with_empty_plan'] * 1e3:.1f} ms with empty plan "
        f"-> overhead {overhead['overhead_fraction']:+.2%} "
        f"(target < {overhead['target']:.0%})"
    )

    if args.check_overhead:
        if overhead["overhead_fraction"] < OVERHEAD_TARGET:
            print("  overhead check passed")
        else:
            print(
                f"FAIL: empty-plan hook overhead "
                f"{overhead['overhead_fraction']:.2%} >= {OVERHEAD_TARGET:.0%}"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
