"""Chaos benchmark: priced runs of the CI seed set + hook overhead.

Usage::

    python -m repro.bench.chaos_overhead     # hook-overhead gate

Two things are measured:

* :func:`chaos_runs` — priced run manifests: one fault-free serial
  baseline (``nopa[chaos-baseline]``) plus one NOPA run per canonical
  chaos seed (``nopa[chaos-s101]`` ...), each carrying its
  ``resilience`` section.  The priced phases are deterministic —
  crashes and transients are recovered invisibly and the OOM seed
  degrades to the (deterministic) hybrid placement — so the runs are
  the ``chaos_overhead`` entry of :mod:`repro.bench.baselines`, and
  ``tests/bench/test_liveness.py`` asserts on the committed file that
  every seed recovered the baseline's results.
* the hook overhead — wall-clock cost of the injection *hooks* on the
  hot path: the functional build+probe with no plan installed versus
  with an **empty** plan installed (every hook site active but no rule
  matching).  Wall clock, never committed.

The command line fails unless the empty-plan overhead stays under
``OVERHEAD_TARGET``.  Wall clock is noisy, so the gate takes the best
(minimum) overhead across interleaved measurement rounds — a scheduler
hiccup in one round cannot fail the gate, while a real hot-path
regression inflates every round.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

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


def chaos_runs() -> List[Dict[str, Any]]:
    """One fault-free baseline + one priced run per canonical chaos seed.

    Deterministic: recovery never changes the priced phases, and the
    OOM seed's hybrid degradation is itself deterministic.
    """
    machine = ibm_ac922()
    workload = workload_a(scale=2.0**-14)

    base_join = _chaos_join(machine, backend="serial", obs=Observability.create())
    base = base_join.run(workload.r, workload.s)
    manifests = [
        _run_manifest(base_join, workload, base, "nopa[chaos-baseline]", None)
    ]
    for seed in CHAOS_SEEDS:
        join = _chaos_join(machine, obs=Observability.create())
        plan = chaos_plan(seed)
        with plan.install():
            result = join.run(workload.r, workload.s)
        section = join.last_resilience.section(plan)
        manifests.append(
            _run_manifest(join, workload, result, f"nopa[chaos-s{seed}]", section)
        )
    return manifests


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


def _hook_overhead() -> Dict[str, Any]:
    """Best-of interleaved timing: no plan vs installed-but-empty plan.

    An empty plan keeps every hook site live (the morsel-receipt check,
    the allocation check, the bandwidth query) without injecting — the
    purest measure of what chaos-readiness costs a production run.
    Rounds are interleaved so a load spike hits both arms equally.
    """
    build_tuples = 1 << 18
    probe_tuples = 1 << 19

    rng = np.random.default_rng(5)
    keys = rng.permutation(build_tuples).astype(np.int64)
    values = (keys * 3 + 1).astype(np.int64)
    probe = rng.integers(0, build_tuples, size=probe_tuples).astype(np.int64)

    executor = MorselExecutor(workers=4, morsel_tuples=1 << 13)
    empty_plan = FaultPlan(seed=0, rules=[], name="empty")

    best_off = best_on = float("inf")
    for _ in range(OVERHEAD_ROUNDS):
        best_off = min(
            best_off, _functional_seconds(keys, values, probe, executor)
        )
        with empty_plan.install():
            best_on = min(
                best_on, _functional_seconds(keys, values, probe, executor)
            )
    return {
        "build_tuples": build_tuples,
        "probe_tuples": probe_tuples,
        "seconds_without_plan": best_off,
        "seconds_with_empty_plan": best_on,
        "overhead_fraction": best_on / best_off - 1.0 if best_off else 0.0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    overhead = _hook_overhead()
    print(
        f"== chaos hook overhead ({overhead['build_tuples']} build / "
        f"{overhead['probe_tuples']} probe tuples, {os.cpu_count() or 1} cores) =="
    )
    print(
        f"  {overhead['seconds_without_plan'] * 1e3:.1f} ms bare, "
        f"{overhead['seconds_with_empty_plan'] * 1e3:.1f} ms with empty plan "
        f"-> overhead {overhead['overhead_fraction']:+.2%} "
        f"(target < {OVERHEAD_TARGET:.0%})"
    )
    if overhead["overhead_fraction"] >= OVERHEAD_TARGET:
        print(
            f"FAIL: empty-plan hook overhead "
            f"{overhead['overhead_fraction']:.2%} >= {OVERHEAD_TARGET:.0%}"
        )
        return 1
    print("  overhead check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
