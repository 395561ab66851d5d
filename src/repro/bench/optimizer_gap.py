"""Predicted-vs-actual gap of the cost-based optimizer.

The optimizer prices every candidate from *estimated* statistics
(``repro.logical.stats``); the operator facades price the plan they
actually run from *measured* statistics (functional matches, survival
rates, cache-line fractions).  The difference is the optimizer's
estimation error — if it grows, the optimizer is choosing plans on
stale arithmetic even though each individual price is exact for its
stats.  This benchmark pins that error:

* **predicted** — ``optimize(...)`` on a named workload from the
  shared :mod:`repro.logical.explain` registry; the chosen candidate's
  predicted seconds.
* **actual** — the matching operator facade (``TpchQ6``,
  ``NoPartitioningJoin``, ``CoopJoin``, ``StarJoin``) run with the
  *chosen* physical configuration on the same functional data; its
  priced runtime.
* **gap** — ``|predicted - actual| / actual``.

Every scenario is seeded, so the table of :func:`run_scenarios` is the
``optimizer_gap`` entry of :mod:`repro.bench.baselines`: each row is a
run whose ``results`` hold the chosen plan, the candidate counts, and
the predicted/actual seconds and gap.  ``tests/bench/test_liveness.py``
gates every committed gap under a fixed threshold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.join.coop import CoopJoin
from repro.core.join.multiway import Dimension, StarJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.ops.q6 import TpchQ6
from repro.logical.explain import (
    JOIN_SEL_SELECTIVITY,
    MACHINES,
    Q6_SCALE_FACTOR,
    STAR_DIMS,
    STAR_FACT_MODELED,
    explain_workload,
    star_inputs,
)
from repro.logical.lower import PhysicalConfig
from repro.logical.optimizer import OptimizerResult
from repro.workloads.builders import (
    workload_a,
    workload_b,
    workload_selectivity,
)
from repro.workloads.tpch import lineitem_q6

#: (workload registry name, machine registry name) per scenario.
SCENARIOS: Tuple[Tuple[str, str], ...] = (
    ("q6", "ibm-ac922"),
    ("join-a", "ibm-ac922"),
    ("join-a", "intel-xeon-v100"),
    ("join-b", "ibm-ac922"),
    ("join-sel", "ibm-ac922"),
    ("star", "ibm-ac922"),
)


def _actual_q6(machine, config: PhysicalConfig) -> float:
    """Run the Q6 facade with the chosen variant/method/processor."""
    operator = TpchQ6(
        machine,
        variant=config.variant,
        transfer_method=config.transfer_method,
    )
    workload = lineitem_q6(Q6_SCALE_FACTOR)
    return operator.run(workload, processor=config.processor).runtime


def _actual_join(machine, config: PhysicalConfig, builder) -> float:
    """Run the NOPA or cooperative facade with the chosen config."""
    workload = builder().placed_for(config.transfer_method)
    if config.strategy == "single":
        join = NoPartitioningJoin(
            machine,
            transfer_method=config.transfer_method,
            hash_scheme=config.hash_scheme,
        )
        fractions = (
            dict(config.placement.fractions)
            if config.placement is not None
            else None
        )
        result = join.run(
            workload.r,
            workload.s,
            processor=config.processor,
            placement_fractions=fractions,
        )
        return result.runtime
    join = CoopJoin(
        machine, strategy=config.strategy, hash_scheme=config.hash_scheme
    )
    return join.run(workload.r, workload.s, workers=config.workers).runtime


def _actual_star(machine, config: PhysicalConfig) -> float:
    """Run the star facade probing in the chosen dimension order."""
    fact, dims = star_inputs()
    order = config.join_order or tuple(range(len(dims)))
    dimensions = [Dimension(dims[i], STAR_DIMS[i]) for i in order]
    join = StarJoin(machine, hash_scheme=config.hash_scheme)
    result = join.run(
        fact,
        dimensions,
        workers=config.workers,
        modeled_fact=STAR_FACT_MODELED,
    )
    return result.runtime


def _actual_seconds(name: str, machine, config: PhysicalConfig) -> float:
    if name == "q6":
        return _actual_q6(machine, config)
    if name == "join-a":
        return _actual_join(machine, config, workload_a)
    if name == "join-b":
        return _actual_join(machine, config, workload_b)
    if name == "join-sel":
        return _actual_join(
            machine,
            config,
            lambda: workload_selectivity(JOIN_SEL_SELECTIVITY),
        )
    if name == "star":
        return _actual_star(machine, config)
    raise KeyError(f"no facade runner for workload {name!r}")


def run_scenario(name: str, machine_name: str) -> Dict[str, Any]:
    """One gap row: optimize, re-run the choice via the facade, diff."""
    decision: OptimizerResult = explain_workload(name, machine_name)
    predicted = decision.chosen.seconds
    assert predicted is not None
    machine = MACHINES[machine_name]()
    actual = _actual_seconds(name, machine, decision.chosen.config)
    gap = abs(predicted - actual) / actual if actual else float("inf")
    return {
        "kind": f"optgap[{name}@{machine_name}]",
        "workload": name,
        "machine": machine_name,
        "results": {
            "chosen": decision.chosen.config.describe(),
            "considered": len(decision.candidates),
            "rejected": len(decision.rejected),
            "predicted_seconds": predicted,
            "actual_seconds": actual,
            "gap": gap,
        },
    }


def run_scenarios() -> List[Dict[str, Any]]:
    """Gap rows for every scenario, in declaration order."""
    return [run_scenario(name, machine) for name, machine in SCENARIOS]
