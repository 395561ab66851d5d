"""Deterministic operator cases shared by the golden recorder and tests.

Each case builds its operator from scratch (fresh Observability, fresh
machine), runs it on a seeded workload, and reduces the result to a
JSON-ready summary: functional integers exactly, phase seconds and
occupancy vectors as floats.  The recorder ran these against the
pre-refactor seed code and committed ``golden_reference.json``; the
equivalence test re-runs them against the plan-compiled operators and
asserts the summaries match.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.hashtable import create_hash_table
from repro.core.hashtable.placement import HashTablePlacement
from repro.core.join.coop import CoopJoin
from repro.core.join.multigpu import MultiGpuJoin
from repro.core.join.multiway import Dimension, StarJoin
from repro.core.join.nopa import NoPartitioningJoin, join_query
from repro.core.join.radix import RadixJoin
from repro.core.ops.q6 import TpchQ6
from repro.core.ops.scan import Predicate, SelectionScan
from repro.costmodel.model import CostModel
from repro.data.relation import ColumnTable, Relation
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.logical import (
    JoinStats,
    PhysicalConfig,
    ScanStats,
    TableProfile,
    compile_query,
    scan,
)
from repro.logical.explain import Q6_SCALE_FACTOR
from repro.logical.explain import WORKLOADS as EXPLAINED
from repro.plan import PlanExecutor
from repro.workloads.builders import workload_a, workload_b
from repro.workloads.tpch import lineitem_q6

#: executed fraction of the modeled cardinalities (matches tests).
SCALE = 2.0**-14


def _cost(cost) -> Dict[str, Any]:
    return {
        "seconds": cost.seconds,
        "bottleneck": cost.bottleneck,
        "occupancy": {k: v for k, v in sorted(cost.occupancy.items())},
    }


def _nopa(
    machine,
    workload,
    processor: str,
    placement: str = "gpu",
    transfer_method: str = "coherence",
) -> Dict[str, Any]:
    join = NoPartitioningJoin(
        machine,
        hash_table_placement=placement,
        transfer_method=transfer_method,
    )
    result = join.run(workload.r, workload.s, processor=processor)
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "modeled_tuples": result.modeled_tuples,
        "build": _cost(result.build_cost),
        "probe": _cost(result.probe_cost),
        "runtime": result.runtime,
    }


def nopa_gpu_coherence() -> Dict[str, Any]:
    return _nopa(ibm_ac922(), workload_a(scale=SCALE), "gpu0")


def nopa_cpu() -> Dict[str, Any]:
    return _nopa(ibm_ac922(), workload_a(scale=SCALE), "cpu0")


def nopa_hybrid() -> Dict[str, Any]:
    return _nopa(
        ibm_ac922(), workload_b(scale=SCALE), "gpu0", placement="hybrid"
    )


def nopa_push_pinned() -> Dict[str, Any]:
    """Push method: exercises the chunked pipeline-overlap arithmetic."""
    wl = workload_a(scale=SCALE).placed_for("pinned_copy")
    return _nopa(
        ibm_ac922(), wl, "gpu0", placement="gpu", transfer_method="pinned_copy"
    )


def nopa_intel_zero_copy() -> Dict[str, Any]:
    wl = workload_a(scale=SCALE).placed_for("zero_copy")
    return _nopa(
        intel_xeon_v100(), wl, "gpu0", placement="gpu",
        transfer_method="zero_copy",
    )


def _coop(strategy: str) -> Dict[str, Any]:
    join = CoopJoin(ibm_ac922(), strategy=strategy)
    wl = workload_a(scale=SCALE)
    result = join.run(wl.r, wl.s, workers=("cpu0", "gpu0"))
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "build_seconds": result.build_seconds,
        "probe_seconds": result.probe_seconds,
        "build": _cost(result.build_cost),
        "probe": _cost(result.probe_cost),
        "worker_rates": {k: v for k, v in sorted(result.worker_rates.items())},
        "worker_shares": {
            k: v for k, v in sorted(result.worker_shares.items())
        },
    }


def coop_het() -> Dict[str, Any]:
    return _coop("het")


def coop_gpu_het() -> Dict[str, Any]:
    return _coop("gpu+het")


def radix_cpu() -> Dict[str, Any]:
    join = RadixJoin(ibm_ac922())
    wl = workload_a(scale=SCALE)
    result = join.run(wl.r, wl.s, processor="cpu0")
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "partition": _cost(result.partition_cost),
        "join": _cost(result.join_cost),
        "runtime": result.runtime,
    }


def _star_inputs():
    rng = np.random.default_rng(1234)
    dims = []
    fact: Dict[str, np.ndarray] = {}
    fact_rows = 4096
    for i, dim_rows in enumerate((512, 256)):
        keys = rng.permutation(dim_rows).astype(np.int64)
        payload = (keys * 3 + 1).astype(np.int64)
        rel = Relation(
            name=f"D{i}",
            key=keys,
            payload=payload,
            modeled_tuples=dim_rows * 64,
        )
        fact_key = f"d{i}_key"
        # ~90% of fact keys hit the dimension; misses draw from a
        # disjoint domain so survival fractions are non-trivial.
        hit = rng.random(fact_rows) < 0.9
        col = rng.integers(0, dim_rows, size=fact_rows)
        col[~hit] += dim_rows
        fact[fact_key] = col.astype(np.int64)
        dims.append(Dimension(relation=rel, fact_key=fact_key))
    measure = rng.integers(0, 1000, size=fact_rows).astype(np.int64)
    return fact, dims, measure, fact_rows * 64


def star_join() -> Dict[str, Any]:
    fact, dims, measure, modeled_fact = _star_inputs()
    join = StarJoin(ibm_ac922())
    result = join.run(
        fact,
        dims,
        measure=measure,
        workers=("cpu0", "gpu0"),
        modeled_fact=modeled_fact,
    )
    return {
        "survivors": result.survivors,
        "aggregate": result.aggregate,
        "build_seconds": result.build_seconds,
        "broadcast_seconds": result.broadcast_seconds,
        "probe_seconds": result.probe_seconds,
        "builder_of": dict(sorted(result.builder_of.items())),
        "modeled_tuples": result.modeled_tuples,
    }


def _multigpu(placement: str) -> Dict[str, Any]:
    join = MultiGpuJoin(ibm_ac922(), placement=placement)
    wl = workload_a(scale=SCALE)
    result = join.run(wl.r, wl.s)
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "build_seconds": result.build_seconds,
        "probe_seconds": result.probe_seconds,
        "gpu_rates": {k: v for k, v in sorted(result.gpu_rates.items())},
        "table_bytes_per_gpu": dict(
            sorted(result.table_bytes_per_gpu.items())
        ),
    }


def multigpu_replicated() -> Dict[str, Any]:
    return _multigpu("replicated")


def multigpu_interleaved() -> Dict[str, Any]:
    return _multigpu("interleaved")


def _q6(variant: str, processor: str) -> Dict[str, Any]:
    wl = lineitem_q6(scale_factor=1.0, scale=2.0**-9)
    op = TpchQ6(ibm_ac922(), variant=variant)
    result = op.run(wl, processor=processor)
    return {
        "revenue": result.aggregate,
        "qualifying_rows": result.qualifying_rows,
        "cost": _cost(result.cost),
        "column_line_fractions": list(result.column_line_fractions),
    }


def q6_branching_gpu() -> Dict[str, Any]:
    return _q6("branching", "gpu0")


def q6_predicated_gpu() -> Dict[str, Any]:
    return _q6("predicated", "gpu0")


def q6_predicated_cpu() -> Dict[str, Any]:
    return _q6("predicated", "cpu0")


def _scan_columns() -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(99)
    n = 8192
    return {
        "a": np.sort(rng.integers(0, 1000, size=n)).astype(np.int32),
        "b": rng.integers(0, 100, size=n).astype(np.int32),
        "v": rng.random(n).astype(np.float32),
    }


def _selection_scan(variant: str, columns: Dict[str, np.ndarray]):
    operator = SelectionScan(
        ibm_ac922(),
        predicates=[
            Predicate("a", lambda col: (col >= 100) & (col < 300), "a-range"),
            Predicate("b", lambda col: col < 10, "b-lt"),
        ],
        aggregate_columns=["v"],
        aggregate=lambda cols: float(cols["v"].sum()),
        variant=variant,
    )
    table = ColumnTable("columns", columns, len(columns["a"]) * 128)
    return operator.run(table, processor="gpu0")


def scan_branching_gpu() -> Dict[str, Any]:
    result = _selection_scan("branching", _scan_columns())
    return {
        "aggregate": result.aggregate,
        "qualifying_rows": result.qualifying_rows,
        "cost": _cost(result.cost),
        "column_line_fractions": list(result.column_line_fractions),
    }


#: name -> builder; iteration order is the recording order.
CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "nopa_gpu_coherence": nopa_gpu_coherence,
    "nopa_cpu": nopa_cpu,
    "nopa_hybrid": nopa_hybrid,
    "nopa_push_pinned": nopa_push_pinned,
    "nopa_intel_zero_copy": nopa_intel_zero_copy,
    "coop_het": coop_het,
    "coop_gpu_het": coop_gpu_het,
    "radix_cpu": radix_cpu,
    "star_join": star_join,
    "multigpu_replicated": multigpu_replicated,
    "multigpu_interleaved": multigpu_interleaved,
    "q6_branching_gpu": q6_branching_gpu,
    "q6_predicated_gpu": q6_predicated_gpu,
    "q6_predicated_cpu": q6_predicated_cpu,
    "scan_branching_gpu": scan_branching_gpu,
}


# ----------------------------------------------------------------------
# The same configurations stated directly to ``compile_query`` — no
# facade.  Each builder returns ``(compiled, facade)``: per-phase
# seconds of the compiled plan, and the facade's figures for the same
# phases (from ``golden_reference.json`` where a golden case exists).
# ----------------------------------------------------------------------
def _priced(query, config: PhysicalConfig, stats) -> Dict[str, float]:
    cost_model = CostModel(ibm_ac922())
    plan = compile_query(query, config, cost_model, stats)
    result = PlanExecutor(cost_model).execute(plan)
    return {name: result.seconds(name) for name in result.outcomes}


def _compiled_multigpu(placement: str, golden: Dict[str, Any]):
    wl = workload_a(scale=SCALE)
    table = create_hash_table(
        "perfect", wl.r.executed_tuples, wl.r.key.dtype, wl.r.payload.dtype
    )
    table.insert_batch(wl.r.key, wl.r.payload)
    found, _values = table.lookup_batch(wl.s.key)
    profile = TableProfile.from_table(table, wl.r.modeled_tuples)
    interleaved = None
    if placement == "interleaved":
        per_gpu = golden["table_bytes_per_gpu"]
        interleaved = HashTablePlacement(
            int(profile.modeled_bytes),
            {
                region: nbytes / profile.modeled_bytes
                for region, nbytes in per_gpu.items()
            },
            label="interleaved",
        )
    config = PhysicalConfig(
        strategy="multi-gpu",
        workers=tuple(gpu.name for gpu in ibm_ac922().gpus()),
        placement=interleaved,
    )
    stats = JoinStats(profile, lines_loaded=1.0, matches=int(found.sum()))
    return _priced(join_query(wl.r, wl.s), config, stats), {
        "build": golden["build_seconds"],
        "probe": golden["probe_seconds"],
    }


def compiled_multigpu_replicated(golden):
    return _compiled_multigpu("replicated", golden["multigpu_replicated"])


def compiled_multigpu_interleaved(golden):
    return _compiled_multigpu("interleaved", golden["multigpu_interleaved"])


def compiled_radix(golden):
    wl = workload_a(scale=SCALE)
    config = PhysicalConfig(strategy="radix", processor="cpu0")
    return _priced(join_query(wl.r, wl.s), config, None), {
        "partition": golden["radix_cpu"]["partition"]["seconds"],
        "join": golden["radix_cpu"]["join"]["seconds"],
    }


def _compiled_scan(variant: str):
    columns = _scan_columns()
    facade = _selection_scan(variant, columns)
    # One scan column per cascade read: both predicates, then "v".
    query = scan(
        columns, modeled_rows=facade.modeled_rows, location="cpu0-mem"
    ).aggregate(rows=("*", "count"))
    config = PhysicalConfig(processor="gpu0", variant=variant, label="scan")
    stats = ScanStats(tuple(facade.column_line_fractions))
    return _priced(query, config, stats), {"scan": facade.cost.seconds}


def compiled_scan_branching(golden):
    compiled, facade = _compiled_scan("branching")
    assert facade["scan"] == golden["scan_branching_gpu"]["cost"]["seconds"]
    return compiled, facade


def compiled_scan_predicated(_golden):
    return _compiled_scan("predicated")


def compiled_q6(_golden):
    """Explain's Q6 query (filters, projection and revenue sum, as the
    optimizer sees it) priced with the ``TpchQ6`` facade's measured line
    fractions: the facade's bare column scan and the algebra query must
    price alike."""
    facade = TpchQ6(ibm_ac922(), variant="branching").run(
        lineitem_q6(Q6_SCALE_FACTOR), processor="gpu0"
    )
    _description, q6_query = EXPLAINED["q6"]
    config = PhysicalConfig(processor="gpu0", variant="branching", label="q6")
    stats = ScanStats(tuple(facade.column_line_fractions))
    return _priced(q6_query(), config, stats), {"scan": facade.cost.seconds}


#: name -> builder taking the loaded golden reference.
COMPILED: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "multigpu_replicated": compiled_multigpu_replicated,
    "multigpu_interleaved": compiled_multigpu_interleaved,
    "radix": compiled_radix,
    "scan_branching": compiled_scan_branching,
    "scan_predicated": compiled_scan_predicated,
    "q6": compiled_q6,
}


def build_all() -> Dict[str, Dict[str, Any]]:
    """Run every case and return {case name: summary}."""
    return {name: case() for name, case in CASES.items()}


def flatten(summary: Any, prefix: str = "") -> List:
    """(path, value) pairs for leaf-by-leaf comparison with tolerances."""
    if isinstance(summary, dict):
        out: List = []
        for key, value in summary.items():
            out.extend(flatten(value, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(summary, list):
        out = []
        for i, value in enumerate(summary):
            out.extend(flatten(value, f"{prefix}[{i}]"))
        return out
    return [(prefix, summary)]
