"""Isolated layer probes: one layer at a time, fixed inputs, direct calls.

The five workloads show where time goes inside a journey; these probes show
how fast a single layer is with nothing around it.  Same estimator as the
workloads (one warm-up, ``gc.collect()`` before each of 7 repeats, fastest).
They are part of the report (``python3 perf/run.py``, or alone with
``python3 perf/run.py --probes``), not of the
per-workload command: a probe may read ``null``, which that command's
result line cannot carry.

**Deletion-proof.** A probe whose target is gone - ``ImportError`` or
``AttributeError`` while resolving it, ``TypeError`` or ``ValueError`` from
an unsupported knob while constructing it - reports ``null`` with the
reason instead of failing the run, so a change that deletes a parallel
backend or a table scheme needs no edit here.  Errors while *running* a
constructed probe are real failures and propagate.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


REPEATS = 7

#: build-side tuples of the table probes; probes look up four times as many.
TABLE_TUPLES = 1 << 18

#: what "the target symbol is missing" looks like at construction.
UNAVAILABLE = (ImportError, AttributeError, TypeError, ValueError)

#: a probe's constructor returns the timed callable and the number of work
#: items one call completes.
Probe = Callable[[], Tuple[Callable[[], Any], float]]


def best_seconds(run: Callable[[], Any]) -> float:
    run()  # warm-up
    repeats = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        run()
        repeats.append(time.perf_counter() - start)
    return min(repeats)


def table_inputs() -> Tuple[np.ndarray, np.ndarray]:
    keys = np.random.default_rng(0).permutation(TABLE_TUPLES).astype(np.int64)
    probes = (
        np.random.default_rng(1)
        .integers(0, TABLE_TUPLES, 4 * TABLE_TUPLES)
        .astype(np.int64)
    )
    return keys, probes


def parallel_workers() -> int:
    return min(os.cpu_count() or 1, 4)


# ----------------------------------------------------------------------
# Rate probes: items per second
# ----------------------------------------------------------------------
def sim_engine() -> Tuple[Callable[[], Any], float]:
    from repro.sim.engine import Simulator

    events = 200_000
    times = np.random.default_rng(0).uniform(0.0, 1000.0, events).tolist()

    def run() -> None:
        sim = Simulator()
        scheduled = [sim.schedule_at(t, lambda _sim: None) for t in times]
        for event in scheduled[::4]:  # a quarter never fire
            sim.cancel_event(event)
        sim.run()

    return run, float(events)


def sim_solver(workers: int) -> Probe:
    def build() -> Tuple[Callable[[], Any], float]:
        from repro.serve import QueryService
        from repro.sim.resources import solve_concurrent_rates

        # Demand vectors of real plans: per-second occupancy of every
        # priced phase of the five registry workloads.
        service = QueryService("ibm-ac922")
        for i, name in enumerate(("q6", "join-a", "join-b", "join-sel", "star")):
            service.submit("probe", name, 10.0 * i)
        vectors = [
            {res: busy / phase.seconds for res, busy in phase.occupancy.items()}
            for query in service.serve().served
            for phase in query.phases
            if phase.seconds > 0 and phase.occupancy
        ]
        demands = {f"q{i}": vectors[i % len(vectors)] for i in range(workers)}
        solves = 2000

        def run() -> None:
            for _ in range(solves):
                solve_concurrent_rates(demands)

        return run, float(solves)

    return build


def table_insert(scheme: str) -> Probe:
    def build() -> Tuple[Callable[[], Any], float]:
        from repro.core.hashtable import create_hash_table

        keys, _probes = table_inputs()
        create_hash_table(scheme, TABLE_TUPLES, np.int64, np.int64)

        def run() -> None:
            table = create_hash_table(scheme, TABLE_TUPLES, np.int64, np.int64)
            table.insert_batch(keys, keys)

        return run, float(TABLE_TUPLES) / 1e6

    return build


def table_lookup(scheme: str) -> Probe:
    def build() -> Tuple[Callable[[], Any], float]:
        from repro.core.hashtable import create_hash_table

        keys, probes = table_inputs()
        table = create_hash_table(scheme, TABLE_TUPLES, np.int64, np.int64)
        table.insert_batch(keys, keys * 2)
        return (lambda: table.lookup_batch(probes)), float(len(probes)) / 1e6

    return build


def radix_join() -> Tuple[Callable[[], Any], float]:
    from repro.core.join.radix import RadixJoin
    from repro.hardware.topology import ibm_ac922
    from repro.workloads.builders import workload_a

    workload = workload_a(scale=2.0**-12)
    join = RadixJoin(ibm_ac922())
    tuples = workload.r.executed_tuples + workload.s.executed_tuples
    return (lambda: join.run(workload.r, workload.s)), tuples / 1e6


def q6_scan() -> Tuple[Callable[[], Any], float]:
    from repro.core.ops.q6 import TpchQ6
    from repro.hardware.topology import ibm_ac922
    from repro.workloads.tpch import lineitem_q6

    workload = lineitem_q6(100.0)
    operator = TpchQ6(ibm_ac922())
    return (lambda: operator.run(workload)), workload.executed_rows / 1e6


def engine_pipeline() -> Tuple[Callable[[], Any], float]:
    from repro.engine import Filter, HashAggregate, HashJoinOp, TableScan, collect

    keys, probes = table_inputs()

    def run() -> Any:
        joined = HashJoinOp(
            TableScan({"k": keys, "p": keys}, morsel_rows=1 << 15),
            Filter(
                TableScan({"fk": probes}, morsel_rows=1 << 15),
                lambda batch: batch["fk"] % 2 == 0,
            ),
            build_key="k",
            probe_key="fk",
        )
        return collect(HashAggregate(joined, (), {"total": ("build_p", "sum")}))

    return run, float(len(keys) + len(probes)) / 1e6


RATES: Dict[str, Tuple[str, Probe]] = {
    "sim.engine.events_per_s": ("1/s", sim_engine),
    "sim.solver.solves_per_s.k4": ("1/s", sim_solver(4)),
    "sim.solver.solves_per_s.k16": ("1/s", sim_solver(16)),
    **{
        f"core.hashtable.{scheme}.{op}_mtuples_per_s": ("Mtuples/s", build(scheme))
        for scheme in ("perfect", "open_addressing", "chaining")
        for op, build in (("insert", table_insert), ("lookup", table_lookup))
    },
    "core.join.radix_mtuples_per_s": ("Mtuples/s", radix_join),
    "core.ops.q6_mrows_per_s": ("Mrows/s", q6_scan),
    "engine.pipeline_mrows_per_s": ("Mrows/s", engine_pipeline),
}


# ----------------------------------------------------------------------
# Ratio probes: serial (or unsharded) seconds / parallel (or sharded)
# ----------------------------------------------------------------------
def threads_probe() -> Tuple[Callable[[], Any], Callable[[], Any]]:
    from repro.core.hashtable import create_hash_table
    from repro.exec import execute_probe, make_executor

    keys, probes = table_inputs()
    table = create_hash_table("perfect", TABLE_TUPLES, np.int64, np.int64)
    table.insert_batch(keys, keys)
    executor = make_executor("threads", parallel_workers())
    return (
        lambda: execute_probe(table, probes, None),
        lambda: execute_probe(table, probes, executor),
    )


def processes_join() -> Tuple[Callable[[], Any], Callable[[], Any]]:
    from repro.core.join.nopa import NoPartitioningJoin
    from repro.hardware.topology import ibm_ac922
    from repro.workloads.builders import workload_a

    workload = workload_a(scale=2.0**-10)
    serial = NoPartitioningJoin(ibm_ac922())
    forked = NoPartitioningJoin(
        ibm_ac922(), backend="processes", workers=parallel_workers()
    )
    return (
        lambda: serial.run(workload.r, workload.s),
        lambda: forked.run(workload.r, workload.s),
    )


def sharded_lookup() -> Tuple[Callable[[], Any], Callable[[], Any]]:
    from repro.core.hashtable import create_hash_table

    keys, probes = table_inputs()
    tables = []
    for shards in (1, 4):
        table = create_hash_table(
            "perfect", TABLE_TUPLES, np.int64, np.int64, shards=shards
        )
        table.insert_batch(keys, keys)
        tables.append(table)
    return (
        lambda: tables[0].lookup_batch(probes),
        lambda: tables[1].lookup_batch(probes),
    )


#: nullable: a later change may delete the parallel machinery they measure.
RATIOS: Dict[str, Callable[[], Tuple[Callable[[], Any], Callable[[], Any]]]] = {
    "exec.threads.probe_speedup": threads_probe,
    "exec.processes.join_speedup": processes_join,
    "core.hashtable.sharded.lookup_speedup": sharded_lookup,
}


def measure(selected: Optional[List[str]] = None) -> Dict[str, Dict[str, Any]]:
    """Every probe (or the ``selected`` names) as name -> value, unit and,
    for a null, the reason."""
    out: Dict[str, Dict[str, Any]] = {}

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    for name, (unit, build) in RATES.items():
        if not wanted(name):
            continue
        try:
            run, items = build()
        except UNAVAILABLE as error:
            out[name] = _null(unit, error)
            continue
        out[name] = {"value": items / best_seconds(run), "unit": unit}
    for name, build_pair in RATIOS.items():
        if not wanted(name):
            continue
        try:
            base, variant = build_pair()
        except UNAVAILABLE as error:
            out[name] = _null("ratio", error)
            continue
        out[name] = {
            "value": best_seconds(base) / best_seconds(variant),
            "unit": "ratio",
            "base": "serial, unsharded",
        }
    return out


def _null(unit: str, error: BaseException) -> Dict[str, Any]:
    return {
        "value": None,
        "unit": unit,
        "reason": f"{type(error).__name__}: {error}",
    }
