"""Worker-scaling benchmark for the morsel-parallel execution backend.

Usage::

    python -m repro.bench.parallel_scaling     # sweep + speedup gate

The sweep times the *functional* build+probe at each worker count and
prints speedups relative to the serial path, plus an equivalence check
(identical outputs, ``TableStats`` and table size).  Wall clock depends
on the host (core count, load), so nothing here is committed.

:func:`priced_runs` is the deterministic half: the reference NOPA join
priced once per backend (``nopa[serial]`` / ``nopa[threads]``).
Identical ``TableStats`` across backends make the two runs' phases
identical; they are the ``parallel_scaling`` entry of
:mod:`repro.bench.baselines`.

The command line fails unless the threads speedup exceeds
``SPEEDUP_TARGET`` at the largest swept worker count the host has cores
for.  It skips that gate (with an explicit note in the output) only on
a 1-core host, which cannot demonstrate parallel speedup — only
parallel *correctness*, which the equivalence section always verifies.
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
from repro.exec import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    MorselExecutor,
    execute_build,
    execute_probe,
)
from repro.hardware.topology import ibm_ac922
from repro.obs import Observability
from repro.obs.manifest import RunManifest, build_manifest
from repro.workloads.builders import workload_a

#: acceptance threshold: the threads backend must beat serial by this
#: factor at the gated worker count.
SPEEDUP_TARGET = 1.5

#: worker counts of the sweep.
WORKER_COUNTS = (1, 2, 4)

#: execution scale and ``threads`` worker count of :func:`priced_runs`.
PRICED_SCALE = 2.0**-14
PRICED_WORKERS = max(WORKER_COUNTS)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _functional_seconds(
    keys: np.ndarray,
    values: np.ndarray,
    probe: np.ndarray,
    executor: Optional[MorselExecutor],
) -> float:
    def run() -> None:
        table = create_hash_table("perfect", len(keys), keys.dtype, values.dtype)
        execute_build(table, keys, values, executor)
        execute_probe(table, probe, executor)

    return _best_of(3, run)


def priced_runs() -> List[RunManifest]:
    """One priced NOPA run of workload A per backend."""
    machine = ibm_ac922()
    workload = workload_a(scale=PRICED_SCALE)
    manifests = []
    for backend in ("serial", "threads"):
        obs = Observability.create()
        join = NoPartitioningJoin(
            machine,
            hash_table_placement="gpu",
            transfer_method="coherence",
            obs=obs,
            backend=backend,
            workers=PRICED_WORKERS,
        )
        result = join.run(workload.r, workload.s)
        manifests.append(
            build_manifest(
                kind=f"nopa[{backend}]",
                machine=machine,
                phases=[result.build_cost, result.probe_cost],
                workload={
                    "name": "A",
                    "executed_r": workload.r.executed_tuples,
                    "executed_s": workload.s.executed_tuples,
                    "modeled_r": workload.r.modeled_tuples,
                    "modeled_s": workload.s.modeled_tuples,
                },
                config={
                    "backend": backend,
                    "workers": PRICED_WORKERS if backend == "threads" else 1,
                    "hash_table_placement": "gpu",
                    "transfer_method": "coherence",
                },
                results={
                    "matches": result.matches,
                    "aggregate": result.aggregate,
                },
                obs=obs,
            )
        )
    return manifests


def _equivalence(
    keys: np.ndarray,
    values: np.ndarray,
    probe: np.ndarray,
) -> Dict[str, bool]:
    serial_table = create_hash_table("perfect", len(keys), keys.dtype, values.dtype)
    execute_build(serial_table, keys, values, None)
    serial_found, serial_values = execute_probe(serial_table, probe, None)

    executor = MorselExecutor(
        workers=max(WORKER_COUNTS), morsel_tuples=DEFAULT_EXEC_MORSEL_TUPLES
    )
    table = create_hash_table("perfect", len(keys), keys.dtype, values.dtype)
    execute_build(table, keys, values, executor)
    found, looked_up = execute_probe(table, probe, executor)
    return {
        "outputs_identical": bool(
            np.array_equal(serial_found, found)
            and np.array_equal(serial_values, looked_up)
        ),
        "stats_identical": serial_table.stats.as_tuple()
        == table.stats.as_tuple(),
        "size_identical": serial_table.size == table.size,
    }


def run_benchmark() -> Dict[str, Any]:
    """Execute the sweep; return its scaling rows and equivalence flags."""
    build_tuples = 1 << 21
    probe_tuples = 1 << 22

    rng = np.random.default_rng(4)
    keys = rng.permutation(build_tuples).astype(np.int64)
    values = (keys * 3 + 1).astype(np.int64)
    probe = rng.integers(0, build_tuples, size=probe_tuples).astype(np.int64)

    serial_seconds = _functional_seconds(keys, values, probe, None)
    scaling = [
        {
            "backend": "serial",
            "workers": 1,
            "seconds": serial_seconds,
            "speedup": 1.0,
        }
    ]
    for workers in WORKER_COUNTS:
        executor = MorselExecutor(
            workers=workers, morsel_tuples=DEFAULT_EXEC_MORSEL_TUPLES
        )
        seconds = _functional_seconds(keys, values, probe, executor)
        scaling.append(
            {
                "backend": "threads",
                "workers": workers,
                "seconds": seconds,
                "speedup": serial_seconds / seconds if seconds else float("inf"),
            }
        )

    return {
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "build_tuples": build_tuples,
            "probe_tuples": probe_tuples,
        },
        "scaling": scaling,
        "equivalence": _equivalence(keys, values, probe),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    document = run_benchmark()

    cores = document["cpu_count"]
    print(f"== parallel scaling (perfect, "
          f"{document['workload']['build_tuples']} build / "
          f"{document['workload']['probe_tuples']} probe tuples, "
          f"{cores} cores) ==")
    for row in document["scaling"]:
        print(
            f"  {row['backend']:>7} workers={row['workers']}  "
            f"{row['seconds'] * 1e3:8.1f} ms  speedup {row['speedup']:.2f}x"
        )
    equivalence = document["equivalence"]
    print(f"  equivalence: {equivalence}")
    if not all(equivalence.values()):
        print("FAIL: parallel backend is not equivalent to serial")
        return 1

    # the largest swept worker count the host has cores for
    gateable = [w for w in WORKER_COUNTS if 1 < w <= cores]
    if not gateable:
        print(
            f"  speedup check skipped: host has {cores} core(s); "
            "need >= 2 to demonstrate parallel speedup"
        )
        return 0
    gated = max(gateable)
    row = next(
        row
        for row in document["scaling"]
        if row["backend"] == "threads" and row["workers"] == gated
    )
    if row["speedup"] <= SPEEDUP_TARGET:
        print(
            f"FAIL: threads workers={gated} speedup "
            f"{row['speedup']:.2f}x <= {SPEEDUP_TARGET}x on a "
            f"{cores}-core host"
        )
        return 1
    print(f"  speedup check passed: threads workers={gated} {row['speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
