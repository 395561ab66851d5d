"""Worker-scaling benchmark for the morsel-parallel execution backend.

Usage::

    python -m repro.bench.parallel_scaling                 # full sweep
    python -m repro.bench.parallel_scaling --quick         # CI smoke
    python -m repro.bench.parallel_scaling --out run_pr4.json
    python -m repro.bench.parallel_scaling --check-speedup

Two independent sections land in the output document:

* ``runs`` — priced run manifests of the reference NOPA join executed
  once per backend (``nopa[serial]`` / ``nopa[threads]``).  These are
  fully deterministic — the whole point of the backend's determinism
  contract — and are what ``repro.bench.diff_manifest`` compares
  against the committed ``BENCH_pr4.json`` baseline in CI.
* ``scaling`` — wall-clock seconds of the *functional* build+probe at
  each worker count, with speedups relative to the serial path.  Wall
  clock depends on the host (core count, load), so this section is
  informational and deliberately ignored by the manifest diff.

``--check-speedup`` asserts the threads speedup exceeds the threshold
at the largest swept worker count the host has cores for.  It skips
(with an explicit note in the output) only on a 1-core host, which
cannot demonstrate parallel speedup — only parallel *correctness*,
which the equivalence section always verifies — and refuses ``--quick``,
whose sizes are dominated by dispatch overhead.
"""

from __future__ import annotations

import argparse
import json
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
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, build_manifest
from repro.workloads.builders import workload_a

#: acceptance threshold: the threads backend must beat serial by this
#: factor at the gated worker count (see ``--check-speedup``).
SPEEDUP_TARGET = 1.5

#: worker counts of the sweep.
DEFAULT_WORKER_COUNTS = (1, 2, 4)


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
    scheme: str,
    executor: Optional[MorselExecutor],
    repeats: int,
) -> float:
    def run() -> None:
        table = create_hash_table(scheme, len(keys), keys.dtype, values.dtype)
        execute_build(table, keys, values, executor)
        execute_probe(table, probe, executor)

    return _best_of(repeats, run)


def _reference_manifests(scale: float, workers: int) -> List[Any]:
    """The deterministic section: one priced NOPA run per backend.

    Identical ``TableStats`` across backends make the priced phases (and
    therefore these manifests) byte-identical; the diff against the
    committed baseline enforces that on every CI run.
    """
    machine = ibm_ac922()
    workload = workload_a(scale=scale)
    manifests = []
    for backend in ("serial", "threads"):
        obs = Observability.create()
        join = NoPartitioningJoin(
            machine,
            hash_table_placement="gpu",
            transfer_method="coherence",
            obs=obs,
            backend=backend,
            workers=workers,
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
                    "workers": workers if backend == "threads" else 1,
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
    scheme: str,
    workers: int,
    morsel_tuples: int,
) -> Dict[str, bool]:
    serial_table = create_hash_table(scheme, len(keys), keys.dtype, values.dtype)
    execute_build(serial_table, keys, values, None)
    serial_found, serial_values = execute_probe(serial_table, probe, None)

    executor = MorselExecutor(workers=workers, morsel_tuples=morsel_tuples)
    table = create_hash_table(scheme, len(keys), keys.dtype, values.dtype)
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


def run_benchmark(
    quick: bool = False,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    scheme: str = "perfect",
) -> Dict[str, Any]:
    """Execute the sweep and return the output document."""
    build_tuples = 1 << 18 if quick else 1 << 21
    probe_tuples = 1 << 19 if quick else 1 << 22
    repeats = 2 if quick else 3
    morsel_tuples = 1 << 14 if quick else DEFAULT_EXEC_MORSEL_TUPLES

    rng = np.random.default_rng(4)
    keys = rng.permutation(build_tuples).astype(np.int64)
    values = (keys * 3 + 1).astype(np.int64)
    probe = rng.integers(0, build_tuples, size=probe_tuples).astype(np.int64)

    serial_seconds = _functional_seconds(
        keys, values, probe, scheme, None, repeats
    )
    scaling = [
        {
            "backend": "serial",
            "workers": 1,
            "seconds": serial_seconds,
            "speedup": 1.0,
        }
    ]
    for workers in worker_counts:
        executor = MorselExecutor(workers=workers, morsel_tuples=morsel_tuples)
        seconds = _functional_seconds(
            keys, values, probe, scheme, executor, repeats
        )
        scaling.append(
            {
                "backend": "threads",
                "workers": workers,
                "seconds": seconds,
                "speedup": serial_seconds / seconds if seconds else float("inf"),
            }
        )

    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generator": "repro.bench.parallel_scaling",
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "scheme": scheme,
            "build_tuples": build_tuples,
            "probe_tuples": probe_tuples,
            "morsel_tuples": morsel_tuples,
            "repeats": repeats,
        },
        "scaling": scaling,
        "equivalence": _equivalence(
            keys, values, probe, scheme, max(worker_counts), morsel_tuples
        ),
        "runs": [
            m.to_dict()
            for m in _reference_manifests(
                scale=2.0**-14 if quick else 2.0**-12,
                workers=max(worker_counts),
            )
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--out", default=None, help="write the JSON document here")
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help=f"fail unless the threads speedup > {SPEEDUP_TARGET}x at the "
        "largest swept worker count <= the host's cores (skipped only on "
        "a 1-core host; not allowed with --quick)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORKER_COUNTS),
        help="worker counts to sweep",
    )
    parser.add_argument(
        "--scheme",
        default="perfect",
        choices=("perfect", "chaining", "open_addressing"),
    )
    args = parser.parse_args(argv)
    cores = os.cpu_count() or 1
    # swept worker counts the speed-up gate may be evaluated at
    gateable = [w for w in args.workers if 1 < w <= cores]
    if args.check_speedup and args.quick:
        parser.error(
            "--check-speedup needs the full sweep: at --quick sizes "
            "dispatch overhead dominates and the gate measures nothing"
        )
    if args.check_speedup and cores > 1 and not gateable:
        parser.error(
            f"--check-speedup: no swept worker count in {args.workers} "
            f"is between 2 and the host's {cores} cores"
        )

    document = run_benchmark(
        quick=args.quick, worker_counts=args.workers, scheme=args.scheme
    )

    print(f"== parallel scaling ({document['workload']['scheme']}, "
          f"{document['workload']['build_tuples']} build / "
          f"{document['workload']['probe_tuples']} probe tuples, "
          f"{document['cpu_count']} cores) ==")
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

    if args.check_speedup:
        if not gateable:
            note = (
                f"speedup check skipped: host has {cores} core(s); "
                "need >= 2 to demonstrate parallel speedup"
            )
            document["speedup_check"] = {"status": "skipped", "note": note}
            print(f"  {note}")
        else:
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
            document["speedup_check"] = {
                "status": "passed",
                "workers": gated,
                "speedup": row["speedup"],
            }
            print(
                f"  speedup check passed: threads workers={gated} "
                f"{row['speedup']:.2f}x"
            )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
