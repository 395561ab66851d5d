#!/usr/bin/env python3
"""Performance debugging walkthrough: why is my join this fast?

Uses the library's introspection tools on one out-of-core join:

1. `decide_placement` — what the Figure 11 tree recommends and why,
2. `explain_join` — per-resource utilization of each phase,
3. the NUMA distance matrix — where the data should live,
4. `tune_batch_morsels` — the Section 6.1 GPU batch knob,
5. what-if analysis: re-run with a different placement and compare.
"""

import numpy as np

import repro
from repro.obs.explain import explain_join
from repro.core.scheduler.batch import tune_batch_morsels
from repro.utils.tables import Table
from repro.workloads.custom import make_join_workload


def main() -> None:
    machine = repro.ibm_ac922()

    # A user-shaped workload: sparse 64-bit surrogate keys.
    rng = np.random.default_rng(11)
    r_keys = (rng.permutation(200_000).astype(np.int64) * 1009 + 7)
    s_keys = r_keys[rng.integers(0, len(r_keys), 2_000_000)]
    workload, recommendation = make_join_workload(
        r_keys, s_keys,
        name="orders⋈lineitems",
        modeled_r=2**27,
        modeled_s=2**31,
    )
    print(f"hash scheme: {recommendation.recommended} "
          f"({recommendation.reason})\n")

    # 1. What does the placement tree say?
    table_bytes = workload.r.modeled_tuples * 2 * workload.r.tuple_bytes
    decision = repro.decide_placement(machine, table_bytes)
    print(f"placement decision: {decision}\n")

    # 2. Run and explain.
    join = repro.NoPartitioningJoin(
        machine,
        hash_table_placement=decision.hash_table_placement,
        hash_scheme=recommendation.recommended,
    )
    result = join.run(workload.r, workload.s)
    print(explain_join(result))

    # 3. Where should data live? The NUMA picture: hops from every
    #    processor to every memory region.
    memories = sorted(machine.memories)
    hops = Table(
        ["processor \\ memory"] + memories,
        title=f"NUMA hop distances — {machine.name}",
    )
    for proc in sorted(machine.processors):
        hops.add_row([proc] + [str(machine.hops(proc, mem)) for mem in memories])
    print()
    print(hops.render())

    # 4. The GPU batch knob for co-processing.
    gpu_rate = 3e9  # tuples/s, from the probe explanation above
    batch = tune_batch_morsels(
        morsel_tuples=1 << 20,
        worker_rate=gpu_rate,
        dispatch_latency=20e-6,
    )
    print(f"\ntuned GPU batch: {batch} morsels "
          f"(amortizes the 20 us dispatch below 2% overhead)")

    # 5. What-if: force the table into CPU memory and compare.
    spilled = repro.NoPartitioningJoin(
        machine,
        hash_table_placement="cpu",
        hash_scheme=recommendation.recommended,
    ).run(workload.r, workload.s)
    slowdown = result.throughput_gtuples / spilled.throughput_gtuples
    print(f"\nwhat-if (table spilled to CPU memory): "
          f"{spilled.throughput_gtuples:.2f} vs "
          f"{result.throughput_gtuples:.2f} G Tuples/s "
          f"({slowdown:.1f}x slower — the Figure 14 cliff)")


if __name__ == "__main__":
    main()
