#!/usr/bin/env python3
"""Compare all eight transfer methods of Table 1 (Figure 12).

Executes workload A's join once, then prices it under every method on
both machines, allocating the relations in each method's required
memory kind (pageable / pinned / unified), and prints the resulting join
throughput.  Coherence is rejected on the PCI-e machine — PCI-e 3.0 is
not cache-coherent.
"""

import repro
from repro.transfer.methods import TRANSFER_METHODS, UnsupportedTransferError


def main() -> None:
    workload = repro.workload_a(scale=2**-12)
    machines = {
        "NVLink 2.0 (AC922)": repro.ibm_ac922(),
        "PCI-e 3.0 (Xeon)": repro.intel_xeon_v100(),
    }

    print(f"{'method':>16} {'semantics':>10} {'level':>6} {'memory':>9} |"
          f" {'NVLink':>7} {'PCI-e':>7}")
    print("-" * 70)
    # The join's answer does not depend on the method or the machine:
    # execute it once and price every cell from that execution.
    execution = repro.NoPartitioningJoin(machines["NVLink 2.0 (AC922)"]).execute(
        workload.r, workload.s
    )
    for name, method in TRANSFER_METHODS.items():
        placed = workload.placed_for(name, "cpu0-mem")
        cells = []
        for machine in machines.values():
            join = repro.NoPartitioningJoin(
                machine, hash_table_placement="gpu", transfer_method=name
            )
            try:
                res = join.price(execution, placed.r, placed.s, processor="gpu0")
                cells.append(f"{res.throughput_gtuples:>7.2f}")
            except UnsupportedTransferError:
                cells.append(f"{'n/a':>7}")
        print(f"{name:>16} {method.semantics:>10} {method.level:>6} "
              f"{method.required_kind.value:>9} | " + " ".join(cells))

    print("\npull-based methods read CPU memory from inside the kernel;")
    print("push-based methods pipeline chunked copies into GPU memory.")

    # Inspect one method's ingest model directly.
    machine = repro.ibm_ac922()
    cost_model = repro.CostModel(machine)
    for name in ("coherence", "pageable_copy", "um_migration"):
        method = repro.get_method(name)
        bw = method.ingest_bandwidth(cost_model, "gpu0", "cpu0-mem")
        print(f"  {name}: effective ingest bandwidth "
              f"{bw / 2**30:.1f} GiB/s")


if __name__ == "__main__":
    main()
