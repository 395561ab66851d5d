#!/usr/bin/env python3
"""TPC-H query 6 out-of-core (Section 7.2.4 / Figure 15).

Scales Q6 from SF 100 to SF 1000 (8.9-89.4 GiB working sets, nothing
cached in GPU memory) and compares branching vs. predicated kernels on
the CPU, the GPU over NVLink 2.0, and the GPU over PCI-e 3.0.

The counterintuitive result: *branching* beats predication on the GPU,
because the query's ~1.9% selectivity plus dbgen's clustered shipdates
let the branching kernel skip transferring most cache lines of the
later columns — and the interconnect is the bottleneck.
"""

import repro


def main() -> None:
    ibm = repro.ibm_ac922()
    intel = repro.intel_xeon_v100()

    configs = [
        ("CPU  predicated", ibm, "cpu0", "predicated", "coherence"),
        ("CPU  branching ", ibm, "cpu0", "branching", "coherence"),
        ("NVL  predicated", ibm, "gpu0", "predicated", "coherence"),
        ("NVL  branching ", ibm, "gpu0", "branching", "coherence"),
        ("PCIe predicated", intel, "gpu0", "predicated", "zero_copy"),
        ("PCIe branching ", intel, "gpu0", "branching", "zero_copy"),
    ]

    # Execute each scale factor once and price every configuration from
    # that execution, as the Figure 15 runner does.
    scale_factors = (100, 500, 1000)
    cells = {label: [] for label, *_ in configs}
    check = None
    for sf in scale_factors:
        workload = repro.lineitem_q6(scale_factor=sf, scale=2**-10)
        execution = repro.TpchQ6(ibm).execute(workload)
        for label, machine, proc, variant, method in configs:
            # Allocate lineitem as the transfer method requires (Table 1).
            placed = workload.placed(
                workload.location, kind=repro.get_method(method).required_kind
            )
            op = repro.TpchQ6(machine, variant=variant, transfer_method=method)
            res = op.price(execution, placed, processor=proc)
            cells[label].append(f" {res.throughput_gtuples:>6.2f}")
            if check is None:
                check = (f"  [functional check] SF{sf}: revenue "
                         f"{res.aggregate:.2f} from {res.qualifying_rows} rows "
                         f"({res.selectivity:.1%} selectivity)")

    header = f"{'config':>16} |" + "".join(
        f" SF{sf:>5}" for sf in scale_factors
    )
    print(header + "   (G Tuples/s)")
    print("-" * len(header))
    print(check)
    for label, *_ in configs:
        print(f"{label:>16} |" + "".join(cells[label]))

    # Show the branching kernel's column-level skipping (the SF1000
    # execution above).
    res = repro.TpchQ6(ibm, variant="branching").price(
        execution, workload, processor="gpu0"
    )
    names = ("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
    print("\nbranching variant, fraction of each column's lines loaded:")
    for name, fraction in zip(names, res.column_line_fractions):
        print(f"  {name:>16}: {fraction:.0%}")


if __name__ == "__main__":
    main()
