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
from repro.bench.common import Series, price_series


def main() -> None:
    ibm = repro.ibm_ac922()
    intel = repro.intel_xeon_v100()

    cpu = {"processor": "cpu0"}
    series = [
        Series("CPU  predicated", repro.TpchQ6(ibm, variant="predicated"), cpu),
        Series("CPU  branching ", repro.TpchQ6(ibm, variant="branching"), cpu),
        Series("NVL  predicated", repro.TpchQ6(ibm, variant="predicated")),
        Series("NVL  branching ", repro.TpchQ6(ibm, variant="branching")),
        Series("PCIe predicated",
               repro.TpchQ6(intel, variant="predicated", transfer_method="zero_copy")),
        Series("PCIe branching ",
               repro.TpchQ6(intel, variant="branching", transfer_method="zero_copy")),
    ]

    # Execute each scale factor once and price every configuration from
    # that execution, with lineitem allocated as each configuration's
    # transfer method requires (Table 1), as the Figure 15 runner does.
    # The columns are freed before the next scale factor is generated.
    scale_factors = (100, 500, 1000)
    cells = {name: [] for name, *_ in series}
    check = None
    for sf in scale_factors:
        lineitem = repro.lineitem_q6(scale_factor=sf, scale=2**-10)
        execution = repro.TpchQ6(ibm).execute(lineitem)
        results = price_series(execution, (lineitem,), series)
        del lineitem, execution
        for label, res in results.items():
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
    for label, row in cells.items():
        print(f"{label:>16} |" + "".join(row))

    # Show the branching kernel's column-level skipping (the GPU
    # branching configuration at SF1000, the last scale factor above).
    fractions = results["NVL  branching "].column_line_fractions
    names = ("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
    print("\nbranching variant, fraction of each column's lines loaded:")
    for name, fraction in zip(names, fractions):
        print(f"  {name:>16}: {fraction:.0%}")


if __name__ == "__main__":
    main()
