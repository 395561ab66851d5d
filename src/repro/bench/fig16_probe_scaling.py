"""Figure 16: probe-side scaling.

Workload C with 16-byte tuples; |R| fixed at 1024 million tuples (hash
table in GPU memory), |S| scaled from 128 to 8192 million tuples
(1.9-122 GiB).  Series: CPU radix baseline (PRA), GPU over PCI-e 3.0,
GPU over NVLink 2.0.
"""

from __future__ import annotations

from repro.bench.common import FigureResult
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_ratio

#: approximate curve readings (G Tuples/s).
PAPER = {
    "8192M": {"nvlink2": 3.8, "pcie3": 0.77, "cpu-pra": 0.5},
    "1024M": {"nvlink2": 2.4, "pcie3": 0.77, "cpu-pra": 0.5},
}

PROBE_MILLIONS = (128, 512, 1024, 2048, 4096, 8192)
BUILD_MILLIONS = 1024


def run(scale: float = 2.0**-13, probe_millions=PROBE_MILLIONS) -> FigureResult:
    result = FigureResult(
        figure="Figure 16",
        title="Probe-side scaling (workload C, 16-byte tuples)",
        paper=PAPER,
        notes=(
            "NVLink 2.0 is 3-6x PCI-e 3.0 and 3.2-7.3x the CPU baseline; "
            "PCI-e stays flat at its transfer bottleneck and cannot beat "
            "the CPU."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    for millions in probe_millions:
        ratio = max(1, millions // BUILD_MILLIONS)
        if millions >= BUILD_MILLIONS:
            workload = workload_ratio(
                ratio, scale=scale, modeled_r=BUILD_MILLIONS * 10**6
            )
        else:
            # sub-1:1 points: shrink S below R by generating at ratio 1
            # and truncating the modeled probe cardinality.
            workload = workload_ratio(
                1, scale=scale, modeled_r=BUILD_MILLIONS * 10**6
            )
            workload.s.modeled_tuples = millions * 10**6
        values = {}
        values["nvlink2"] = (
            NoPartitioningJoin(ibm, hash_table_placement="gpu")
            .run(workload.r, workload.s)
            .throughput_gtuples
        )
        pinned = workload.placed_for("zero_copy")
        values["pcie3"] = (
            NoPartitioningJoin(
                intel, hash_table_placement="gpu", transfer_method="zero_copy"
            )
            .run(pinned.r, pinned.s)
            .throughput_gtuples
        )
        values["cpu-pra"] = (
            RadixJoin(ibm).run(workload.r, workload.s).throughput_gtuples
        )
        result.add(f"{millions}M", **values)
    return result
